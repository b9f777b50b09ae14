//! Lookup-based SVMs (§V-A, Figs. 8, 12, 13).
//!
//! Each constant-coefficient multiplier of the bespoke SVM becomes a ROM
//! mapping the feature code to the product `m · code`. Every feature is
//! used exactly once, so there is no decoder sharing — which is why plain
//! lookup SVMs show no benefit (Fig. 12) — but the printing-specific
//! optimizations change the picture (Fig. 13): product tables are full of
//! constant columns (trailing zeros of even coefficients, unused high
//! bits) and dot-resistor arrays only pay for set bits.

use ml::quant::QuantizedSvm;
use netlist::arith::{add, adder_tree};
use netlist::builder::NetlistBuilder;
use netlist::comb::unsigned_gt;
use netlist::ir::{Module, Signal};
use netlist::optimize;

use super::{emit_lut, LookupConfig};
use crate::conventional::svm::popcount;

/// Generates the lookup-based SVM engine (post-optimization).
///
/// Ports match [`crate::bespoke::svm::bespoke_svm`]: `x{f}` inputs,
/// `class` and `therm` outputs.
pub fn lookup_svm(svm: &QuantizedSvm, config: LookupConfig) -> Module {
    let _span = obs::span("gen.lookup_svm");
    crate::record_generated(optimize(&lookup_svm_raw(svm, config)))
}

/// The unoptimized lookup-based SVM engine — the sign-off *reference* the
/// `--verify` flow equivalence-checks [`lookup_svm`]'s rewritten netlist
/// against.
pub fn lookup_svm_raw(svm: &QuantizedSvm, config: LookupConfig) -> Module {
    let mut b = NetlistBuilder::new("lookup_svm");
    let width = svm.bits();
    let words = 1usize << width;

    let mut live: Vec<usize> = svm
        .pos_terms()
        .iter()
        .chain(svm.neg_terms())
        .map(|&(f, _)| f)
        .collect();
    live.sort_unstable();
    live.dedup();
    let ports: std::collections::HashMap<usize, Vec<Signal>> = live
        .iter()
        .map(|&f| (f, b.input(format!("x{f}"), width)))
        .collect();

    let max_code: u128 = (1u128 << width) - 1;
    let max_p: u128 = svm
        .pos_terms()
        .iter()
        .map(|&(_, m)| m as u128 * max_code)
        .sum();
    let max_n: u128 = svm
        .neg_terms()
        .iter()
        .map(|&(_, m)| m as u128 * max_code)
        .sum();
    let max_b: u128 = svm
        .boundaries()
        .iter()
        .map(|&v| v.unsigned_abs() as u128)
        .max()
        .unwrap_or(0);
    let max_val = max_p.max(max_n + max_b).max(1);
    let cmp_width = (128 - max_val.leading_zeros() as usize) + 1;

    // Product LUT per term: addr = feature code, data = m * code.
    let product_lut = |b: &mut NetlistBuilder, f: usize, m: u64| -> Vec<Signal> {
        let bits = (64 - (m * (words as u64 - 1)).leading_zeros() as usize).max(1);
        let contents: Vec<u64> = (0..words as u64).map(|code| m * code).collect();
        emit_lut(b, &ports[&f], &contents, bits, config)
    };
    let tree_for = |b: &mut NetlistBuilder, terms: &[(usize, u64)]| -> Vec<Signal> {
        if terms.is_empty() {
            return b.const_word(0, cmp_width);
        }
        let products: Vec<Vec<Signal>> = terms.iter().map(|&(f, m)| product_lut(b, f, m)).collect();
        let mut sum = adder_tree(b, &products);
        sum.resize(cmp_width, Signal::ZERO);
        sum
    };
    let p = tree_for(&mut b, svm.pos_terms());
    let n = tree_for(&mut b, svm.neg_terms());

    let mut therm = Vec::with_capacity(svm.boundaries().len());
    for &boundary in svm.boundaries() {
        let t = if boundary >= 0 {
            let bconst = b.const_word(boundary as u64, cmp_width);
            let mut rhs = add(&mut b, &n, &bconst);
            rhs.resize(cmp_width + 1, Signal::ZERO);
            let mut lhs = p.clone();
            lhs.resize(cmp_width + 1, Signal::ZERO);
            unsigned_gt(&mut b, &lhs, &rhs)
        } else {
            let bconst = b.const_word(boundary.unsigned_abs(), cmp_width);
            let mut lhs = add(&mut b, &p, &bconst);
            lhs.resize(cmp_width + 1, Signal::ZERO);
            let mut rhs = n.clone();
            rhs.resize(cmp_width + 1, Signal::ZERO);
            unsigned_gt(&mut b, &lhs, &rhs)
        };
        therm.push(t);
    }

    let class = if therm.is_empty() {
        b.const_word(0, 1)
    } else {
        popcount(&mut b, &therm)
    };
    b.output("class", &class);
    let therm_out = if therm.is_empty() {
        vec![Signal::ZERO]
    } else {
        therm
    };
    b.output("therm", &therm_out);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bespoke::svm::bespoke_svm;
    use ml::data::Standardizer;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::SvmRegressor;
    use netlist::analyze;
    use netlist::sim::Simulator;
    use netlist::SimError;
    use pdk::{CellLibrary, Technology};

    fn setup(app: Application, bits: usize) -> (QuantizedSvm, FeatureQuantizer, ml::Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let svm = SvmRegressor::fit(&train, 200, 1e-4);
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedSvm::from_svm(&svm, &fq), fq, test)
    }

    fn check_equivalence(
        app: Application,
        bits: usize,
        config: LookupConfig,
    ) -> Result<(), SimError> {
        let (qs, fq, test) = setup(app, bits);
        let module = lookup_svm(&qs, config);
        let mut sim = Simulator::try_new(&module)?;
        for row in test.x.iter().take(80) {
            let codes = fq.code_row(row);
            for &(f, _) in qs.pos_terms().iter().chain(qs.neg_terms()) {
                sim.try_set(&format!("x{f}"), codes[f])?;
            }
            sim.settle();
            assert_eq!(sim.try_get("class")? as usize, qs.predict(&codes));
        }
        Ok(())
    }

    #[test]
    fn lookup_svm_matches_software_svm() -> Result<(), SimError> {
        check_equivalence(Application::RedWine, 6, LookupConfig::baseline())?;
        check_equivalence(Application::RedWine, 6, LookupConfig::optimized())?;
        check_equivalence(Application::Har, 4, LookupConfig::optimized())?;
        Ok(())
    }

    #[test]
    fn plain_lookup_svm_shows_no_benefit() {
        // Fig. 12: without decoder sharing, ROM multipliers lose to
        // constant shift-add multipliers.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qs, _, _) = setup(Application::RedWine, 8);
        let besp = analyze(&bespoke_svm(&qs), &lib);
        let lut = analyze(&lookup_svm(&qs, LookupConfig::baseline()), &lib);
        assert!(
            lut.area >= besp.area,
            "baseline lookup should not beat bespoke"
        );
    }

    #[test]
    fn optimizations_recover_lookup_svm_benefits() {
        // Fig. 13: constant columns + dots bring lookup SVMs to parity or
        // better for narrow widths.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qs, _, _) = setup(Application::Har, 4);
        let base = analyze(&lookup_svm(&qs, LookupConfig::baseline()), &lib);
        let opt = analyze(&lookup_svm(&qs, LookupConfig::optimized()), &lib);
        assert!(opt.area < base.area);
        assert!(opt.power < base.power);
    }

    #[test]
    fn product_tables_have_constant_columns_to_harvest() {
        // The optimization hook: even coefficients give constant-zero LSB
        // columns, so the optimized build must carry fewer ROM data bits.
        let (qs, _, _) = setup(Application::RedWine, 6);
        let base = lookup_svm(&qs, LookupConfig::baseline());
        let opt = lookup_svm(&qs, LookupConfig::optimized());
        let bits = |m: &netlist::Module| -> usize { m.roms.iter().map(|r| r.data.len()).sum() };
        assert!(bits(&opt) <= bits(&base));
    }
}
