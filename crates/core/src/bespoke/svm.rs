//! Bespoke regression-SVM engines (§IV-B, Fig. 4c, Fig. 11).
//!
//! Coefficient registers are replaced by hardwired trained values
//! (flip-flops are brutally expensive in print: an EGT DFF is 1.41 mm² and
//! 121 µW), array multipliers become constant-coefficient shift-add
//! networks, and the class mapper's boundaries fold into the comparators.
//! Signed arithmetic is realized unsigned: positive- and negative-
//! coefficient terms accumulate in separate adder trees `P` and `N`, and
//! each boundary test `P − N > B` becomes `P > N + B` with the constant
//! folded in.

use ml::quant::QuantizedSvm;
use netlist::arith::{add, adder_tree, const_multiply};
use netlist::builder::NetlistBuilder;
use netlist::comb::unsigned_gt;
use netlist::ir::{Module, Signal};
use netlist::optimize;

use crate::conventional::svm::popcount;

/// Generates the bespoke SVM engine for a quantized regressor
/// (post-optimization).
///
/// Ports: `x{f}` for every feature with a non-zero trained coefficient
/// (`f` = original feature index), outputs `class` and the raw thermometer
/// bits `therm`.
pub fn bespoke_svm(svm: &QuantizedSvm) -> Module {
    let _span = obs::span("gen.bespoke_svm");
    crate::record_generated(optimize(&bespoke_svm_raw(svm)))
}

/// The unoptimized bespoke SVM engine — the sign-off *reference* the
/// `--verify` flow equivalence-checks [`bespoke_svm`]'s rewritten netlist
/// against.
pub fn bespoke_svm_raw(svm: &QuantizedSvm) -> Module {
    let mut b = NetlistBuilder::new("bespoke_svm");
    let width = svm.bits();

    // One port per live feature.
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

    // Value bounds decide the common comparison width.
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

    let tree_for = |b: &mut NetlistBuilder, terms: &[(usize, u64)]| -> Vec<Signal> {
        if terms.is_empty() {
            return b.const_word(0, cmp_width);
        }
        let products: Vec<Vec<Signal>> = terms
            .iter()
            .map(|&(f, m)| const_multiply(b, &ports[&f], m))
            .collect();
        let mut sum = adder_tree(b, &products);
        sum.resize(cmp_width, Signal::ZERO);
        sum
    };
    let p = tree_for(&mut b, svm.pos_terms());
    let n = tree_for(&mut b, svm.neg_terms());

    // Boundary tests: P − N > B_c, kept unsigned by moving the constant.
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
    use crate::conventional::svm::{generate as gen_conv, SvmSpec};
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

    fn check_equivalence(app: Application, bits: usize, samples: usize) -> Result<(), SimError> {
        let (qs, fq, test) = setup(app, bits);
        let module = bespoke_svm(&qs);
        let mut sim = Simulator::try_new(&module)?;
        for row in test.x.iter().take(samples) {
            let codes = fq.code_row(row);
            for &(f, _) in qs.pos_terms().iter().chain(qs.neg_terms()) {
                sim.try_set(&format!("x{f}"), codes[f])?;
            }
            sim.settle();
            assert_eq!(
                sim.try_get("class")? as usize,
                qs.predict(&codes),
                "row mismatch"
            );
        }
        Ok(())
    }

    #[test]
    fn bespoke_svm_matches_software_svm() -> Result<(), SimError> {
        check_equivalence(Application::RedWine, 8, 120)?;
        check_equivalence(Application::WhiteWine, 8, 80)?;
        check_equivalence(Application::Har, 4, 80)?;
        Ok(())
    }

    #[test]
    fn bespoke_svm_is_an_order_cheaper_than_conventional() {
        // Fig. 11: 1.4× delay, 12.8× area, 12.7× power (EGT averages)
        // against the 263-feature conventional engine. A fair shape check:
        // compare against a conventional engine sized to the same feature
        // count, expecting several-fold improvements.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qs, _, _) = setup(Application::RedWine, 8);
        let conv = analyze(
            &gen_conv(&SvmSpec {
                width: 8,
                n_features: 11,
                n_boundaries: 5,
            }),
            &lib,
        );
        let besp = analyze(&bespoke_svm(&qs), &lib);
        assert!(
            conv.area.ratio(besp.area) > 3.0,
            "area {}",
            conv.area.ratio(besp.area)
        );
        assert!(conv.power.ratio(besp.power) > 3.0);
        assert!(conv.delay >= besp.delay);
    }

    #[test]
    fn no_registers_and_no_multipliers_survive() {
        let (qs, _, _) = setup(Application::RedWine, 8);
        let module = bespoke_svm(&qs);
        assert_eq!(module.dff_count(), 0);
    }

    #[test]
    fn thermometer_output_is_monotone() -> Result<(), SimError> {
        let (qs, fq, test) = setup(Application::WhiteWine, 8);
        let module = bespoke_svm(&qs);
        let mut sim = Simulator::try_new(&module)?;
        for row in test.x.iter().take(60) {
            let codes = fq.code_row(row);
            for &(f, _) in qs.pos_terms().iter().chain(qs.neg_terms()) {
                sim.try_set(&format!("x{f}"), codes[f])?;
            }
            sim.settle();
            let t = sim.try_get("therm")?;
            // Thermometer: once a zero appears, no ones above it.
            let ones = t.trailing_ones() as u64;
            assert_eq!(t, (1u64 << ones) - 1, "non-thermometer pattern {t:b}");
        }
        Ok(())
    }
}
