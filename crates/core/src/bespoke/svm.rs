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
use netlist::ir::Module;
use netlist::optimize;

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
    crate::emit::svm_engine("bespoke_svm", svm, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::svm::{generate as gen_conv, SvmSpec};
    use crate::emit::fixtures::{assert_class, run_rows, svm as setup, svm_inputs};
    use ml::synth::Application;
    use netlist::analyze;
    use netlist::SimError;
    use pdk::{CellLibrary, Technology};

    fn check_equivalence(app: Application, bits: usize, samples: usize) -> Result<(), SimError> {
        let (qs, fq, test) = setup(app, bits);
        let module = bespoke_svm(&qs);
        assert_class(&module, &svm_inputs(&qs), &fq, &test, samples, |c| {
            qs.predict(c)
        })
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
        run_rows(&module, &svm_inputs(&qs), 0, &fq, &test, 60, |sim, _| {
            let t = sim.try_get("therm")?;
            // Thermometer: once a zero appears, no ones above it.
            let ones = t.trailing_ones() as u64;
            assert_eq!(t, (1u64 << ones) - 1, "non-thermometer pattern {t:b}");
            Ok(())
        })
    }
}
