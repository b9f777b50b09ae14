//! Bespoke serial decision trees (§IV-A, Fig. 4a, Fig. 6).
//!
//! The serial engine re-dimensioned around one trained model: the input
//! mux shrinks to the features the tree actually tests, the shift register
//! to the tree's true depth, threshold ROM entries to the widest trained
//! threshold, and the class ROM to the real class count. The datapath
//! width comes from the per-application bit-width search (§IV-A picks the
//! narrowest of 4/8/12/16 that preserves accuracy).

use ml::quant::QuantizedTree;
use netlist::ir::Module;
use netlist::optimize;
use pdk::rom::RomStyle;

use crate::conventional::serial_tree::{generate, program, SerialTreeSpec};
use crate::emit::ceil_log2;

/// Derives the bespoke engine dimensions for a trained tree.
pub fn bespoke_spec(tree: &QuantizedTree) -> SerialTreeSpec {
    let (splits, _) = tree.heap_layout();
    let max_tau = splits.iter().map(|s| s.2).max().unwrap_or(0);
    let tau_bits = (64 - max_tau.leading_zeros() as usize)
        .max(1)
        .min(tree.bits());
    SerialTreeSpec {
        depth: tree.depth().max(1),
        width: tree.bits(),
        n_features: tree.used_features().len().max(1),
        class_bits: ceil_log2(tree.n_classes()),
        tau_bits,
        input_registers: false,
        rom_style: RomStyle::Crossbar,
    }
}

/// Generates the bespoke serial engine for `tree` and runs logic
/// optimization over it.
pub fn bespoke_serial(tree: &QuantizedTree) -> (SerialTreeSpec, Module) {
    let _span = obs::span("gen.bespoke_serial_tree");
    let spec = bespoke_spec(tree);
    let prog = program(tree, &spec);
    let module = crate::record_generated(optimize(&generate(&spec, &prog)));
    (spec, module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::serial_tree::SerialTreeSpec as Spec;
    use crate::emit::fixtures::{run_rows, tree as setup, tree_inputs};
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use netlist::analyze;
    use netlist::SimError;
    use pdk::{CellLibrary, Technology};

    /// Runs `qt`'s bespoke serial engine for its depth on `rows` rows of
    /// `test` and checks its class against the software tree.
    fn check_serial(
        qt: &QuantizedTree,
        fq: &FeatureQuantizer,
        test: &ml::Dataset,
        rows: usize,
    ) -> Result<Spec, SimError> {
        let (spec, module) = bespoke_serial(qt);
        run_rows(
            &module,
            &tree_inputs(qt),
            spec.depth,
            fq,
            test,
            rows,
            |sim, codes| {
                assert_eq!(sim.try_get("class")? as usize, qt.predict(codes));
                Ok(())
            },
        )?;
        Ok(spec)
    }

    #[test]
    fn bespoke_serial_matches_software_tree() -> Result<(), SimError> {
        let (qt, fq, test) = setup(Application::RedWine, 4, 8);
        check_serial(&qt, &fq, &test, 120)?;
        Ok(())
    }

    #[test]
    fn bespoke_serial_is_cheaper_than_conventional_serial() {
        // Fig. 6: ~37% area and ~22% power improvement on average in EGT.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qt, _, _) = setup(Application::Cardio, 4, 8);
        let conv_spec = Spec::conventional(4);
        let conv = analyze(
            &crate::conventional::serial_tree::generate(
                &conv_spec,
                &crate::conventional::serial_tree::program(&qt, &conv_spec),
            ),
            &lib,
        );
        let (_, module) = bespoke_serial(&qt);
        let besp = analyze(&module, &lib);
        assert!(
            besp.area < conv.area,
            "bespoke {} vs conv {}",
            besp.area,
            conv.area
        );
        assert!(besp.power < conv.power);
    }

    #[test]
    fn spec_shrinks_to_the_model() {
        let (qt, _, _) = setup(Application::Har, 4, 8);
        let spec = bespoke_spec(&qt);
        assert_eq!(spec.depth, qt.depth());
        assert_eq!(spec.n_features, qt.used_features().len());
        assert!(spec.class_bits <= 3); // 5 classes
        assert!(spec.tau_bits <= 8);
    }

    #[test]
    fn narrow_width_trees_build_and_verify() -> Result<(), SimError> {
        let (qt, fq, test) = setup(Application::Har, 2, 4);
        assert_eq!(check_serial(&qt, &fq, &test, 60)?.width, 4);
        Ok(())
    }
}
