//! Bespoke maximally parallel decision trees (§IV-A, Fig. 4b, Fig. 7).
//!
//! The trained thresholds are hardwired as constants into the node
//! comparators and the class labels as constants into the selection tree,
//! the threshold/feature registers are deleted (inputs connect straight to
//! their feature ports), and logic optimization collapses everything the
//! constants imply. This is the architecture behind the paper's headline:
//! 48.9× lower area and 75.6× lower power than conventional parallel
//! trees in EGT, and — unlike the conventional case — *strictly better*
//! than its serial sibling.

use ml::quant::QuantizedTree;
use netlist::ir::Module;
use netlist::optimize;

use crate::ensemble::ForestStyle;

/// Generates the bespoke parallel tree for `tree` (post-optimization).
///
/// Ports: `f{slot}` for each *used* feature (slot order =
/// [`QuantizedTree::used_features`] order) and the `class` output.
pub fn bespoke_parallel(tree: &QuantizedTree) -> Module {
    let _span = obs::span("gen.bespoke_parallel_tree");
    crate::record_generated(optimize(&bespoke_parallel_raw(tree)))
}

/// The unoptimized bespoke parallel tree — the sign-off *reference*: the
/// `--verify` flow equivalence-checks [`bespoke_parallel`]'s rewritten
/// netlist against this structural original.
pub fn bespoke_parallel_raw(tree: &QuantizedTree) -> Module {
    crate::emit::tree_engine("bespoke_parallel_tree", tree, ForestStyle::Bespoke)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::parallel_tree::{generate as gen_conv, ParallelTreeSpec};
    use crate::emit::fixtures::{assert_class, tree as setup, tree_inputs};
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::tree::{DecisionTree, TreeParams};
    use netlist::analyze;
    use netlist::SimError;
    use pdk::{CellLibrary, Technology};

    fn check_equivalence(
        app: Application,
        depth: usize,
        bits: usize,
        samples: usize,
    ) -> Result<(), SimError> {
        let (qt, fq, test) = setup(app, depth, bits);
        let module = bespoke_parallel(&qt);
        assert_class(&module, &tree_inputs(&qt), &fq, &test, samples, |c| {
            qt.predict(c)
        })
    }

    #[test]
    fn bespoke_parallel_matches_software_tree() -> Result<(), SimError> {
        check_equivalence(Application::Cardio, 4, 8, 150)?;
        check_equivalence(Application::Pendigits, 6, 8, 100)?;
        check_equivalence(Application::Har, 4, 4, 100)?;
        Ok(())
    }

    #[test]
    fn bespoke_parallel_crushes_conventional_parallel() {
        // Fig. 7: the EGT averages are 3.9× delay, 48.9× area, 75.6×
        // power. Check we land in the right decade for one benchmark.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qt, _, _) = setup(Application::Cardio, 4, 8);
        let conv = analyze(&gen_conv(&ParallelTreeSpec::conventional(4)), &lib);
        let besp = analyze(&bespoke_parallel(&qt), &lib);
        let area_x = conv.area.ratio(besp.area);
        let power_x = conv.power.ratio(besp.power);
        let delay_x = conv.delay.ratio(besp.delay);
        assert!(area_x > 10.0, "area improvement only {area_x}x");
        assert!(power_x > 15.0, "power improvement only {power_x}x");
        assert!(delay_x > 1.0, "delay improvement only {delay_x}x");
    }

    #[test]
    fn bespoke_parallel_beats_bespoke_serial_strictly() {
        // §IV-A: "unlike conventional counterparts, parallel bespoke trees
        // are strictly better than serial bespoke trees" (serial pays ROM
        // + mux + multi-cycle latency; parallel folds everything).
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qt, _, _) = setup(Application::Pendigits, 4, 8);
        let par = analyze(&bespoke_parallel(&qt), &lib);
        let (spec, serial) = crate::bespoke::serial_tree::bespoke_serial(&qt);
        let ser = analyze(&serial, &lib);
        assert!(par.area < ser.area);
        assert!(par.power < ser.power);
        assert!(par.latency(1) < ser.latency(spec.depth));
    }

    #[test]
    fn no_registers_survive() {
        let (qt, _, _) = setup(Application::GasId, 4, 8);
        let module = bespoke_parallel(&qt);
        assert_eq!(module.dff_count(), 0);
        assert!(module.is_combinational());
    }

    #[test]
    fn single_leaf_tree_reduces_to_constants() {
        let data = Application::Har.generate(7);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(0));
        let fq = FeatureQuantizer::fit(&data, 8);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let module = bespoke_parallel(&qt);
        assert_eq!(module.gate_count(), 0);
    }
}
