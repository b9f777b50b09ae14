//! Lookup-based maximally parallel decision trees (§V-A, Figs. 8–10).
//!
//! Every comparator of the bespoke parallel tree is replaced by one column
//! of a per-feature lookup table: all nodes that test feature `f` share a
//! single ROM addressed by `f`'s code, so the expensive decoder is paid
//! once per feature ("decoder reuse"). Shallow trees have too little
//! sharing to win; deep trees amortize beautifully — exactly Fig. 9's
//! pattern.

use std::collections::HashMap;

use ml::quant::{QNode, QuantizedTree};
use netlist::builder::NetlistBuilder;
use netlist::ir::{Module, Signal};
use netlist::optimize;

use super::{emit_lut, LookupConfig};

fn ceil_log2(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Generates the lookup-based parallel tree (post-optimization).
///
/// Ports are identical to
/// [`crate::bespoke::parallel_tree::bespoke_parallel`]: `f{slot}` per used
/// feature and a `class` output.
pub fn lookup_parallel(tree: &QuantizedTree, config: LookupConfig) -> Module {
    let _span = obs::span("gen.lookup_parallel_tree");
    crate::record_generated(optimize(&lookup_parallel_raw(tree, config)))
}

/// The unoptimized lookup-based parallel tree — the sign-off *reference*
/// the `--verify` flow equivalence-checks [`lookup_parallel`]'s rewritten
/// netlist against.
pub fn lookup_parallel_raw(tree: &QuantizedTree, config: LookupConfig) -> Module {
    let mut b = NetlistBuilder::new("lookup_parallel_tree");
    let used = tree.used_features();
    let feature_ports: Vec<Vec<Signal>> = used
        .iter()
        .enumerate()
        .map(|(slot, _)| b.input(format!("f{slot}"), tree.bits()))
        .collect();
    let class_bits = ceil_log2(tree.n_classes());
    let words = 1usize << tree.bits();

    // Group split nodes by feature: (node index -> column) per feature.
    let mut groups: HashMap<usize, Vec<(usize, u64)>> = HashMap::new();
    for (i, node) in tree.nodes().iter().enumerate() {
        if let QNode::Split {
            feature, threshold, ..
        } = node
        {
            groups.entry(*feature).or_default().push((i, *threshold));
        }
    }

    // One shared-decoder LUT per feature; column j of feature f's table
    // stores `code > τ_j` for that feature's j-th node.
    let mut decision: HashMap<usize, Signal> = HashMap::new();
    let mut features_sorted: Vec<(&usize, &Vec<(usize, u64)>)> = groups.iter().collect();
    features_sorted.sort_by_key(|(f, _)| **f);
    for (feature, nodes) in features_sorted {
        let slot = used
            .iter()
            .position(|f| f == feature)
            .expect("used feature");
        // ROM words carry at most 64 columns; chunk very popular features
        // (each chunk still shares one decoder).
        for chunk in nodes.chunks(64) {
            let contents: Vec<u64> = (0..words as u64)
                .map(|code| {
                    chunk.iter().enumerate().fold(0u64, |acc, (j, &(_, tau))| {
                        acc | (((code > tau) as u64) << j)
                    })
                })
                .collect();
            let outs = emit_lut(&mut b, &feature_ports[slot], &contents, chunk.len(), config);
            for (j, &(node_idx, _)) in chunk.iter().enumerate() {
                decision.insert(node_idx, outs[j]);
            }
        }
    }

    // Class selection mux tree steered by the LUT outputs.
    fn emit(
        b: &mut NetlistBuilder,
        tree: &QuantizedTree,
        node: usize,
        decision: &HashMap<usize, Signal>,
        class_bits: usize,
    ) -> Vec<Signal> {
        match &tree.nodes()[node] {
            QNode::Leaf { class } => b.const_word(*class as u64, class_bits),
            QNode::Split { left, right, .. } => {
                let r = decision[&node];
                let l = emit(b, tree, *left, decision, class_bits);
                let rgt = emit(b, tree, *right, decision, class_bits);
                b.push_region("select");
                let out = b.mux_word(r, &l, &rgt);
                b.pop_region();
                out
            }
        }
    }
    let class = emit(&mut b, tree, 0, &decision, class_bits);
    b.output("class", &class);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bespoke::parallel_tree::bespoke_parallel;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::tree::{DecisionTree, TreeParams};
    use netlist::analyze;
    use netlist::sim::Simulator;
    use netlist::SimError;
    use pdk::{CellLibrary, Technology};

    fn setup(
        app: Application,
        depth: usize,
        bits: usize,
    ) -> (QuantizedTree, FeatureQuantizer, ml::Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedTree::from_tree(&tree, &fq), fq, test)
    }

    fn check_equivalence(
        app: Application,
        depth: usize,
        bits: usize,
        config: LookupConfig,
    ) -> Result<(), SimError> {
        let (qt, fq, test) = setup(app, depth, bits);
        let module = lookup_parallel(&qt, config);
        let mut sim = Simulator::try_new(&module)?;
        let used = qt.used_features();
        for row in test.x.iter().take(100) {
            let codes = fq.code_row(row);
            for (slot, &f) in used.iter().enumerate() {
                sim.try_set(&format!("f{slot}"), codes[f])?;
            }
            sim.settle();
            assert_eq!(sim.try_get("class")? as usize, qt.predict(&codes));
        }
        Ok(())
    }

    #[test]
    fn lookup_tree_matches_software_tree() -> Result<(), SimError> {
        check_equivalence(Application::Pendigits, 6, 4, LookupConfig::baseline())?;
        check_equivalence(Application::Pendigits, 6, 4, LookupConfig::optimized())?;
        check_equivalence(Application::Cardio, 4, 8, LookupConfig::optimized())?;
        Ok(())
    }

    #[test]
    fn deep_trees_benefit_shallow_trees_do_not() {
        // Fig. 9's pattern: decoder reuse needs many comparisons per
        // feature.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (deep, _, _) = setup(Application::Pendigits, 8, 4);
        let (shallow, _, _) = setup(Application::Pendigits, 1, 4);
        let ratio = |qt: &QuantizedTree| {
            let besp = analyze(&bespoke_parallel(qt), &lib);
            let lut = analyze(&lookup_parallel(qt, LookupConfig::optimized()), &lib);
            besp.area.ratio(lut.area)
        };
        let deep_gain = ratio(&deep);
        let shallow_gain = ratio(&shallow);
        assert!(
            deep_gain > shallow_gain,
            "deep {deep_gain} vs shallow {shallow_gain}"
        );
        assert!(deep_gain > 1.0, "deep trees should win: {deep_gain}");
        assert!(
            shallow_gain < 1.0,
            "shallow trees should lose: {shallow_gain}"
        );
    }

    #[test]
    fn optimizations_improve_on_baseline_lookup() {
        // Fig. 10 vs Fig. 9: dots + constant columns increase the area
        // benefit.
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qt, _, _) = setup(Application::Pendigits, 8, 4);
        let base = analyze(&lookup_parallel(&qt, LookupConfig::baseline()), &lib);
        let opt = analyze(&lookup_parallel(&qt, LookupConfig::optimized()), &lib);
        assert!(opt.area < base.area, "opt {} base {}", opt.area, base.area);
        assert!(opt.power <= base.power);
    }

    #[test]
    fn cnt_lookup_saves_power_but_explodes_area() {
        // §V-A: CNT ROM bits are larger than CNT logic but cheaper in
        // power → lookup trees in CNT trade 69× area for 76% power.
        let lib = CellLibrary::for_technology(Technology::CntTft);
        let (qt, _, _) = setup(Application::Pendigits, 8, 4);
        let besp = analyze(&bespoke_parallel(&qt), &lib);
        let lut = analyze(&lookup_parallel(&qt, LookupConfig::baseline()), &lib);
        assert!(lut.area > besp.area * 2.0, "area should blow up in CNT");
        assert!(lut.power < besp.power, "power should improve in CNT");
    }
}
