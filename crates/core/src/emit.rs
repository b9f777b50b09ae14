//! The two shared datapath emitters behind the bespoke, lookup, forest
//! and serial generators.
//!
//! A §V lookup design is the §IV bespoke design with its comparators and
//! multipliers swapped for shared-decoder LUTs, and §III's random forest
//! is parallel trees plus a vote. So each datapath is written once:
//!
//! * [`tree_classes`] — parallel trees against shared feature ports, with
//!   per-node comparators ([`ForestStyle::Bespoke`]) or one LUT per
//!   feature across every tree ([`ForestStyle::Lookup`]). It serves the
//!   bespoke and lookup parallel trees and both forest styles.
//! * [`svm_engine`] — the parallel SVM: live-feature ports, the `P`/`N`
//!   adder trees over constant or LUT products, and the boundary class
//!   mapper. The serial SVM reuses its ports ([`svm_ports`]), bounds
//!   ([`svm_cmp_width`]) and class mapper ([`class_map`]).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ml::quant::{QNode, QuantizedSvm, QuantizedTree};
use netlist::arith::{add, adder_tree, const_multiply};
use netlist::builder::NetlistBuilder;
use netlist::comb::unsigned_gt;
use netlist::ir::{Module, Signal};

use crate::conventional::svm::popcount;
use crate::ensemble::ForestStyle;
use crate::lookup::{emit_lut, LookupConfig};

/// Bits needed to encode `n` distinct values (at least one).
pub(crate) fn ceil_log2(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Input ports keyed by original feature index.
pub(crate) type Ports = HashMap<usize, Vec<Signal>>;

/// A single parallel tree engine: `f{slot}` ports for the used features
/// (slot order = [`QuantizedTree::used_features`]) and a `class` output.
pub(crate) fn tree_engine(name: &str, tree: &QuantizedTree, style: ForestStyle) -> Module {
    let mut b = NetlistBuilder::new(name);
    let ports: Ports = tree
        .used_features()
        .into_iter()
        .enumerate()
        .map(|(slot, f)| (f, b.input(format!("f{slot}"), tree.bits())))
        .collect();
    let trees = std::slice::from_ref(tree);
    let classes = tree_classes(&mut b, trees, &ports, style, ceil_log2(tree.n_classes()));
    b.output("class", &classes[0]);
    b.finish()
}

/// Emits every tree of `trees` concurrently against the shared feature
/// `ports` and returns each tree's `class_bits`-wide class word.
///
/// Split decisions are hardwired comparators (`Bespoke`, region
/// `compare`) or columns of one shared-decoder LUT per feature covering
/// the thresholds of *all* trees (`Lookup`; at most 64 columns per ROM,
/// so very popular features take several). A mux tree per tree (region
/// `select`) then picks the leaf class.
pub(crate) fn tree_classes(
    b: &mut NetlistBuilder,
    trees: &[QuantizedTree],
    ports: &Ports,
    style: ForestStyle,
    class_bits: usize,
) -> Vec<Vec<Signal>> {
    let luts = match style {
        ForestStyle::Bespoke => None,
        ForestStyle::Lookup(config) => Some(lut_decisions(b, trees, ports, config)),
    };
    trees
        .iter()
        .enumerate()
        .map(|(ti, tree)| select(b, tree, ti, 0, ports, luts.as_ref(), class_bits))
        .collect()
}

/// The class-select recursion: leaves are constant class words, splits
/// mux their subtrees on the node's decision (`luts[(tree, node)]`, or a
/// fresh comparator when there are no LUTs).
fn select(
    b: &mut NetlistBuilder,
    tree: &QuantizedTree,
    ti: usize,
    node: usize,
    ports: &Ports,
    luts: Option<&HashMap<(usize, usize), Signal>>,
    class_bits: usize,
) -> Vec<Signal> {
    match &tree.nodes()[node] {
        QNode::Leaf { class } => b.const_word(*class as u64, class_bits),
        QNode::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let r = match luts {
                Some(luts) => luts[&(ti, node)],
                None => {
                    let x = &ports[feature];
                    let tau = b.const_word(*threshold, x.len());
                    b.push_region("compare");
                    let r = unsigned_gt(b, x, &tau);
                    b.pop_region();
                    r
                }
            };
            let l = select(b, tree, ti, *left, ports, luts, class_bits);
            let rgt = select(b, tree, ti, *right, ports, luts, class_bits);
            b.push_region("select");
            let out = b.mux_word(r, &l, &rgt);
            b.pop_region();
            out
        }
    }
}

/// One shared-decoder LUT per feature (ascending feature order): column
/// `j` of feature `f`'s table stores `code > τ_j` for the `j`-th split
/// node testing `f`, counted over the trees in order. Returns each split
/// node's decision keyed by `(tree, node)`.
fn lut_decisions(
    b: &mut NetlistBuilder,
    trees: &[QuantizedTree],
    ports: &Ports,
    config: LookupConfig,
) -> HashMap<(usize, usize), Signal> {
    let mut groups: BTreeMap<usize, Vec<(usize, usize, u64)>> = BTreeMap::new();
    for (ti, tree) in trees.iter().enumerate() {
        for (ni, node) in tree.nodes().iter().enumerate() {
            if let QNode::Split {
                feature, threshold, ..
            } = node
            {
                groups
                    .entry(*feature)
                    .or_default()
                    .push((ti, ni, *threshold));
            }
        }
    }
    let mut decision = HashMap::new();
    for (feature, nodes) in &groups {
        let x = &ports[feature];
        for chunk in nodes.chunks(64) {
            let contents: Vec<u64> = (0..1u64 << x.len())
                .map(|code| {
                    chunk
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (j, &(_, _, tau))| {
                            acc | (((code > tau) as u64) << j)
                        })
                })
                .collect();
            let outs = emit_lut(b, x, &contents, chunk.len(), config);
            for (&(ti, ni, _), &out) in chunk.iter().zip(&outs) {
                decision.insert((ti, ni), out);
            }
        }
    }
    decision
}

/// One `x{f}` port per live feature (nonzero coefficient), ascending.
pub(crate) fn svm_ports(b: &mut NetlistBuilder, svm: &QuantizedSvm) -> Ports {
    let terms = svm.pos_terms().iter().chain(svm.neg_terms());
    let live: BTreeSet<usize> = terms.map(|&(f, _)| f).collect();
    live.into_iter()
        .map(|f| (f, b.input(format!("x{f}"), svm.bits())))
        .collect()
}

/// Width of the `P`/`N` sums and boundary comparisons: enough for the
/// largest `P` and for `N` plus the largest boundary magnitude, plus one.
pub(crate) fn svm_cmp_width(svm: &QuantizedSvm) -> usize {
    let max_code = (1u128 << svm.bits()) - 1;
    let bound =
        |terms: &[(usize, u64)]| -> u128 { terms.iter().map(|&(_, m)| m as u128 * max_code).sum() };
    let max_b = svm
        .boundaries()
        .iter()
        .map(|&v| v.unsigned_abs() as u128)
        .max()
        .unwrap_or(0);
    let max_val = bound(svm.pos_terms())
        .max(bound(svm.neg_terms()) + max_b)
        .max(1);
    (128 - max_val.leading_zeros() as usize) + 1
}

/// The parallel SVM engine: [`svm_ports`], one product per term —
/// hardwired [`const_multiply`] (`lut = None`) or a product LUT mapping
/// the feature code to `m · code` — summed into the `P` and `N` adder
/// trees, then [`class_map`].
pub(crate) fn svm_engine(name: &str, svm: &QuantizedSvm, lut: Option<LookupConfig>) -> Module {
    let mut b = NetlistBuilder::new(name);
    let ports = svm_ports(&mut b, svm);
    let cmp_width = svm_cmp_width(svm);
    let max_code = (1u64 << svm.bits()) - 1;
    let sum = |b: &mut NetlistBuilder, terms: &[(usize, u64)]| -> Vec<Signal> {
        if terms.is_empty() {
            return b.const_word(0, cmp_width);
        }
        let products: Vec<Vec<Signal>> = terms
            .iter()
            .map(|&(f, m)| match lut {
                None => const_multiply(b, &ports[&f], m),
                Some(config) => {
                    let bits = (64 - (m * max_code).leading_zeros() as usize).max(1);
                    let contents: Vec<u64> = (0..=max_code).map(|code| m * code).collect();
                    emit_lut(b, &ports[&f], &contents, bits, config)
                }
            })
            .collect();
        let mut sum = adder_tree(b, &products);
        sum.resize(cmp_width, Signal::ZERO);
        sum
    };
    let p = sum(&mut b, svm.pos_terms());
    let n = sum(&mut b, svm.neg_terms());
    class_map(&mut b, &p, &n, svm.boundaries());
    b.finish()
}

/// The boundary class mapper over equal-width sums `p` and `n`: one
/// thermometer bit `P − N > B_c` per boundary, kept unsigned by adding
/// `|B_c|` to the side it would be subtracted from, then the popcount
/// class. Emits the `class` and `therm` outputs (a constant zero bit each
/// when there are no boundaries).
pub(crate) fn class_map(b: &mut NetlistBuilder, p: &[Signal], n: &[Signal], boundaries: &[i64]) {
    let width = p.len();
    let therm: Vec<Signal> = boundaries
        .iter()
        .map(|&boundary| {
            let bconst = b.const_word(boundary.unsigned_abs(), width);
            let (mut lhs, mut rhs) = if boundary >= 0 {
                (p.to_vec(), add(b, n, &bconst))
            } else {
                (add(b, p, &bconst), n.to_vec())
            };
            lhs.resize(width + 1, Signal::ZERO);
            rhs.resize(width + 1, Signal::ZERO);
            unsigned_gt(b, &lhs, &rhs)
        })
        .collect();
    let (class, therm) = if therm.is_empty() {
        (vec![Signal::ZERO], vec![Signal::ZERO])
    } else {
        (popcount(b, &therm), therm)
    };
    b.output("class", &class);
    b.output("therm", &therm);
}

/// Seed-7 train/test fixtures and a row driver shared by the generator
/// unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use ml::data::Standardizer;
    use ml::quant::{FeatureQuantizer, QuantizedForest, QuantizedSvm, QuantizedTree};
    use ml::synth::Application;
    use ml::tree::{DecisionTree, TreeParams};
    use ml::{Dataset, SvmRegressor};
    use netlist::sim::Simulator;
    use netlist::{Module, SimError};

    /// A depth-`depth` tree on `app`'s 70% split, quantized to `bits`.
    pub(crate) fn tree(
        app: Application,
        depth: usize,
        bits: usize,
    ) -> (QuantizedTree, FeatureQuantizer, Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedTree::from_tree(&tree, &fq), fq, test)
    }

    /// A 200-epoch regression SVM on `app`'s standardized 70% split,
    /// quantized to `bits`.
    pub(crate) fn svm(app: Application, bits: usize) -> (QuantizedSvm, FeatureQuantizer, Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let svm = SvmRegressor::fit(&train, 200, 1e-4);
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedSvm::from_svm(&svm, &fq), fq, test)
    }

    /// A parallel tree engine's inputs: `(f{slot}, feature)` per used
    /// feature.
    pub(crate) fn tree_inputs(qt: &QuantizedTree) -> Vec<(String, usize)> {
        let used = qt.used_features().into_iter().enumerate();
        used.map(|(slot, f)| (format!("f{slot}"), f)).collect()
    }

    /// A forest engine's inputs: `(f{f}, f)` per used feature.
    pub(crate) fn forest_inputs(qf: &QuantizedForest) -> Vec<(String, usize)> {
        let used = qf.used_features().into_iter();
        used.map(|f| (format!("f{f}"), f)).collect()
    }

    /// An SVM engine's inputs: `(x{f}, f)` per term.
    pub(crate) fn svm_inputs(qs: &QuantizedSvm) -> Vec<(String, usize)> {
        let terms = qs.pos_terms().iter().chain(qs.neg_terms());
        terms.map(|&(f, _)| (format!("x{f}"), f)).collect()
    }

    /// Runs `module` on the first `rows` coded rows of `test`: reset,
    /// drive each `(port, feature)` input, clock `cycles` edges, settle,
    /// then `check(sim, codes)`.
    pub(crate) fn run_rows(
        module: &Module,
        inputs: &[(String, usize)],
        cycles: usize,
        fq: &FeatureQuantizer,
        test: &Dataset,
        rows: usize,
        mut check: impl FnMut(&mut Simulator, &[u64]) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let mut sim = Simulator::try_new(module)?;
        for row in test.x.iter().take(rows) {
            let codes = fq.code_row(row);
            sim.reset();
            for (port, f) in inputs {
                sim.try_set(port, codes[*f])?;
            }
            for _ in 0..cycles {
                sim.step();
            }
            sim.settle();
            check(&mut sim, &codes)?;
        }
        Ok(())
    }

    /// [`run_rows`] on a combinational engine, asserting its `class`
    /// output equals `predict(codes)` on every row.
    pub(crate) fn assert_class(
        module: &Module,
        inputs: &[(String, usize)],
        fq: &FeatureQuantizer,
        test: &Dataset,
        rows: usize,
        predict: impl Fn(&[u64]) -> usize,
    ) -> Result<(), SimError> {
        run_rows(module, inputs, 0, fq, test, rows, |sim, codes| {
            assert_eq!(sim.try_get("class")? as usize, predict(codes));
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::ceil_log2;

    #[test]
    fn bit_counts_round_up_to_at_least_one() {
        let got = [0, 1, 2, 3, 4, 5, 8, 9, 16, 17].map(ceil_log2);
        assert_eq!(got, [1, 1, 1, 2, 2, 3, 3, 4, 4, 5]);
    }
}
