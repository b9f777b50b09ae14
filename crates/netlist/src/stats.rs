//! Structural statistics: logic depth per output, level histograms.
//!
//! Printed designs are latency-dominated by logic depth (every level is a
//! millisecond in EGT), so "how many levels deep is each output" is the
//! first question a designer asks of a generated netlist.

use crate::graph::Graph;
use crate::ir::{Module, Signal};

/// Logic levels (gate counts along the longest path) per output port bit.
///
/// Inputs, constants and flip-flop outputs are depth 0; every gate adds
/// one level; a ROM macro adds one level. Returns `(port name, bit,
/// levels)` rows.
///
/// # Panics
/// Panics with the [`crate::SimError`] text if `module` fails
/// [`Module::validate`] or has a combinational cycle.
pub fn logic_levels(module: &Module) -> Vec<(String, usize, usize)> {
    let order = Graph::new(module)
        .and_then(|g| g.order())
        .unwrap_or_else(|e| panic!("{e}"));
    let mut depth = vec![0usize; module.net_count()];
    let level = |depth: &[usize], sig: &Signal| sig.net().map_or(0, |n| depth[n.index()]);
    for item in order {
        let d = 1 + item
            .inputs(module)
            .iter()
            .map(|s| level(&depth, s))
            .max()
            .unwrap_or(0);
        for out in item.outputs(module) {
            depth[out.index()] = d;
        }
    }
    let mut rows = Vec::new();
    for port in &module.outputs {
        for (bit, sig) in port.bits.iter().enumerate() {
            rows.push((port.name.clone(), bit, level(&depth, sig)));
        }
    }
    rows
}

/// The deepest logic level of any output.
pub fn max_logic_levels(module: &Module) -> usize {
    logic_levels(module)
        .into_iter()
        .map(|(_, _, d)| d)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn chain_depth_counts_gates() {
        let mut b = NetlistBuilder::new("chain");
        let x = b.input("x", 1);
        let mut s = x[0];
        for _ in 0..7 {
            s = b.not(s);
        }
        b.output("o", &[s]);
        b.output("direct", &[x[0]]);
        let m = b.finish();
        let rows = logic_levels(&m);
        assert!(rows.contains(&("o".to_string(), 0, 7)));
        assert!(rows.contains(&("direct".to_string(), 0, 0)));
        assert_eq!(max_logic_levels(&m), 7);
    }

    #[test]
    fn roms_add_one_level() {
        use pdk::RomStyle;
        let mut b = NetlistBuilder::new("r");
        let a = b.input("a", 2);
        let inv: Vec<_> = a.iter().map(|&s| b.not(s)).collect();
        let d = b.rom(&inv, vec![0, 1, 2, 3], 2, RomStyle::Crossbar);
        b.output("d", &d);
        let m = b.finish();
        assert_eq!(max_logic_levels(&m), 2); // inverter + ROM
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn cyclic_modules_are_reported_not_walked_forever() {
        logic_levels(&crate::graph::tests::and_buf_loop());
    }

    #[test]
    fn constants_are_level_zero() {
        let mut b = NetlistBuilder::new("c");
        let _x = b.input("x", 1);
        b.output("k", &[crate::ir::Signal::ONE]);
        let m = b.finish();
        assert_eq!(max_logic_levels(&m), 0);
    }

    #[test]
    fn optimized_bespoke_trees_are_shallow() {
        use crate::comb::unsigned_le;
        use crate::opt::optimize;
        let mut b = NetlistBuilder::new("node");
        let x = b.input("x", 8);
        let tau = b.const_word(100, 8);
        let le = unsigned_le(&mut b, &x, &tau);
        b.output("le", &[le]);
        let raw = b.finish();
        let opt = optimize(&raw);
        assert!(max_logic_levels(&opt) <= max_logic_levels(&raw));
    }
}
