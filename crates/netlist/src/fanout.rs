//! Fanout analysis and buffer-tree insertion.
//!
//! Printed transistors drive weakly: a net fanning out to dozens of gate
//! inputs (the root comparator of a parallel tree, a shared feature wire)
//! slews painfully. Synthesis flows repair this by inserting buffer trees
//! under a maximum-fanout constraint; this module does the same, so that
//! PPA numbers for high-fanout designs include the repair cost the paper's
//! synthesized netlists implicitly paid.

use pdk::CellKind;

use crate::graph::{Driver, Graph, Reader};
use crate::ir::{Gate, Module, NetId, Signal};

/// Histogram of net fanouts: `result[k]` = number of nets read exactly `k`
/// times (index 0 counts driven-but-unread nets).
///
/// # Panics
/// Panics with the [`crate::SimError`] text if `module` fails
/// [`Module::validate`].
pub fn fanout_histogram(module: &Module) -> Vec<usize> {
    let graph = Graph::new(module).unwrap_or_else(|e| panic!("{e}"));
    let readers = graph.readers();
    let mut hist = vec![0usize];
    // In a valid module every read net is driven, so the driven nets are
    // all the nets there are to count; nets the optimizer retired are not.
    for net in (0..module.net_count).map(NetId) {
        if graph.driver(net) != Driver::Undriven {
            let f = readers.of(net).len();
            if f >= hist.len() {
                hist.resize(f + 1, 0);
            }
            hist[f] += 1;
        }
    }
    hist
}

/// The largest fanout of any net in the module.
pub fn max_fanout(module: &Module) -> usize {
    fanout_histogram(module).len().saturating_sub(1)
}

/// Inserts buffer trees so no net drives more than `limit` readers.
///
/// Readers of an over-driven net are chunked into groups of `limit`, each
/// behind a fresh buffer; the buffers themselves become readers of the
/// source and the process repeats until every net (including the new
/// buffer outputs) obeys the limit. Function is preserved (a buffer is
/// the identity); area, power and delay grow accordingly.
///
/// # Panics
/// Panics if `limit` is zero, or with the [`crate::SimError`] text if
/// `module` fails [`Module::validate`].
pub fn insert_buffers(module: &Module, limit: usize) -> Module {
    assert!(limit >= 1, "fanout limit must be at least 1");
    let mut m = module.clone();
    loop {
        // The most-read net over the limit; ties go to the larger net id,
        // so the buffer tree (and the module's content hash) is fixed.
        let worst = {
            let graph = Graph::new(&m).unwrap_or_else(|e| panic!("{e}"));
            let readers = graph.readers();
            (0..m.net_count)
                .map(NetId)
                .max_by_key(|&n| (readers.of(n).len(), n))
                .map(|n| (n, readers.of(n).to_vec()))
        };
        let Some((net, list)) = worst.filter(|(_, list)| list.len() > limit) else {
            break;
        };
        // Chunk readers behind fresh buffers.
        for chunk in list.chunks(limit) {
            let buf_out = NetId(m.net_count);
            m.net_count += 1;
            m.gates.push(Gate {
                kind: CellKind::Buf,
                inputs: vec![Signal::Net(net)],
                output: buf_out,
                init: false,
                region: 0,
            });
            for reader in chunk {
                let slot = match *reader {
                    Reader::GatePin(gi, pin) => &mut m.gates[gi].inputs[pin],
                    Reader::RomAddr(ri, pin) => &mut m.roms[ri].addr[pin],
                    Reader::OutputBit(pi, pin) => &mut m.outputs[pi].bits[pin],
                };
                *slot = Signal::Net(buf_out);
            }
        }
        // Loop: the buffers themselves may now exceed the limit on `net`
        // (handled next iteration by buffering the buffers).
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::builder::NetlistBuilder;
    use crate::error::SimError;
    use crate::sim::Simulator;
    use pdk::{CellLibrary, Technology};

    /// One input net fanned out to `n` inverters.
    fn fan_module(n: usize) -> Module {
        let mut b = NetlistBuilder::new("fan");
        let x = b.input("x", 1);
        let outs: Vec<Signal> = (0..n).map(|_| b.not(x[0])).collect();
        b.output("o", &outs);
        b.finish()
    }

    #[test]
    fn histogram_and_max_fanout() {
        let m = fan_module(12);
        assert_eq!(max_fanout(&m), 12);
        let hist = fanout_histogram(&m);
        assert_eq!(hist[12], 1); // the input net
        assert_eq!(hist[1], 12); // each inverter output feeds one port bit
    }

    #[test]
    fn histogram_skips_nets_the_optimizer_retired() {
        let mut b = NetlistBuilder::new("node");
        let x = b.input("x", 8);
        let tau = b.const_word(100, 8);
        let le = crate::comb::unsigned_le(&mut b, &x, &tau);
        b.output("le", &[le]);
        let opt = crate::opt::optimize(&b.finish());
        let hist = fanout_histogram(&opt);
        // Only the input bits and the surviving gates' outputs are nets
        // any more; `net_count` still spans the retired ones.
        assert_eq!(hist.iter().sum::<usize>(), 8 + opt.gate_count());
        assert!(opt.net_count() > 8 + opt.gate_count());
        assert_eq!(hist, vec![0, 16]);
    }

    #[test]
    fn insertion_enforces_the_limit() {
        let m = fan_module(33);
        let repaired = insert_buffers(&m, 4);
        assert!(
            max_fanout(&repaired) <= 4,
            "max fanout {}",
            max_fanout(&repaired)
        );
        // 33 readers -> 9 leaf buffers -> 3 mid buffers -> 1 top... the
        // exact count depends on chunking; just require buffers exist.
        assert!(repaired.gates_of(CellKind::Buf).count() >= 9);
    }

    #[test]
    fn insertion_preserves_function() -> Result<(), SimError> {
        let m = fan_module(20);
        let repaired = insert_buffers(&m, 3);
        let mut s0 = Simulator::try_new(&m)?;
        let mut s1 = Simulator::try_new(&repaired)?;
        for v in 0..2u64 {
            s0.try_set("x", v)?;
            s1.try_set("x", v)?;
            s0.settle();
            s1.settle();
            assert_eq!(s0.try_get("o")?, s1.try_get("o")?, "v={v}");
        }
        Ok(())
    }

    #[test]
    fn insertion_costs_area_and_delay() {
        let lib = CellLibrary::for_technology(Technology::Egt);
        let m = fan_module(30);
        let repaired = insert_buffers(&m, 4);
        let before = analyze(&m, &lib);
        let after = analyze(&repaired, &lib);
        assert!(after.area > before.area);
        assert!(after.delay > before.delay);
    }

    #[test]
    fn compliant_modules_are_untouched() {
        let m = fan_module(3);
        let repaired = insert_buffers(&m, 4);
        assert_eq!(m.gate_count(), repaired.gate_count());
    }

    #[test]
    fn sequential_nets_are_buffered_too() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("seqfan");
        let x = b.input("x", 1);
        let q = b.dff(x[0], false);
        let outs: Vec<Signal> = (0..10).map(|_| b.not(q)).collect();
        b.output("o", &outs);
        let m = b.finish();
        let repaired = insert_buffers(&m, 2);
        assert!(max_fanout(&repaired) <= 2);
        // Behaviour across a clock edge is preserved.
        let mut s0 = Simulator::try_new(&m)?;
        let mut s1 = Simulator::try_new(&repaired)?;
        s0.try_set("x", 1)?;
        s1.try_set("x", 1)?;
        s0.step();
        s1.step();
        s0.settle();
        s1.settle();
        assert_eq!(s0.try_get("o")?, s1.try_get("o")?);
        Ok(())
    }
}
