//! Functional simulation of gate-level modules.
//!
//! [`Simulator`] levelizes a [`Module`] once (topological order over its
//! combinational gates and ROM macros) and then evaluates it: `set` input
//! ports, `settle` combinational logic, `get` outputs, and `step` a clock
//! edge for sequential designs like the serial decision tree.
//!
//! Simulation is the verification backbone of this reproduction: every
//! generated classifier netlist is checked bit-for-bit against the software
//! model that generated it (see the `printed-core` tests and the
//! workspace-level property tests).

use pdk::CellKind;

use crate::error::{check_width, SimError};
use crate::graph::{Graph, Item};
use crate::ir::{Module, Signal};

/// A levelized functional simulator over one module.
///
/// ```
/// use netlist::builder::NetlistBuilder;
/// use netlist::sim::Simulator;
///
/// let mut b = NetlistBuilder::new("xor");
/// let x = b.input("x", 2);
/// let y = b.xor(x[0], x[1]);
/// b.output("y", &[y]);
/// let m = b.finish();
///
/// let mut sim = Simulator::try_new(&m)?;
/// sim.try_set("x", 0b10)?;
/// sim.settle();
/// assert_eq!(sim.try_get("y")?, 1);
/// # Ok::<(), netlist::SimError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'m> {
    module: &'m Module,
    values: Vec<bool>,
    /// Current Q of each gate slot (only meaningful for DFFs).
    state: Vec<bool>,
    order: Vec<Item>,
}

impl<'m> Simulator<'m> {
    /// Levelizes `module` and initializes flip-flops to their `init`
    /// values, reporting validation failures and combinational cycles as
    /// [`SimError`].
    pub fn try_new(module: &'m Module) -> Result<Self, SimError> {
        let order = Graph::new(module)?.order()?;
        let mut sim = Simulator {
            module,
            values: vec![false; module.net_count()],
            state: vec![false; module.gates.len()],
            order,
        };
        sim.reset();
        Ok(sim)
    }

    /// Drives input port `name` with the little-endian bits of `value`,
    /// reporting an unknown name as [`SimError::UnknownPort`] and a port
    /// wider than 64 bits as [`SimError::PortTooWide`].
    pub fn try_set(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        let Some(port) = self.module.input(name) else {
            return Err(SimError::UnknownPort {
                direction: "input",
                name: name.to_string(),
            });
        };
        check_width(name, port.bits.len())?;
        // Graph::new has rejected constant input-port bits.
        for (i, net) in port.bits.iter().filter_map(|s| s.net()).enumerate() {
            self.values[net.index()] = (value >> i) & 1 == 1;
        }
        Ok(())
    }

    /// Propagates all combinational logic (one levelized pass).
    pub fn settle(&mut self) {
        let module = self.module;
        // Publish flip-flop state onto Q nets first.
        for (i, gate) in module.gates.iter().enumerate() {
            if gate.kind.is_sequential() {
                self.values[gate.output.index()] = self.state[i];
            }
        }
        for idx in 0..self.order.len() {
            let item = self.order[idx];
            let inputs = item.inputs(module);
            // A gate drives bit 0 of the word, a ROM one bit per data net.
            let word = match item {
                Item::Gate(i) => u64::from(self.eval_gate(module.gates[i].kind, inputs)),
                Item::Rom(i) => {
                    let addr = (0..).zip(inputs).fold(0usize, |addr, (bit, &sig)| {
                        addr | usize::from(self.read(sig)) << bit
                    });
                    module.roms[i].read(addr)
                }
            };
            for (bit, net) in item.outputs(module).iter().enumerate() {
                self.values[net.index()] = (word >> bit) & 1 == 1;
            }
        }
    }

    /// Settles, then advances one clock edge (captures every DFF's D input).
    pub fn step(&mut self) {
        self.settle();
        let module = self.module;
        for (i, g) in module.gates.iter().enumerate() {
            if g.kind.is_sequential() {
                self.state[i] = self.read(g.inputs[0]);
            }
        }
    }

    /// Resets all flip-flops to their power-on values.
    pub fn reset(&mut self) {
        for (i, gate) in self.module.gates.iter().enumerate() {
            if gate.kind.is_sequential() {
                self.state[i] = gate.init;
            }
        }
    }

    /// Reads output port `name` as a little-endian word, reporting an
    /// unknown name as [`SimError::UnknownPort`] and a port wider than 64
    /// bits as [`SimError::PortTooWide`].
    pub fn try_get(&self, name: &str) -> Result<u64, SimError> {
        let Some(port) = self.module.output(name) else {
            return Err(SimError::UnknownPort {
                direction: "output",
                name: name.to_string(),
            });
        };
        check_width(name, port.bits.len())?;
        let mut v = 0u64;
        for (i, sig) in port.bits.iter().enumerate() {
            if self.read(*sig) {
                v |= 1 << i;
            }
        }
        Ok(v)
    }

    /// Reads a single signal's current value.
    pub fn read(&self, sig: Signal) -> bool {
        match sig {
            Signal::Const(b) => b,
            Signal::Net(n) => self.values[n.index()],
        }
    }

    fn eval_gate(&self, kind: CellKind, inputs: &[Signal]) -> bool {
        let a = self.read(inputs[0]);
        match kind {
            CellKind::Inv => !a,
            CellKind::Buf => a,
            CellKind::Nand2 => !(a & self.read(inputs[1])),
            CellKind::Nor2 => !(a | self.read(inputs[1])),
            CellKind::And2 => a & self.read(inputs[1]),
            CellKind::Or2 => a | self.read(inputs[1]),
            CellKind::Xor2 => a ^ self.read(inputs[1]),
            CellKind::Xnor2 => !(a ^ self.read(inputs[1])),
            CellKind::Mux2 => {
                if a {
                    self.read(inputs[2])
                } else {
                    self.read(inputs[1])
                }
            }
            CellKind::Dff => unreachable!("DFFs are evaluated by step()"),
            CellKind::RomBit | CellKind::RomDot => {
                unreachable!("ROM bits live inside ROM macros")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use pdk::rom::RomStyle;

    #[test]
    fn all_gate_functions() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("gates");
        let x = b.input("x", 2);
        let outs = vec![
            b.not(x[0]),
            b.buf(x[0]),
            b.and(x[0], x[1]),
            b.or(x[0], x[1]),
            b.nand(x[0], x[1]),
            b.nor(x[0], x[1]),
            b.xor(x[0], x[1]),
            b.xnor(x[0], x[1]),
        ];
        b.output("o", &outs);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        for v in 0..4u64 {
            sim.try_set("x", v)?;
            sim.settle();
            let (a, bb) = (v & 1 == 1, v & 2 == 2);
            let expect = [
                !a,
                a,
                a & bb,
                a | bb,
                !(a & bb),
                !(a | bb),
                a ^ bb,
                !(a ^ bb),
            ];
            for (i, e) in expect.into_iter().enumerate() {
                assert_eq!((sim.try_get("o")? >> i) & 1 == 1, e, "v={v} out={i}");
            }
        }
        Ok(())
    }

    #[test]
    fn mux_selects() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("mux");
        let x = b.input("x", 3); // sel, a, b
        let o = b.mux(x[0], x[1], x[2]);
        b.output("o", &[o]);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        for v in 0..8u64 {
            sim.try_set("x", v)?;
            sim.settle();
            let (sel, a, bb) = (v & 1 == 1, v & 2 == 2, v & 4 == 4);
            assert_eq!(sim.try_get("o")? == 1, if sel { bb } else { a });
        }
        Ok(())
    }

    #[test]
    fn rom_reads_and_out_of_range_is_zero() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("rom");
        let addr = b.input("a", 2);
        let data = b.rom(&addr, vec![5, 9, 14], 4, RomStyle::Crossbar);
        b.output("d", &data);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        for (a, want) in [(0u64, 5u64), (1, 9), (2, 14), (3, 0)] {
            sim.try_set("a", a)?;
            sim.settle();
            assert_eq!(sim.try_get("d")?, want);
        }
        Ok(())
    }

    #[test]
    fn shift_register_walks_a_one() -> Result<(), SimError> {
        // The serial decision tree's node pointer: a shift register seeded
        // with 1 that shifts the comparison result in at the LSB.
        let mut b = NetlistBuilder::new("shift");
        let d = b.input("d", 1);
        let q0 = b.dff(d[0], true);
        let q1 = b.dff(q0, false);
        let q2 = b.dff(q1, false);
        b.output("q", &[q0, q1, q2]);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        sim.try_set("d", 0)?;
        sim.settle();
        assert_eq!(sim.try_get("q")?, 0b001);
        sim.step();
        sim.settle();
        assert_eq!(sim.try_get("q")?, 0b010);
        sim.step();
        sim.settle();
        assert_eq!(sim.try_get("q")?, 0b100);
        sim.reset();
        sim.settle();
        assert_eq!(sim.try_get("q")?, 0b001);
        Ok(())
    }

    #[test]
    fn try_apis_report_errors_instead_of_panicking() {
        let m = crate::graph::tests::and_buf_loop();
        assert_eq!(
            Simulator::try_new(&m).err(),
            Some(SimError::CombinationalCycle {
                module: "loop".into(),
                net: 1
            })
        );

        let mut b = NetlistBuilder::new("ok");
        let x = b.input("x", 1);
        let y = b.not(x[0]);
        b.output("y", &[y]);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m).unwrap();
        assert_eq!(
            sim.try_set("nope", 1),
            Err(SimError::UnknownPort {
                direction: "input",
                name: "nope".into()
            })
        );
        sim.try_set("x", 0).unwrap();
        sim.settle();
        assert_eq!(sim.try_get("y"), Ok(1));
        assert_eq!(
            sim.try_get("nope"),
            Err(SimError::UnknownPort {
                direction: "output",
                name: "nope".into()
            })
        );
    }

    #[test]
    fn ports_wider_than_64_bits_are_rejected() -> Result<(), SimError> {
        // Bit 64 of a u64 value does not exist: driving it would alias
        // bit 0 in release and overflow the shift in debug.
        let mut b = NetlistBuilder::new("wide");
        let x = b.input("x", 65);
        let y = b.input("y", 1);
        b.output("o", &x);
        b.output("p", &y);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        let too_wide = |port: &str| SimError::PortTooWide {
            port: port.into(),
            bits: 65,
        };
        assert_eq!(sim.try_set("x", 1), Err(too_wide("x")));
        assert_eq!(sim.try_get("o"), Err(too_wide("o")));
        sim.try_set("y", 1)?;
        sim.settle();
        assert_eq!(sim.try_get("p")?, 1);
        Ok(())
    }

    #[test]
    fn deep_ripple_chains_do_not_overflow_the_stack() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("deep");
        let x = b.input("x", 1);
        let mut s = x[0];
        for _ in 0..50_000 {
            s = b.not(s);
        }
        b.output("o", &[s]);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        sim.try_set("x", 1)?;
        sim.settle();
        assert_eq!(sim.try_get("o")?, 1); // even number of inversions
                                          // Timing and logic depth walk the same chain.
        assert_eq!(crate::stats::max_logic_levels(&m), 50_000);
        let lib = pdk::CellLibrary::for_technology(pdk::Technology::Egt);
        let expect = lib.delay(CellKind::Inv).as_secs() * 50_000.0;
        let delay = crate::analysis::analyze(&m, &lib).delay.as_secs();
        assert!(
            (delay - expect).abs() <= expect * 1e-9,
            "{delay} vs {expect}"
        );
        Ok(())
    }
}
