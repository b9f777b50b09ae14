//! Sequential building blocks.
//!
//! The serial decision tree (§III-A.1) tracks its working node in a shift
//! register seeded with 1; each cycle the current comparison result is
//! shifted into the LSB. These helpers build that structure and general
//! word registers.

use crate::builder::NetlistBuilder;
use crate::ir::Signal;

/// A shift register of `len` bits that shifts `d` in at the LSB each cycle.
///
/// `init` provides the little-endian power-on contents (the serial tree
/// seeds it with `1`). Returns the Q bits, LSB first.
pub fn shift_register(b: &mut NetlistBuilder, d: Signal, len: usize, init: u64) -> Vec<Signal> {
    assert!(len >= 1, "shift register needs at least one stage");
    let mut qs = Vec::with_capacity(len);
    let mut input = d;
    for i in 0..len {
        let q = b.dff(input, (init >> i) & 1 == 1);
        qs.push(q);
        input = q;
    }
    qs
}

/// An enable-gated word register: holds its value when `en` is low and
/// captures `d` on the clock edge when `en` is high.
pub fn register_en(b: &mut NetlistBuilder, d: &[Signal], en: Signal, init: u64) -> Vec<Signal> {
    d.iter()
        .enumerate()
        .map(|(i, &bit)| {
            // q = dff(mux(en, q, d)); the DFF is created first with a
            // placeholder D so the feedback mux can reference its Q.
            let q = b.dff(Signal::ZERO, (init >> i) & 1 == 1);
            let dff_index = b.last_gate_index();
            let next = b.mux(en, q, bit);
            b.patch_gate_input(dff_index, 0, next);
            q
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::sim::Simulator;

    #[test]
    fn shift_register_walks() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d", 1);
        let q = shift_register(&mut b, d[0], 4, 0b0001);
        b.output("q", &q);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        sim.try_set("d", 1)?;
        sim.settle();
        assert_eq!(sim.try_get("q")?, 0b0001);
        sim.step();
        sim.settle();
        assert_eq!(sim.try_get("q")?, 0b0011); // 1 shifted in, old bits moved up
        sim.try_set("d", 0)?;
        sim.step();
        sim.settle();
        assert_eq!(sim.try_get("q")?, 0b0110);
        Ok(())
    }

    #[test]
    fn enable_register_holds_and_loads() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("t");
        let d = b.input("d", 4);
        let en = b.input("en", 1);
        let q = register_en(&mut b, &d, en[0], 0);
        b.output("q", &q);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        // en=1 loads d (mux select 1 -> d input).
        sim.try_set("d", 9)?;
        sim.try_set("en", 1)?;
        sim.step();
        sim.settle();
        assert_eq!(sim.try_get("q")?, 9);
        // en=0 holds.
        sim.try_set("d", 3)?;
        sim.try_set("en", 0)?;
        sim.step();
        sim.settle();
        assert_eq!(sim.try_get("q")?, 9);
        // en=1 loads again.
        sim.try_set("en", 1)?;
        sim.step();
        sim.settle();
        assert_eq!(sim.try_get("q")?, 3);
        Ok(())
    }
}
