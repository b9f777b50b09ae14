//! Combinational building blocks: comparators, decoders, one-hot selection.
//!
//! These are the structural generators the classifier architectures are
//! assembled from. The magnitude comparator here is the per-node decision
//! element of every digital decision tree in the paper; the decoder is the
//! expensive part of ROM lookups whose *reuse* across comparisons makes
//! lookup-based trees profitable.

use crate::builder::NetlistBuilder;
use crate::ir::Signal;

/// Unsigned ripple magnitude comparator: returns `a > b`.
///
/// Built LSB-first: `gt_i = (a_i & !b_i) | (a_i ⊙ b_i) & gt_{i-1}`, one
/// XNOR + AND/OR pair per bit — the canonical minimal-area form a
/// technology-constrained synthesis run produces.
///
/// # Panics
/// Panics if the operands differ in width or are empty.
pub fn unsigned_gt(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Signal {
    assert_eq!(a.len(), bb.len(), "comparator width mismatch");
    assert!(!a.is_empty(), "comparator over empty words");
    let mut gt = Signal::ZERO;
    for (&ai, &bi) in a.iter().zip(bb) {
        let nb = b.not(bi);
        let here = b.and(ai, nb);
        let eq = b.xnor(ai, bi);
        let carry = b.and(eq, gt);
        gt = b.or(here, carry);
    }
    gt
}

/// Unsigned comparator: returns `a <= b` (the decision-tree branch test
/// `x_k <= τ_j`).
pub fn unsigned_le(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Signal {
    let gt = unsigned_gt(b, a, bb);
    b.not(gt)
}

/// Unsigned comparator: returns `a < b`.
pub fn unsigned_lt(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Signal {
    unsigned_gt(b, bb, a)
}

/// Unsigned comparator: returns `a >= b`.
pub fn unsigned_ge(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Signal {
    let lt = unsigned_lt(b, a, bb);
    b.not(lt)
}

/// Word equality: `a == b`.
pub fn equals(b: &mut NetlistBuilder, a: &[Signal], bb: &[Signal]) -> Signal {
    assert_eq!(a.len(), bb.len(), "equality width mismatch");
    let bits: Vec<Signal> = a.iter().zip(bb).map(|(&x, &y)| b.xnor(x, y)).collect();
    b.and_reduce(&bits)
}

/// Binary-to-one-hot decoder: output `i` is high iff `addr == i`.
///
/// Shares one inverter rank across all 2^n word lines and builds an AND
/// tree per line — the structure whose cost is amortized by "decoder
/// reuse" in lookup-based classifiers (§V).
pub fn decoder(b: &mut NetlistBuilder, addr: &[Signal]) -> Vec<Signal> {
    assert!(!addr.is_empty(), "decoder over empty address");
    let inverted: Vec<Signal> = addr.iter().map(|&s| b.not(s)).collect();
    let lines = 1usize << addr.len();
    (0..lines)
        .map(|i| {
            let terms: Vec<Signal> = addr
                .iter()
                .enumerate()
                .map(|(bit, &s)| {
                    if (i >> bit) & 1 == 1 {
                        s
                    } else {
                        inverted[bit]
                    }
                })
                .collect();
            b.and_reduce(&terms)
        })
        .collect()
}

/// One-hot word selection: OR of AND-masked words.
///
/// `select[i]` gates `words[i]`; exactly one select is expected high. Used
/// for class-label readout in parallel trees, where the one-hot leaf
/// condition vector picks the class word.
///
/// # Panics
/// Panics on length/width mismatches or empty inputs.
pub fn onehot_select(
    b: &mut NetlistBuilder,
    select: &[Signal],
    words: &[Vec<Signal>],
) -> Vec<Signal> {
    assert_eq!(select.len(), words.len(), "one select line per word");
    assert!(!words.is_empty(), "onehot_select over no words");
    let width = words[0].len();
    assert!(
        words.iter().all(|w| w.len() == width),
        "onehot_select width mismatch"
    );
    (0..width)
        .map(|bit| {
            let masked: Vec<Signal> = select
                .iter()
                .zip(words)
                .map(|(&s, w)| b.and(s, w[bit]))
                .collect();
            b.or_reduce(&masked)
        })
        .collect()
}

/// Priority encoder over `lines` (LSB has priority): returns the binary
/// index of the lowest set line.
pub fn priority_encode(b: &mut NetlistBuilder, lines: &[Signal]) -> Vec<Signal> {
    assert!(!lines.is_empty(), "priority encoder over no lines");
    let out_bits = if lines.len() <= 1 {
        1
    } else {
        (usize::BITS - (lines.len() - 1).leading_zeros()) as usize
    };
    // valid_i = line_i & !line_{i-1} & ... & !line_0
    let mut blocked = Signal::ZERO; // any earlier line set
    let mut firsts = Vec::with_capacity(lines.len());
    for &line in lines {
        let nb = b.not(blocked);
        firsts.push(b.and(line, nb));
        blocked = b.or(blocked, line);
    }
    (0..out_bits)
        .map(|bit| {
            let contributors: Vec<Signal> = firsts
                .iter()
                .enumerate()
                .filter(|(i, _)| (i >> bit) & 1 == 1)
                .map(|(_, &s)| s)
                .collect();
            if contributors.is_empty() {
                Signal::ZERO
            } else {
                b.or_reduce(&contributors)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::sim::Simulator;

    fn check2<F>(width: usize, build: F, expect: impl Fn(u64, u64) -> u64) -> Result<(), SimError>
    where
        F: Fn(&mut NetlistBuilder, &[Signal], &[Signal]) -> Signal,
    {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", width);
        let bb = b.input("b", width);
        let out = build(&mut b, &a, &bb);
        b.output("o", &[out]);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        for x in 0..(1u64 << width) {
            for y in 0..(1u64 << width) {
                sim.try_set("a", x)?;
                sim.try_set("b", y)?;
                sim.settle();
                assert_eq!(sim.try_get("o")?, expect(x, y), "x={x} y={y}");
            }
        }
        Ok(())
    }

    #[test]
    fn gt_le_lt_ge_exhaustive_4bit() -> Result<(), SimError> {
        check2(4, unsigned_gt, |x, y| (x > y) as u64)?;
        check2(4, unsigned_le, |x, y| (x <= y) as u64)?;
        check2(4, unsigned_lt, |x, y| (x < y) as u64)?;
        check2(4, unsigned_ge, |x, y| (x >= y) as u64)?;
        Ok(())
    }

    #[test]
    fn equality_exhaustive_3bit() -> Result<(), SimError> {
        check2(3, equals, |x, y| (x == y) as u64)?;
        Ok(())
    }

    #[test]
    fn decoder_is_one_hot() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a", 3);
        let lines = decoder(&mut b, &a);
        b.output("o", &lines);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        for v in 0..8u64 {
            sim.try_set("a", v)?;
            sim.settle();
            assert_eq!(sim.try_get("o")?, 1 << v);
        }
        Ok(())
    }

    #[test]
    fn onehot_select_picks_the_right_word() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("t");
        let sel = b.input("sel", 4);
        let words: Vec<Vec<Signal>> = (0..4).map(|i| b.const_word(10 + i, 6)).collect();
        let out = onehot_select(&mut b, &sel, &words);
        b.output("o", &out);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        for i in 0..4 {
            sim.try_set("sel", 1 << i)?;
            sim.settle();
            assert_eq!(sim.try_get("o")?, 10 + i as u64);
        }
        Ok(())
    }

    #[test]
    fn priority_encoder_prefers_lsb() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("t");
        let lines = b.input("l", 5);
        let idx = priority_encode(&mut b, &lines);
        b.output("o", &idx);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        for v in 1..32u64 {
            sim.try_set("l", v)?;
            sim.settle();
            assert_eq!(
                sim.try_get("o")?,
                v.trailing_zeros() as u64,
                "lines={v:05b}"
            );
        }
        Ok(())
    }

    #[test]
    fn comparator_gate_count_is_linear() {
        let count = |w: usize| {
            let mut b = NetlistBuilder::new("t");
            let a = b.input("a", w);
            let bb = b.input("b", w);
            let o = unsigned_gt(&mut b, &a, &bb);
            b.output("o", &[o]);
            b.finish().gate_count()
        };
        assert_eq!(count(8) - count(4), count(12) - count(8));
    }
}
