//! Time-multiplexed (serial) SVM engines — a design-space extension.
//!
//! The paper's SVM engines are fully parallel ("every MAC operation is
//! assigned to its own MAC unit", §III-A.2); its trees, by contrast, come
//! in both serial and parallel flavours. This module completes the 2×2:
//! a serial SVM with **one** multiplier, an accumulator, a coefficient
//! ROM and a feature counter, trading `n_terms` cycles of latency for an
//! `n_terms`-fold reduction in multiplier hardware — the same
//! work-efficiency corner the serial tree occupies.
//!
//! Signed arithmetic stays unsigned the same way the bespoke SVM does:
//! positive- and negative-coefficient terms accumulate into separate
//! registers `P` and `N` (the coefficient ROM carries a sign bit steering
//! an enable), and the boundary comparisons `P > N + B_c` happen
//! combinationally once `done` rises.

use ml::quant::QuantizedSvm;
use netlist::arith::{add, multiply};
use netlist::builder::NetlistBuilder;
use netlist::ir::{Module, Signal};
use netlist::optimize;
use netlist::seq::shift_register;
use pdk::rom::RomStyle;

use crate::emit::{ceil_log2, class_map, svm_cmp_width, svm_ports, Ports};

/// Dimensions of a generated serial SVM engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialSvmInfo {
    /// Cycles per inference (= number of non-zero coefficient terms).
    pub cycles: usize,
    /// Datapath width.
    pub width: usize,
    /// Accumulator width.
    pub acc_width: usize,
}

/// Generates a bespoke **serial** SVM engine for `svm`.
///
/// Ports: `x{f}` inputs for live features, outputs `class`, `therm` and
/// `done`. One inference takes [`SerialSvmInfo::cycles`] clock cycles
/// after reset; `class` is valid when `done` is high. An SVM without
/// nonzero terms takes one cycle and maps `P = N = 0` to its class.
///
/// Returns the module together with its timing info.
pub fn serial_svm(svm: &QuantizedSvm) -> (Module, SerialSvmInfo) {
    let _span = obs::span("gen.serial_svm");
    let width = svm.bits();
    // Term schedule: positives first, then negatives.
    let terms: Vec<(usize, u64, bool)> = svm
        .pos_terms()
        .iter()
        .map(|&(f, m)| (f, m, true))
        .chain(svm.neg_terms().iter().map(|&(f, m)| (f, m, false)))
        .collect();
    let cycles = terms.len().max(1);
    let acc_width = svm_cmp_width(svm);

    let mut b = NetlistBuilder::new("serial_svm");
    let ports = svm_ports(&mut b, svm);

    // Step counter as a one-hot walking shift register (cheap decode, the
    // same trick as the serial tree's node pointer).
    b.push_region("control");
    let step = shift_register(&mut b, Signal::ZERO, cycles + 1, 1);
    // The walking one-hot leaves the register after `cycles` steps, so
    // `done` latches sticky: once the seed reaches the last stage it is
    // ORed into a set-only flip-flop.
    let done_pulse = step[cycles];
    let done_q = b.dff(Signal::ZERO, false);
    let done = b.or(done_pulse, done_q);
    b.set_dff_input(done_q, done);
    b.pop_region();

    let (p_reg, n_reg) = if terms.is_empty() {
        (vec![Signal::ZERO; acc_width], vec![Signal::ZERO; acc_width])
    } else {
        mac(&mut b, &terms, &ports, &step, done, acc_width)
    };

    // Class mapper (combinational, valid when done).
    b.push_region("classmap");
    class_map(&mut b, &p_reg, &n_reg, svm.boundaries());
    b.pop_region();
    b.output("done", &[done]);
    let module = crate::record_generated(optimize(&b.finish()));
    (
        module,
        SerialSvmInfo {
            cycles,
            width,
            acc_width,
        },
    )
}

/// The time-multiplexed MAC over a non-empty term schedule: coefficient
/// ROM, feature mux, one multiplier and the `P`/`N` accumulator
/// registers, which it returns.
fn mac(
    b: &mut NetlistBuilder,
    terms: &[(usize, u64, bool)],
    ports: &Ports,
    step: &[Signal],
    done: Signal,
    acc_width: usize,
) -> (Vec<Signal>, Vec<Signal>) {
    let cycles = terms.len();
    // Coefficient ROM: one word per cycle = [magnitude | sign]; addressed
    // by the binary-encoded step (derived from the one-hot register).
    let coef_bits = terms
        .iter()
        .map(|&(_, m, _)| (64 - m.leading_zeros()) as usize)
        .max()
        .unwrap_or(1)
        .max(1);
    b.push_region("coefficients");
    // Binary step index from one-hot: OR of the one-hot lines per bit.
    let idx: Vec<Signal> = (0..ceil_log2(cycles))
        .map(|bit| {
            let contributors: Vec<Signal> = (0..cycles)
                .filter(|i| (i >> bit) & 1 == 1)
                .map(|i| step[i])
                .collect();
            if contributors.is_empty() {
                Signal::ZERO
            } else {
                b.or_reduce(&contributors)
            }
        })
        .collect();
    let rom_words: Vec<u64> = terms
        .iter()
        .map(|&(_, m, positive)| m | ((positive as u64) << coef_bits))
        .collect();
    let rom_out = b.rom(&idx, rom_words, coef_bits + 1, RomStyle::Crossbar);
    let (coef, sign) = rom_out.split_at(coef_bits);
    let is_positive = sign[0];
    b.pop_region();

    // Feature mux: select the scheduled feature for this cycle.
    b.push_region("feature-mux");
    let words: Vec<Vec<Signal>> = terms.iter().map(|&(f, _, _)| ports[&f].clone()).collect();
    let x = b.mux_tree(&idx, &words);
    b.pop_region();

    // The single multiplier.
    b.push_region("mac");
    let mut product = multiply(b, &x, coef);
    product.resize(acc_width, Signal::ZERO);

    // Two accumulators; the sign bit steers which one updates.
    let p_reg: Vec<Signal> = (0..acc_width).map(|_| b.dff(Signal::ZERO, false)).collect();
    let n_reg: Vec<Signal> = (0..acc_width).map(|_| b.dff(Signal::ZERO, false)).collect();
    let p_sum = add(b, &p_reg, &product);
    let n_sum = add(b, &n_reg, &product);
    // Hold when done; accumulate into the signed side otherwise.
    let not_done = b.not(done);
    let take_p = b.and(is_positive, not_done);
    let negative = b.not(is_positive);
    let take_n = b.and(negative, not_done);
    for (regs, sum, take) in [(&p_reg, p_sum, take_p), (&n_reg, n_sum, take_n)] {
        for (&q, &s) in regs.iter().zip(&sum) {
            let next = b.mux(take, q, s);
            b.set_dff_input(q, next);
        }
    }
    b.pop_region();
    (p_reg, n_reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bespoke::bespoke_svm;
    use crate::emit::fixtures::{run_rows, svm_inputs};
    use ml::data::Standardizer;
    use ml::quant::FeatureQuantizer;
    use ml::synth::Application;
    use ml::SvmRegressor;
    use netlist::analyze;
    use netlist::SimError;
    use pdk::{CellLibrary, Technology};

    fn setup(app: Application, bits: usize) -> (QuantizedSvm, FeatureQuantizer, ml::Dataset) {
        let data = app.generate(7);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let svm = SvmRegressor::fit(&train, 150, 1e-4);
        let fq = FeatureQuantizer::fit(&train, bits);
        (QuantizedSvm::from_svm(&svm, &fq), fq, test)
    }

    /// Runs `qs`'s serial engine to `done` on `rows` rows of `test` and
    /// checks its class against the software SVM.
    fn check_serial(
        qs: &QuantizedSvm,
        fq: &FeatureQuantizer,
        test: &ml::Dataset,
        rows: usize,
    ) -> Result<SerialSvmInfo, SimError> {
        let (module, info) = serial_svm(qs);
        run_rows(
            &module,
            &svm_inputs(qs),
            info.cycles,
            fq,
            test,
            rows,
            |sim, codes| {
                assert_eq!(sim.try_get("done")?, 1, "done after {} cycles", info.cycles);
                assert_eq!(sim.try_get("class")? as usize, qs.predict(codes));
                Ok(())
            },
        )?;
        Ok(info)
    }

    #[test]
    fn serial_svm_matches_software_svm() -> Result<(), SimError> {
        let (qs, fq, test) = setup(Application::RedWine, 6);
        check_serial(&qs, &fq, &test, 60)?;
        Ok(())
    }

    #[test]
    fn termless_svm_builds_a_one_cycle_constant_engine() -> Result<(), SimError> {
        // Zero epochs leave every coefficient at zero: no MAC to
        // schedule, so the class mapper sees P = N = 0.
        let data = Application::RedWine.generate(7);
        let svm = SvmRegressor::fit(&data, 0, 1e-4);
        let fq = FeatureQuantizer::fit(&data, 8);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        assert!(qs.pos_terms().is_empty() && qs.neg_terms().is_empty());
        assert_eq!(check_serial(&qs, &fq, &data, 20)?.cycles, 1);
        Ok(())
    }

    #[test]
    fn serial_svm_trades_area_for_latency() {
        let lib = CellLibrary::for_technology(Technology::Egt);
        let (qs, _, _) = setup(Application::RedWine, 8);
        let parallel = analyze(&bespoke_svm(&qs), &lib);
        let (module, info) = serial_svm(&qs);
        let serial = analyze(&module, &lib);
        // Smaller in logic area (one multiplier instead of n), slower
        // end-to-end.
        assert!(
            serial.logic_area < parallel.logic_area,
            "serial {} vs parallel {}",
            serial.logic_area,
            parallel.logic_area
        );
        assert!(serial.latency(info.cycles) > parallel.latency(1));
    }

    #[test]
    fn done_stays_high_and_class_stays_stable_after_completion() -> Result<(), SimError> {
        let (qs, fq, test) = setup(Application::Har, 4);
        let (module, info) = serial_svm(&qs);
        run_rows(
            &module,
            &svm_inputs(&qs),
            info.cycles,
            &fq,
            &test,
            1,
            |sim, _| {
                let class = sim.try_get("class")?;
                for _ in 0..3 {
                    sim.step();
                    sim.settle();
                    assert_eq!(sim.try_get("done")?, 1, "done must latch");
                    assert_eq!(sim.try_get("class")?, class, "class must hold after done");
                }
                Ok(())
            },
        )
    }
}
