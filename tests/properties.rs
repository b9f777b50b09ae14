//! Property-based tests over the core invariants of the reproduction.
//!
//! * hardware/software equivalence holds for *arbitrary* trained models,
//!   not just the seven benchmark datasets;
//! * the logic optimizer never changes a circuit's function;
//! * quantization is monotone;
//! * constant multipliers agree with integer multiplication for any
//!   coefficient.
//!
//! Each property runs over a fixed batch of pseudo-random cases drawn
//! from per-case deterministic seed streams (`exec::task_seed`), so a
//! failure reproduces exactly from the printed case index.

use exec::rng::StdRng;
use exec::task_seed;

use printed_ml::core::bespoke::{bespoke_parallel, bespoke_svm};
use printed_ml::core::lookup::{lookup_parallel, LookupConfig};
use printed_ml::ml::quant::{FeatureQuantizer, QuantizedSvm, QuantizedTree};
use printed_ml::ml::tree::{DecisionTree, TreeParams};
use printed_ml::ml::{Dataset, SvmRegressor};
use printed_ml::netlist::arith::const_multiply;
use printed_ml::netlist::builder::NetlistBuilder;
use printed_ml::netlist::ir::Signal;
use printed_ml::netlist::{optimize, SimError, Simulator};
use printed_ml::pdk::CellKind;

/// Runs `check` on `cases` deterministic pseudo-random cases; a
/// simulator error fails the property with its case index.
fn cases(root: u64, count: u64, mut check: impl FnMut(u64, &mut StdRng) -> Result<(), SimError>) {
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(task_seed(root, i));
        if let Err(e) = check(i, &mut rng) {
            panic!("case {i}: {e}");
        }
    }
}

/// Scalar reference responses of output `o` to values on input `x`.
fn scalar_responses(scalar: &mut Simulator, xs: &[u64]) -> Result<Vec<u64>, SimError> {
    xs.iter()
        .map(|&x| {
            scalar.try_set("x", x)?;
            scalar.settle();
            scalar.try_get("o")
        })
        .collect()
}

/// A small random labelled dataset (2-4 features, 2-4 classes).
fn random_dataset(rng: &mut StdRng) -> Dataset {
    let n_features = rng.gen_range(2usize..=4);
    let n_classes = rng.gen_range(2usize..=4);
    let n_samples = rng.gen_range(20usize..=60);
    let mut x = Vec::with_capacity(n_samples);
    let mut y = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let label = rng.gen_range(0usize..n_classes);
        let row: Vec<f64> = (0..n_features)
            .map(|f| rng.gen_range(-2.0f64..2.0) + (label as f64) * 0.4 * ((f % 2) as f64))
            .collect();
        x.push(row);
        y.push(label);
    }
    Dataset::new("prop", x, y, n_classes)
}

/// A random combinational DAG mixing constants and nets.
fn random_circuit(
    rng: &mut StdRng,
    n_gates: usize,
    n_inputs: usize,
    n_outputs: usize,
) -> printed_ml::netlist::Module {
    let mut b = NetlistBuilder::new("random");
    let inputs = b.input("x", n_inputs);
    let mut pool: Vec<Signal> = inputs.clone();
    pool.push(Signal::ZERO);
    pool.push(Signal::ONE);
    let kinds = [
        CellKind::Inv,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Buf,
    ];
    for _ in 0..n_gates {
        let kind = kinds[rng.gen_range(0usize..kinds.len())];
        let ins: Vec<Signal> = (0..kind.input_count())
            .map(|_| pool[rng.gen_range(0usize..pool.len())])
            .collect();
        let out = b.gate(kind, &ins);
        pool.push(out);
    }
    let outs: Vec<Signal> = pool.iter().rev().take(n_outputs).copied().collect();
    b.output("o", &outs);
    b.finish()
}

#[test]
fn bespoke_parallel_equals_model_on_random_datasets() -> Result<(), SimError> {
    cases(0xB15_0001, 24, |case, rng| {
        let data = random_dataset(rng);
        let depth = rng.gen_range(1usize..=4);
        let bits = rng.gen_range(3usize..=8);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&data, bits);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let module = bespoke_parallel(&qt);
        let mut sim = Simulator::try_new(&module)?;
        let used = qt.used_features();
        for row in data.x.iter().take(30) {
            let codes = fq.code_row(row);
            for (slot, &f) in used.iter().enumerate() {
                sim.try_set(&format!("f{slot}"), codes[f])?;
            }
            sim.settle();
            assert_eq!(
                sim.try_get("class")? as usize,
                qt.predict(&codes),
                "case {case}"
            );
        }
        Ok(())
    });
    Ok(())
}

#[test]
fn lookup_tree_equals_model_on_random_datasets() -> Result<(), SimError> {
    cases(0xB15_0002, 24, |case, rng| {
        let data = random_dataset(rng);
        let depth = rng.gen_range(1usize..=4);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&data, 4);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let module = lookup_parallel(&qt, LookupConfig::optimized());
        let mut sim = Simulator::try_new(&module)?;
        let used = qt.used_features();
        for row in data.x.iter().take(30) {
            let codes = fq.code_row(row);
            for (slot, &f) in used.iter().enumerate() {
                sim.try_set(&format!("f{slot}"), codes[f])?;
            }
            sim.settle();
            assert_eq!(
                sim.try_get("class")? as usize,
                qt.predict(&codes),
                "case {case}"
            );
        }
        Ok(())
    });
    Ok(())
}

#[test]
fn bespoke_svm_equals_model_on_random_datasets() -> Result<(), SimError> {
    cases(0xB15_0003, 24, |case, rng| {
        let data = random_dataset(rng);
        let svm = SvmRegressor::fit(&data, 60, 1e-3);
        let fq = FeatureQuantizer::fit(&data, 6);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        let module = bespoke_svm(&qs);
        let mut sim = Simulator::try_new(&module)?;
        for row in data.x.iter().take(25) {
            let codes = fq.code_row(row);
            for &(f, _) in qs.pos_terms().iter().chain(qs.neg_terms()) {
                sim.try_set(&format!("x{f}"), codes[f])?;
            }
            sim.settle();
            assert_eq!(
                sim.try_get("class")? as usize,
                qs.predict(&codes),
                "case {case}"
            );
        }
        Ok(())
    });
    Ok(())
}

#[test]
fn optimizer_preserves_function_of_random_circuits() -> Result<(), SimError> {
    cases(0xB15_0004, 24, |case, rng| {
        let n_gates = rng.gen_range(4usize..40);
        let n_inputs = rng.gen_range(2usize..6);
        let original = random_circuit(rng, n_gates, n_inputs, 4);
        let optimized = optimize(&original);
        assert!(
            optimized.gate_count() <= original.gate_count(),
            "case {case}"
        );
        let mut s0 = Simulator::try_new(&original)?;
        let mut s1 = Simulator::try_new(&optimized)?;
        for v in 0..(1u64 << n_inputs) {
            s0.try_set("x", v)?;
            s1.try_set("x", v)?;
            s0.settle();
            s1.settle();
            assert_eq!(s0.try_get("o")?, s1.try_get("o")?, "case {case} input {v}");
        }
        Ok(())
    });
    Ok(())
}

/// The worklist optimizer must be equivalence-preserving on the module
/// family the flows actually feed it: raw bespoke tree and SVM netlists
/// for arbitrary trained models, checked with the lane-parallel miter
/// (`verify::check_equivalence`) rather than a hand-rolled simulation
/// loop. Seeds come from `exec`'s SplitMix64 task streams, so every case
/// reproduces from its printed index at any thread count.
#[test]
fn optimizer_is_equivalence_preserving_on_bespoke_models() {
    use printed_ml::core::bespoke::{bespoke_parallel_raw, bespoke_svm_raw};
    use printed_ml::netlist::{check_equivalence, Equivalence};
    cases(0xB15_000B, 10, |case, rng| {
        let data = random_dataset(rng);
        let raw = if case % 2 == 0 {
            let depth = rng.gen_range(1usize..=4);
            let bits = rng.gen_range(3usize..=6);
            let tree = DecisionTree::fit(&data, TreeParams::with_depth(depth));
            let fq = FeatureQuantizer::fit(&data, bits);
            bespoke_parallel_raw(&QuantizedTree::from_tree(&tree, &fq))
        } else {
            let svm = SvmRegressor::fit(&data, 60, 1e-3);
            let fq = FeatureQuantizer::fit(&data, 5);
            bespoke_svm_raw(&QuantizedSvm::from_svm(&svm, &fq))
        };
        let optimized = optimize(&raw);
        assert!(optimized.gate_count() <= raw.gate_count(), "case {case}");
        let verdict = check_equivalence(&raw, &optimized, 14, 512).expect("comparable ports");
        match verdict {
            Equivalence::Equivalent { vectors, .. } => {
                assert!(vectors > 0, "case {case}: no vectors tried")
            }
            Equivalence::CounterExample(v) => {
                panic!("case {case}: optimizer changed function at {v:?}")
            }
        }
        Ok(())
    });
}

#[test]
fn quantizer_is_monotone_and_bounded() {
    cases(0xB15_0005, 24, |case, rng| {
        let n_values = rng.gen_range(10usize..40);
        let bits = rng.gen_range(2usize..=12);
        let values: Vec<f64> = (0..n_values).map(|_| rng.gen_range(-1e3f64..1e3)).collect();
        let rows: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let labels = vec![0usize; rows.len()];
        let data = Dataset::new("q", rows, labels, 1);
        let fq = FeatureQuantizer::fit(&data, bits);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let codes: Vec<u64> = sorted.iter().map(|&v| fq.code(0, v)).collect();
        for pair in codes.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "case {case}: quantizer must be monotone"
            );
        }
        assert!(codes.iter().all(|&c| c <= fq.max_code()), "case {case}");
        // Extremes hit the rails.
        assert_eq!(codes[0], 0, "case {case}");
        assert_eq!(*codes.last().unwrap(), fq.max_code(), "case {case}");
        Ok(())
    });
}

#[test]
fn const_multiplier_is_exact_for_any_coefficient() -> Result<(), SimError> {
    cases(0xB15_0006, 40, |case, rng| {
        let k = rng.gen_range(0u64..1000);
        let x = rng.gen_range(0u64..256);
        let mut b = NetlistBuilder::new("cm");
        let xin = b.input("x", 8);
        let p = const_multiply(&mut b, &xin, k);
        b.output("p", &p);
        let m = b.finish();
        let mut sim = Simulator::try_new(&m)?;
        sim.try_set("x", x)?;
        sim.settle();
        let width = m.output("p").unwrap().width().min(63);
        let mask = (1u64 << width) - 1;
        assert_eq!(
            sim.try_get("p")?,
            (x * k) & mask,
            "case {case}: k={k} x={x}"
        );
        Ok(())
    });
    Ok(())
}

/// The lane counts of both compiled kernel widths: a single lane, one
/// bit either side of every word boundary and the full 256 lanes packed
/// into `WideSim<4>`, then every count 1..=64 bound port by port on a
/// `WideSim<1>` — partial words, bit 63 included (the sampled-mode mask
/// bug regression). Each must agree bit-for-bit with the scalar
/// simulator.
#[test]
fn wide_sim_matches_scalar_at_boundary_lane_counts() -> Result<(), SimError> {
    use printed_ml::netlist::{CompiledNetlist, WideSim};
    use std::sync::Arc;
    cases(0xB15_000C, 4, |case, rng| {
        let n_gates = rng.gen_range(8usize..30);
        let n_inputs = rng.gen_range(2usize..6);
        let m = random_circuit(rng, n_gates, n_inputs, 3);
        let compiled = Arc::new(CompiledNetlist::try_compile(&m)?);
        let mut wide: WideSim<4> = WideSim::new(Arc::clone(&compiled));
        let mut narrow: WideSim<1> = WideSim::new(compiled);
        let mut scalar = Simulator::try_new(&m)?;
        for lanes in [1usize, 63, 64, 65, 255, 256] {
            let xs: Vec<u64> = (0..lanes)
                .map(|_| rng.gen_range(0u64..(1u64 << n_inputs)))
                .collect();
            let vectors: Vec<Vec<u64>> = xs.iter().map(|&x| vec![x]).collect();
            let image = wide.try_pack_vectors(&vectors)?;
            wide.try_load_packed(&image)?;
            wide.settle();
            let want = scalar_responses(&mut scalar, &xs)?;
            assert_eq!(
                wide.try_lanes("o", lanes)?,
                want,
                "case {case} lanes={lanes}"
            );
        }
        for lanes in 1usize..=64 {
            let xs: Vec<u64> = (0..lanes)
                .map(|_| rng.gen_range(0u64..(1u64 << n_inputs)))
                .collect();
            narrow.try_set_lanes("x", &xs)?;
            narrow.settle();
            let want = scalar_responses(&mut scalar, &xs)?;
            assert_eq!(
                narrow.try_lanes("o", lanes)?,
                want,
                "case {case} lanes={lanes}"
            );
        }
        Ok(())
    });
    Ok(())
}

/// The compiled engines agree on generated classifier netlists, not only
/// on random circuits: a bespoke depth-4 HAR tree and the conventional
/// SVM-16 datapath (the largest module the harness simulates). A
/// 300-vector stream crosses the 256-lane boundary with a partial word;
/// `WideSim<1>` and `WideSim<4>` must read the same outputs on every
/// vector, and the scalar `Simulator` must agree on the first 64.
#[test]
fn wide_sim_matches_scalar_on_real_designs() -> Result<(), SimError> {
    use printed_ml::core::bespoke::bespoke_parallel_raw;
    use printed_ml::core::conventional::svm::{generate_combinational, SvmSpec};
    use printed_ml::core::flow::TreeFlow;
    use printed_ml::ml::synth::Application;
    use printed_ml::netlist::{CompiledNetlist, Module, WideSim};
    use std::sync::Arc;

    /// Per-vector output rows of `module` on a `WideSim<W>`, loaded one
    /// packed image per `LANES` vectors.
    fn wide_rows<const W: usize>(
        module: &Module,
        compiled: &Arc<CompiledNetlist>,
        vectors: &[Vec<u64>],
    ) -> Result<Vec<Vec<u64>>, SimError> {
        let mut sim: WideSim<W> = WideSim::new(Arc::clone(compiled));
        let mut rows = Vec::with_capacity(vectors.len());
        for chunk in vectors.chunks(WideSim::<W>::LANES) {
            let image = sim.try_pack_vectors(chunk)?;
            sim.try_load_packed(&image)?;
            sim.settle();
            let cols = module
                .outputs
                .iter()
                .map(|p| sim.try_lanes(&p.name, chunk.len()))
                .collect::<Result<Vec<_>, _>>()?;
            rows.extend((0..chunk.len()).map(|lane| cols.iter().map(|c| c[lane]).collect()));
        }
        Ok(rows)
    }

    let tree = bespoke_parallel_raw(&TreeFlow::new(Application::Har, 4, 7).qt);
    let svm16 = generate_combinational(&SvmSpec::conventional(16));
    for (case, module) in [tree, svm16].iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(task_seed(0xB15_000E, case as u64));
        let vectors: Vec<Vec<u64>> = (0..300)
            .map(|_| {
                module
                    .inputs
                    .iter()
                    .map(|p| match p.width() {
                        w if w >= 64 => rng.next_u64(),
                        w => rng.next_u64() & ((1u64 << w) - 1),
                    })
                    .collect()
            })
            .collect();
        let compiled = Arc::new(CompiledNetlist::try_compile(module)?);
        let narrow = wide_rows::<1>(module, &compiled, &vectors)?;
        let wide = wide_rows::<4>(module, &compiled, &vectors)?;
        for (i, (n, w)) in narrow.iter().zip(&wide).enumerate() {
            assert_eq!(
                n, w,
                "{}: vector {i}, WideSim<1> vs WideSim<4>",
                module.name
            );
        }
        let mut scalar = Simulator::try_new(module)?;
        for (i, v) in vectors.iter().take(64).enumerate() {
            for (port, &value) in module.inputs.iter().zip(v) {
                scalar.try_set(&port.name, value)?;
            }
            scalar.settle();
            for (port, &got) in module.outputs.iter().zip(&narrow[i]) {
                assert_eq!(
                    got,
                    scalar.try_get(&port.name)?,
                    "{}: vector {i}, output {} vs the scalar simulator",
                    module.name,
                    port.name
                );
            }
        }
    }
    Ok(())
}

/// In-place fault injection in the compiled kernel must behave exactly
/// like structurally rewriting the netlist (`faults::inject`) and
/// simulating the mutated module scalar-style — at every boundary lane
/// count, for stuck-at-0 and stuck-at-1 sites alike.
#[test]
fn wide_sim_matches_scalar_under_injected_faults() -> Result<(), SimError> {
    use printed_ml::netlist::faults::{fault_sites, inject};
    use printed_ml::netlist::{CompiledNetlist, WideSim};
    use std::sync::Arc;
    cases(0xB15_000D, 3, |case, rng| {
        let n_inputs = rng.gen_range(2usize..5);
        let n_gates = rng.gen_range(8usize..24);
        let m = random_circuit(rng, n_gates, n_inputs, 2);
        let mut wide: WideSim<4> = WideSim::new(Arc::new(CompiledNetlist::try_compile(&m)?));
        let sites = fault_sites(&m);
        // Sample up to 8 sites; the kernel's own unit tests sweep all of
        // them on a fixed circuit, this property varies the circuit.
        let stride = sites.len().div_ceil(8).max(1);
        for fault in sites.iter().step_by(stride) {
            let faulty = inject(&m, *fault);
            let mut scalar = Simulator::try_new(&faulty)?;
            wide.inject_fault(fault.net, fault.stuck_at);
            for lanes in [1usize, 63, 64, 65, 255, 256] {
                let xs: Vec<u64> = (0..lanes)
                    .map(|_| rng.gen_range(0u64..(1u64 << n_inputs)))
                    .collect();
                let vectors: Vec<Vec<u64>> = xs.iter().map(|&x| vec![x]).collect();
                let image = wide.try_pack_vectors(&vectors)?;
                wide.try_load_packed(&image)?;
                wide.settle();
                assert_eq!(
                    wide.try_lanes("o", lanes)?,
                    scalar_responses(&mut scalar, &xs)?,
                    "case {case} fault={fault:?} lanes={lanes}"
                );
            }
            wide.clear_fault();
        }
        Ok(())
    });
    Ok(())
}

/// The verification entry points shard their work over the pool but
/// share one compiled tape; the verdicts (and every counted vector) must
/// be identical at any worker count.
#[test]
fn verification_is_identical_at_1_4_and_8_threads() {
    use printed_ml::exec::with_threads;
    use printed_ml::netlist::{check_equivalence, try_fault_coverage};
    cases(0xB15_000E, 3, |case, rng| {
        let n_inputs = rng.gen_range(3usize..6);
        let n_gates = rng.gen_range(10usize..40);
        let m = random_circuit(rng, n_gates, n_inputs, 3);
        let optimized = optimize(&m);
        let vectors: Vec<Vec<u64>> = (0..96)
            .map(|_| vec![rng.gen_range(0u64..(1u64 << n_inputs))])
            .collect();
        let run = || {
            (
                check_equivalence(&m, &optimized, 10, 300).expect("comparable ports"),
                try_fault_coverage(&m, &vectors),
            )
        };
        let one = with_threads(1, run);
        let four = with_threads(4, run);
        let eight = with_threads(8, run);
        assert_eq!(one, four, "case {case}");
        assert_eq!(one, eight, "case {case}");
        Ok(())
    });
}

#[test]
fn forest_hardware_matches_model_on_random_datasets() -> Result<(), SimError> {
    use printed_ml::core::bespoke_forest;
    use printed_ml::ml::forest::{ForestParams, RandomForest};
    use printed_ml::ml::quant::QuantizedForest;
    cases(0xB15_0008, 16, |case, rng| {
        let data = random_dataset(rng);
        let forest = RandomForest::fit(
            &data,
            ForestParams {
                n_trees: 3,
                tree: TreeParams::with_depth(3),
                seed: 5,
            },
        );
        let fq = FeatureQuantizer::fit(&data, 5);
        let qf = QuantizedForest::from_forest(&forest, &fq);
        let module = bespoke_forest(&qf);
        let mut sim = Simulator::try_new(&module)?;
        for row in data.x.iter().take(20) {
            let codes = fq.code_row(row);
            for &f in &qf.used_features() {
                sim.try_set(&format!("f{f}"), codes[f])?;
            }
            sim.settle();
            assert_eq!(
                sim.try_get("class")? as usize,
                qf.predict(&codes),
                "case {case}"
            );
        }
        Ok(())
    });
    Ok(())
}

#[test]
fn serial_tree_matches_parallel_tree_on_random_datasets() -> Result<(), SimError> {
    use printed_ml::core::bespoke::bespoke_serial;
    cases(0xB15_0009, 16, |case, rng| {
        let data = random_dataset(rng);
        let depth = rng.gen_range(1usize..=3);
        let tree = DecisionTree::fit(&data, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&data, 4);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let parallel = bespoke_parallel(&qt);
        let (spec, serial) = bespoke_serial(&qt);
        let mut psim = Simulator::try_new(&parallel)?;
        let mut ssim = Simulator::try_new(&serial)?;
        let used = qt.used_features();
        for row in data.x.iter().take(20) {
            let codes = fq.code_row(row);
            for (slot, &f) in used.iter().enumerate() {
                psim.try_set(&format!("f{slot}"), codes[f])?;
            }
            psim.settle();
            ssim.reset();
            for (slot, &f) in used.iter().enumerate() {
                ssim.try_set(&format!("f{slot}"), codes[f])?;
            }
            for _ in 0..spec.depth {
                ssim.step();
            }
            ssim.settle();
            assert_eq!(
                psim.try_get("class")?,
                ssim.try_get("class")?,
                "case {case}"
            );
        }
        Ok(())
    });
    Ok(())
}
