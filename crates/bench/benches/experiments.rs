//! Micro-benchmarks: one per table/figure kernel plus the core
//! generator-pipeline stages, on a std-only harness (`harness = false`;
//! the previous Criterion harness lived on an unreachable registry).
//!
//! These measure the *reproduction machinery* (training, netlist
//! generation, logic optimization, PPA analysis, simulation) on reduced
//! workloads; the full-fidelity table/figure outputs come from the
//! `bench` binaries (`cargo run --release -p bench --bin repro_all`).
//!
//! Each kernel is warmed up once, then run for a fixed minimum wall
//! time; the reported figure is the mean wall-clock time per iteration.
//! Pass a substring argument to run matching kernels only, e.g.
//! `cargo bench -p bench -- lookup`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use analog::tree::{AnalogTree, AnalogTreeConfig};
use bench::workloads::quick_apps;
use ml::quant::{FeatureQuantizer, QuantizedTree};
use ml::synth::Application;
use ml::tree::{DecisionTree, TreeParams};
use netlist::{analyze, optimize, Simulator};
use pdk::{CellLibrary, Technology};
use printed_core::bespoke::{bespoke_parallel, bespoke_svm};
use printed_core::conventional::parallel_tree::{generate as gen_parallel, ParallelTreeSpec};
use printed_core::conventional::serial_tree::{
    generate as gen_serial, SerialTreeProgram, SerialTreeSpec,
};
use printed_core::conventional::svm::{generate as gen_svm, SvmSpec};
use printed_core::flow::{SvmArch, SvmFlow, TreeArch, TreeFlow};
use printed_core::lookup::{lookup_parallel, LookupConfig};

/// Runs `f` repeatedly for at least `MIN_RUN` after one warmup call and
/// prints mean time per iteration.
fn bench(filter: &str, name: &str, mut f: impl FnMut()) {
    const MIN_RUN: Duration = Duration::from_millis(300);
    if !name.contains(filter) {
        return;
    }
    f(); // warmup
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < MIN_RUN {
        f();
        iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    let formatted = if per_iter >= 1.0 {
        format!("{per_iter:.3} s")
    } else if per_iter >= 1e-3 {
        format!("{:.3} ms", per_iter * 1e3)
    } else {
        format!("{:.3} µs", per_iter * 1e6)
    };
    println!("{name:<40} {formatted:>12}/iter  ({iters} iters)");
}

fn fitted_tree(app: Application, depth: usize, bits: usize) -> (QuantizedTree, FeatureQuantizer) {
    let data = app.generate(7);
    let (train, _) = data.split(0.7, 42);
    let tree = DecisionTree::fit(&train, TreeParams::with_depth(depth));
    let fq = FeatureQuantizer::fit(&train, bits);
    (QuantizedTree::from_tree(&tree, &fq), fq)
}

fn main() {
    // Cargo invokes bench targets with `--bench`; anything else is a
    // name filter.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_default();
    let lib = CellLibrary::for_technology(Technology::Egt);

    bench(&filter, "table1_component_ppa", || {
        black_box(bench::experiments::table1());
    });

    bench(&filter, "table2_training_kernel", || {
        for app in quick_apps() {
            let data = app.generate(7);
            let (train, _) = data.split(0.7, 42);
            let t = DecisionTree::fit(&train, TreeParams::with_depth(4));
            black_box(t.comparison_count());
        }
    });

    bench(&filter, "table3_serial_engine", || {
        let spec = SerialTreeSpec::conventional(4);
        let prog = SerialTreeProgram {
            threshold_rom: vec![0; 1 << 5],
            class_rom: vec![0; 1 << 4],
        };
        black_box(analyze(&gen_serial(&spec, &prog), &lib));
    });

    bench(&filter, "table4_parallel_engine", || {
        black_box(analyze(
            &gen_parallel(&ParallelTreeSpec::conventional(4)),
            &lib,
        ));
    });

    bench(&filter, "table5_svm_engine", || {
        let spec = SvmSpec {
            width: 8,
            n_features: 32,
            n_boundaries: 5,
        };
        black_box(analyze(&gen_svm(&spec), &lib));
    });

    {
        let flow = TreeFlow::new(Application::Har, 2, 7);
        let report = flow.report(TreeArch::BespokeParallel, Technology::Egt);
        bench(&filter, "fig3_fig19_feasibility", || {
            black_box(report.feasibility());
        });
    }

    {
        let (qt, _) = fitted_tree(Application::Cardio, 4, 8);
        bench(&filter, "fig6_bespoke_serial", || {
            black_box(printed_core::bespoke::bespoke_serial(&qt));
        });
        bench(&filter, "fig7_bespoke_parallel", || {
            black_box(bespoke_parallel(&qt));
        });
    }

    {
        let (qt, _) = fitted_tree(Application::Pendigits, 6, 4);
        bench(&filter, "fig9_lookup_tree_baseline", || {
            black_box(lookup_parallel(&qt, LookupConfig::baseline()));
        });
        bench(&filter, "fig10_lookup_tree_optimized", || {
            black_box(lookup_parallel(&qt, LookupConfig::optimized()));
        });
    }

    {
        let flow = SvmFlow::new(Application::RedWine, 7);
        bench(&filter, "fig11_bespoke_svm", || {
            black_box(bespoke_svm(&flow.qs));
        });
        bench(&filter, "fig12_fig13_lookup_svm", || {
            black_box(
                flow.module(SvmArch::Lookup(LookupConfig::optimized()))
                    .unwrap(),
            );
        });
    }

    {
        let (qt, fq) = fitted_tree(Application::Har, 4, 6);
        let data = Application::Har.generate(7);
        let codes = fq.code_row(&data.x[0]);
        bench(&filter, "fig16_analog_tree", || {
            let at = AnalogTree::from_tree(&qt, AnalogTreeConfig::default());
            black_box(at.predict(&codes));
        });
        let svm = SvmFlow::new(Application::RedWine, 7);
        bench(&filter, "fig17_analog_svm", || {
            black_box(svm.report(SvmArch::Analog, Technology::Egt));
        });
    }

    {
        let (qt, fq) = fitted_tree(Application::Har, 4, 4);
        let module = bespoke_parallel(&qt);
        let data = Application::Har.generate(7);
        let used = qt.used_features();
        let vectors: Vec<Vec<u64>> = data
            .x
            .iter()
            .take(128)
            .map(|row| {
                let codes = fq.code_row(row);
                used.iter().map(|&f| codes[f]).collect()
            })
            .collect();
        bench(&filter, "verify_batch_simulate_128_vectors", || {
            let compiled = netlist::CompiledNetlist::try_compile(&module).expect("combinational");
            let mut sim: netlist::WideSim<1> = netlist::WideSim::new(std::sync::Arc::new(compiled));
            for chunk in vectors.chunks(64) {
                for (pi, port) in module.inputs.iter().enumerate() {
                    let lanes: Vec<u64> = chunk.iter().map(|v| v[pi]).collect();
                    sim.try_set_lanes(&port.name, &lanes).expect("input port");
                }
                sim.settle();
                black_box(sim.try_lanes("class", chunk.len()).expect("class port"));
            }
        });
        bench(&filter, "verify_fault_coverage", || {
            black_box(netlist::try_fault_coverage(&module, &vectors[..32]).expect("combinational"));
        });
        let optimized = optimize(&module);
        bench(&filter, "verify_equivalence_sampled", || {
            black_box(netlist::check_equivalence(&module, &optimized, 8, 128).expect("ports"));
        });
    }

    {
        let (qt, fq) = fitted_tree(Application::Pendigits, 6, 8);
        let module = bespoke_parallel(&qt);
        bench(&filter, "pipeline_optimize", || {
            black_box(optimize(&module));
        });
        bench(&filter, "pipeline_analyze", || {
            black_box(analyze(&module, &lib));
        });
        let data = Application::Pendigits.generate(7);
        let used = qt.used_features();
        bench(&filter, "pipeline_simulate_100_inferences", || {
            let mut sim = Simulator::try_new(&module).expect("valid module");
            for row in data.x.iter().take(100) {
                let codes = fq.code_row(row);
                for (slot, &f) in used.iter().enumerate() {
                    sim.try_set(&format!("f{slot}"), codes[f])
                        .expect("input port");
                }
                sim.settle();
                black_box(sim.try_get("class").expect("class port"));
            }
        });
    }
}
