//! Throughput benchmark of the compiled simulation tape at 64 lanes
//! (`WideSim<1>`) and at 256 lanes (`WideSim<4>`), over two sign-off-grade
//! workloads — the conventional 16-bit SVM datapath (~438 k gates, the
//! largest module the harness ever simulates) and a bespoke depth-4 tree.
//!
//! Both widths replay the same deterministic vector stream and the
//! per-vector outputs are checksummed in vector order, so the run
//! *asserts* bit-identity between them — and against the scalar
//! `netlist::Simulator` reference on the first 64 vectors — before it
//! reports throughput.
//! Prints per-engine vectors/sec and writes a `bench/out/BENCH_sim.json`
//! report (path overridable with `--json`):
//!
//! ```text
//! cargo run --release -p bench --bin sim_bench -- [--smoke] [--json PATH]
//! ```
//!
//! The headline `svm16_vectors_per_sec` (compiled 256-lane kernel on the
//! conventional SVM-16) is what `perf_gate --sim` regresses against. The
//! report carries the unified [`obs`] `report` section; see
//! `docs/observability.md`.

use std::sync::Arc;

use netlist::compile::record_settles;
use netlist::{CompiledNetlist, Module, Simulator, WideSim};
use printed_core::conventional::svm::{generate_combinational as gen_svm_comb, SvmSpec};
use printed_core::flow::TreeFlow;
use serde::Serialize;

use bench::workloads::SEED;

/// One engine's replay of a workload's vector stream.
#[derive(Serialize)]
struct EngineResult {
    /// `compiled-64` or `compiled-256`.
    engine: &'static str,
    /// Vectors evaluated per settle pass.
    lanes: usize,
    vectors: usize,
    seconds: f64,
    vectors_per_sec: f64,
    /// Order-sensitive FNV fold of every output value in vector order —
    /// identical across lane widths by construction (asserted before the
    /// report is written).
    checksum: u64,
}

/// One benchmarked workload.
#[derive(Serialize)]
struct WorkloadResult {
    name: String,
    gates: usize,
    /// One-off tape build (`CompiledNetlist::try_compile`), paid once and
    /// shared by both lane widths.
    compile_seconds: f64,
    engines: Vec<EngineResult>,
}

/// The `BENCH_sim.json` report.
#[derive(Serialize)]
struct Report {
    smoke: bool,
    workloads: Vec<WorkloadResult>,
    /// Headline number: compiled 256-lane throughput on the conventional
    /// SVM-16 netlist (gated by `perf_gate --sim`).
    svm16_vectors_per_sec: f64,
    /// Unified observability report (`obs-report-v1`).
    report: obs::Report,
}

/// Deterministic stimulus: one value per input port per vector, masked
/// to the port width, drawn from a seeded xorshift64 stream so every
/// engine (and every run) replays the identical vectors.
fn gen_vectors(module: &Module, count: usize, seed: u64) -> Vec<Vec<u64>> {
    let masks: Vec<u64> = module
        .inputs
        .iter()
        .map(|p| {
            if p.width() >= 64 {
                u64::MAX
            } else {
                (1u64 << p.width()) - 1
            }
        })
        .collect();
    let mut state = seed | 1;
    let mut draw = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..count)
        .map(|_| masks.iter().map(|m| draw() & m).collect())
        .collect()
}

/// Order-sensitive FNV-1a-style fold of the per-vector output columns
/// (port-major, vector-minor — chunk-size independent).
fn checksum(cols: &[Vec<u64>]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for col in cols {
        for &v in col {
            h = (h ^ v).wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn finish(
    engine: &'static str,
    lanes: usize,
    vectors: usize,
    seconds: f64,
    cols: &[Vec<u64>],
) -> EngineResult {
    let vps = if seconds > 0.0 {
        vectors as f64 / seconds
    } else {
        0.0
    };
    println!("  {engine:<16} {lanes:>4} lanes  {vectors} vectors in {seconds:.3}s ({vps:.0} vectors/sec)");
    EngineResult {
        engine,
        lanes,
        vectors,
        seconds,
        vectors_per_sec: vps,
        checksum: checksum(cols),
    }
}

// The timed region of each engine is load + settle over pre-packed
// images — the replay path verify and fault grading actually drive
// (vectors are packed once and replayed per span / per fault site).
// Transposition and output extraction run outside the timer; outputs
// are still collected per vector for the cross-engine identity check.

/// Replays `vectors` through a `WideSim<W>` over the shared tape,
/// returning the engine's result and its per-output columns.
fn run_compiled<const W: usize>(
    engine: &'static str,
    module: &Module,
    compiled: &Arc<CompiledNetlist>,
    vectors: &[Vec<u64>],
) -> (EngineResult, Vec<Vec<u64>>) {
    let lanes = WideSim::<W>::LANES;
    let mut sim: WideSim<W> = WideSim::new(Arc::clone(compiled));
    let images: Vec<(Vec<[u64; W]>, usize)> = vectors
        .chunks(lanes)
        .map(|c| (sim.try_pack_vectors(c).expect("vector arity"), c.len()))
        .collect();
    let mut cols: Vec<Vec<u64>> = vec![Vec::with_capacity(vectors.len()); module.outputs.len()];
    let mut seconds = 0f64;
    for (image, n) in &images {
        let t = std::time::Instant::now();
        sim.try_load_packed(image).expect("image from this tape");
        sim.settle();
        seconds += t.elapsed().as_secs_f64();
        for (col, p) in cols.iter_mut().zip(&module.outputs) {
            col.extend(sim.try_lanes(&p.name, *n).expect("output port"));
        }
    }
    record_settles(images.len() as u64, vectors.len() as u64);
    let result = finish(engine, lanes, vectors.len(), seconds, &cols);
    (result, cols)
}

/// Asserts the first 64 vectors' outputs in `cols` against the scalar
/// reference simulator.
fn assert_scalar_agrees(name: &str, module: &Module, vectors: &[Vec<u64>], cols: &[Vec<u64>]) {
    let mut scalar = Simulator::try_new(module).expect("valid module");
    for (lane, v) in vectors.iter().take(64).enumerate() {
        for (port, &value) in module.inputs.iter().zip(v) {
            scalar.try_set(&port.name, value).expect("input port");
        }
        scalar.settle();
        for (col, p) in cols.iter().zip(&module.outputs) {
            let want = scalar.try_get(&p.name).expect("output port");
            assert_eq!(
                col[lane], want,
                "{name}: output {} of vector {lane} diverges from the scalar simulator",
                p.name
            );
        }
    }
}

fn run_workload(name: &str, module: &Module, vector_count: usize) -> WorkloadResult {
    let vectors = gen_vectors(module, vector_count, SEED ^ name.len() as u64);
    println!(
        "{name}: {} gates, {} vectors",
        module.gates.len(),
        vectors.len()
    );
    let (compiled, compile_seconds) = exec::time(|| {
        Arc::new(CompiledNetlist::try_compile(module).expect("combinational workload"))
    });
    println!(
        "  tape compiled in {compile_seconds:.3}s ({} instructions)",
        compiled.tape_len()
    );
    let (narrow, cols) = run_compiled::<1>("compiled-64", module, &compiled, &vectors);
    let (wide, _) = run_compiled::<4>("compiled-256", module, &compiled, &vectors);
    assert_eq!(
        wide.checksum, narrow.checksum,
        "{name}: compiled-256 outputs diverge from compiled-64"
    );
    assert_scalar_agrees(name, module, &vectors, &cols);
    WorkloadResult {
        name: name.to_string(),
        gates: module.gates.len(),
        compile_seconds,
        engines: vec![narrow, wide],
    }
}

fn main() {
    let mut smoke = false;
    let mut json_path = "bench/out/BENCH_sim.json".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => json_path = path.clone(),
                    None => {
                        eprintln!("--json requires a path");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: sim_bench [--smoke] [--json PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    bench::workloads::set_smoke(smoke);
    obs::reset();
    let root_span = obs::span("sim_bench");

    // Smoke halves the stream rather than gutting it: the headline is a
    // perf-gate input, and anything much shorter times too few settle
    // passes on the big netlist to be stable within the gate's margin.
    let vector_count = if smoke { 8192 } else { 16384 };
    let mut workloads = Vec::new();
    {
        let flow = TreeFlow::new(ml::synth::Application::Har, 4, SEED);
        let tree = printed_core::bespoke::bespoke_parallel_raw(&flow.qt);
        workloads.push(run_workload("har-dt4-bespoke", &tree, vector_count));
    }
    // The conventional SVM-16 datapath (multiplier array + adder tree +
    // class mapper, ~438 k gates) — the largest module the harness ever
    // simulates. The register-free variant is used because the compiled
    // tape is combinational-only; the core is identical.
    let svm16 = gen_svm_comb(&SvmSpec::conventional(16));
    workloads.push(run_workload("conv-svm16", &svm16, vector_count));

    drop(root_span);
    let obs_report = obs::report();
    eprint!("{}", obs_report.text_summary());

    let svm16_result = workloads.last().expect("svm16 ran");
    let svm16_vectors_per_sec = svm16_result.engines[1].vectors_per_sec;
    let report = Report {
        smoke,
        svm16_vectors_per_sec,
        workloads,
        report: obs_report,
    };
    println!(
        "headline: svm-16 at {:.0} vectors/sec on the compiled 256-lane kernel",
        report.svm16_vectors_per_sec
    );
    let body = serde_json::to_string_pretty(&report).expect("serialize report");
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).ok();
        }
    }
    if let Err(err) = std::fs::write(&json_path, body) {
        eprintln!("error: cannot write {json_path}: {err}");
        std::process::exit(1);
    }
    eprintln!("wrote {json_path}");
}
