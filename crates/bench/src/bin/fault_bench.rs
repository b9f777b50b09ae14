//! Wall-clock benchmark of the verification hot paths: stuck-at fault
//! grading and miter equivalence checking over the Table-VII-style
//! workload (bespoke depth-4 trees fed their own test-set vectors).
//!
//! Prints faults/sec and vectors/sec and writes a
//! `bench/out/BENCH_fault.json` report (path overridable with `--json`)
//! so before/after numbers for the lane-parallel verification engine are
//! one `cargo run` away:
//!
//! ```text
//! cargo run --release -p bench --bin fault_bench -- [--json PATH]
//! ```
//!
//! The report carries the unified [`obs`] `report` section; see
//! `docs/observability.md`.

use serde::Serialize;

use bench::workloads::{tree_test_vectors, SEED};
use ml::synth::Application;
use printed_core::flow::{TreeArch, TreeFlow};

/// One fault-graded workload in the report.
#[derive(Serialize)]
struct WorkloadResult {
    name: String,
    faults: usize,
    vectors: usize,
    seconds: f64,
    faults_per_sec: f64,
    coverage: f64,
}

/// The `BENCH_fault.json` report.
#[derive(Serialize)]
struct Report {
    workloads: Vec<WorkloadResult>,
    /// Unified observability report (`obs-report-v1`).
    report: obs::Report,
}

fn main() {
    let mut json_path = "bench/out/BENCH_fault.json".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
                eprintln!("usage: fault_bench [--json PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    obs::reset();
    let root_span = obs::span("fault_bench");

    let mut workloads = Vec::new();
    for app in [Application::Har, Application::Cardio] {
        let flow = TreeFlow::new(app, 4, SEED);
        let module = flow.module(TreeArch::BespokeParallel).expect("digital");
        let vectors = tree_test_vectors(&flow, 150);
        let (cov, secs) = exec::time(|| netlist::try_fault_coverage(&module, &vectors));
        let cov = cov.expect("combinational tree");
        println!(
            "{}: {} faults x {} vectors in {:.3}s ({:.0} faults/sec), coverage {:.3}",
            app.name(),
            cov.total,
            vectors.len(),
            secs,
            cov.total as f64 / secs,
            cov.coverage(),
        );
        workloads.push(WorkloadResult {
            name: app.name().to_string(),
            faults: cov.total,
            vectors: vectors.len(),
            seconds: secs,
            faults_per_sec: cov.total as f64 / secs,
            coverage: cov.coverage(),
        });
    }
    drop(root_span);
    let obs_report = obs::report();
    eprint!("{}", obs_report.text_summary());

    let report = Report {
        workloads,
        report: obs_report,
    };
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
