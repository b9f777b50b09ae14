//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <design_sweep|warm_replay|signoff|all> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --pin      # regenerate pinned_digests.txt at seed 7
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use perfbench::digest::{render_pins, PINNED_FILE};
use perfbench::harness::{self, Config, Size, WorkloadKind};
use perfbench::seeds::DEFAULT_SEED;

const USAGE: &str = "usage: perfbench --workload <design_sweep|warm_replay|signoff|all> \
                     [--seed N] [--seconds S] [--trace 0|1] | perfbench --pin";

/// Set-up repetitions per run (the median is reported as `setup_s`).
const SETUP_REPEATS: usize = 3;

struct Args {
    workloads: Vec<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    WorkloadKind::ALL.to_vec()
                } else {
                    vec![WorkloadKind::parse(&v).ok_or(format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--pin" => args.pin = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() && !args.pin {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs one round of every workload at the default seed and rewrites the
/// pinned-digest file from its outputs.
fn pin() -> Result<(), String> {
    let mut pins = BTreeMap::new();
    for kind in WorkloadKind::ALL {
        let outcome = harness::run(&Config {
            kind,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            setup_repeats: 1,
            size: Size::Full,
            check_pins: false,
        })?;
        if !outcome.correct() {
            return Err(format!("{}: {:?}", kind.name(), outcome.failures));
        }
        for (key, digest) in outcome.digests {
            if let Some(old) = pins.insert(key.clone(), digest) {
                if old != digest {
                    return Err(format!("{key}: workloads disagree on its output"));
                }
            }
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(PINNED_FILE);
    std::fs::write(&path, render_pins(&pins)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("pinned {} job digests to {}", pins.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.pin {
        return match pin() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pin failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "perfbench seed={} seconds={} trace={} pool_threads={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut results = Vec::new();
    for kind in args.workloads {
        let cfg = Config {
            kind,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            setup_repeats: SETUP_REPEATS,
            size: Size::Full,
            check_pins: true,
        };
        let outcome = match harness::run(&cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        };
        for line in harness::report_lines(&outcome) {
            println!("{line}");
        }
        if args.trace {
            let path = perfbench::design::scratch_root().join(format!(
                "trace-{}-seed{}.jsonl",
                kind.name(),
                args.seed
            ));
            let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
                .and_then(|()| std::fs::write(&path, &outcome.spans_jsonl));
            match written {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => eprintln!("  could not write {}: {e}", path.display()),
            }
        }
        results.push(harness::result_json(&outcome, args.trace));
    }
    for r in results {
        println!("{r}");
    }
    ExitCode::SUCCESS
}
