//! The closed-loop harness shared by every workload: set up, issue the
//! round's jobs one after another until the time budget is spent, check
//! every output, and turn the timings into metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::seeds::DEFAULT_SEED;
use crate::stats::{median, percentile};
use crate::trace::{Trace, JOB_SPAN};

/// Which job family a job belongs to (throughputs are per family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Design-sweep jobs: train, generate and price.
    Design,
    /// Equivalence checks.
    Verify,
    /// Stuck-at fault grading.
    Faults,
    /// Compiling the stream netlist to a simulation tape.
    Compile,
    /// Compiled-simulation vector stream (pack, load, settle, read).
    Stream,
    /// Analog Monte Carlo (compile, bind, analyze).
    MonteCarlo,
}

/// Work a job completed, in the units of the end-to-end throughputs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Priced (model, architecture, technology) reports.
    pub designs: u64,
    /// Vectors evaluated by equivalence checks.
    pub verify_vectors: u64,
    /// Vectors streamed through the compiled simulator.
    pub sim_vectors: u64,
    /// Stuck-at fault sites graded.
    pub fault_sites: u64,
    /// Monte-Carlo trials run.
    pub mc_trials: u64,
}

impl Work {
    fn add(&mut self, o: &Work) {
        self.designs += o.designs;
        self.verify_vectors += o.verify_vectors;
        self.sim_vectors += o.sim_vectors;
        self.fault_sites += o.fault_sites;
        self.mc_trials += o.mc_trials;
    }
}

/// What one job returned.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Digest of every result the job produced.
    pub digest: u64,
    /// Work completed.
    pub work: Work,
    /// False when the job's own verdict failed (an equivalence check
    /// that did not prove equivalence).
    pub passed: bool,
}

/// A job of a round: its stable key (the pinned-digest key) and family.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable identity, e.g. `tree/har/dt4`.
    pub key: String,
    /// Job family.
    pub phase: Phase,
}

/// Seconds spent hashing, encoding and decoding one round's artifacts
/// the way the artifact cache does.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheCosts {
    /// `cache::key_for` over the round's modules and training sets.
    pub key_hash_s: f64,
    /// `serde_json::to_string` over the round's cacheable artifacts.
    pub encode_s: f64,
    /// `serde_json::from_str` of the same encodings.
    pub decode_s: f64,
}

/// A workload, after setup: a fixed list of jobs in seeded order.
pub trait Workload {
    /// The jobs of one round, in the order the client issues them.
    fn jobs(&self) -> &[JobSpec];

    /// Digests computed during setup that every round must reproduce.
    fn reference(&self) -> Option<&[u64]> {
        None
    }

    /// Per-round preparation outside the timed window.
    fn begin_round(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Runs job `job`. With `keep`, retains the job's cacheable
    /// artifacts for [`Workload::cache_costs`].
    fn run_job(&mut self, job: usize, tr: &mut Trace, keep: bool) -> Result<JobOutput, String>;

    /// Per-round clean-up outside the timed window.
    fn end_round(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Measures (and drops) the artifacts kept by the last round.
    fn cache_costs(&mut self) -> CacheCosts {
        CacheCosts::default()
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Design-space sweep with a cold artifact cache.
    DesignSweep,
    /// The same sweep replayed from a filled on-disk cache.
    WarmReplay,
    /// Equivalence, fault grading, simulation stream and Monte Carlo.
    Signoff,
}

impl WorkloadKind {
    /// All workloads, in report order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::DesignSweep,
        WorkloadKind::WarmReplay,
        WorkloadKind::Signoff,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::DesignSweep => "design_sweep",
            WorkloadKind::WarmReplay => "warm_replay",
            WorkloadKind::Signoff => "signoff",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Sizes of a run: the full benchmark or a minimal pass for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark as specified.
    Full,
    /// A few jobs of each family, for the benchmark's own tests.
    Minimal,
}

/// Builds a workload's inputs and state (the timed set-up).
pub fn setup(kind: WorkloadKind, seed: u64, size: Size) -> Result<Box<dyn Workload>, String> {
    Ok(match kind {
        WorkloadKind::DesignSweep => Box::new(crate::design::DesignSweep::cold(seed, size)?),
        WorkloadKind::WarmReplay => Box::new(crate::design::DesignSweep::warm(seed, size)?),
        WorkloadKind::Signoff => Box::new(crate::signoff::Signoff::new(seed, size)?),
    })
}

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Workload to run.
    pub kind: WorkloadKind,
    /// Workload seed.
    pub seed: u64,
    /// Timed-phase budget.
    pub seconds: f64,
    /// Run the traced variant (alternating untraced and traced rounds).
    pub trace: bool,
    /// Times set-up is repeated (the median is reported).
    pub setup_repeats: usize,
    /// Workload size.
    pub size: Size,
    /// Check outputs against the pinned digests at the default seed.
    pub check_pins: bool,
}

/// A named metric with its unit and the sample count behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value was taken over (e.g. `n=352 jobs`).
    pub basis: String,
}

/// End-to-end metrics of the untraced run, in the order `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run (per traced round), in the order
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("ml.data.s", "s"),
    ("ml.fit.s", "s"),
    ("ml.fit.calls", "count"),
    ("ml.cart.split_candidates", "count"),
    ("ml.svm.epochs", "count"),
    ("core.flow.train.s", "s"),
    ("core.flow.train.calls", "count"),
    ("core.generate.s", "s"),
    ("core.generate.calls", "count"),
    ("core.generate.gates", "count"),
    ("netlist.opt.s", "s"),
    ("netlist.opt.gates_in", "count"),
    ("netlist.opt.gates_out", "count"),
    ("netlist.analyze.s", "s"),
    ("netlist.analyze.calls", "count"),
    ("netlist.analyze.gates", "count"),
    ("netlist.compile.s", "s"),
    ("netlist.compile.calls", "count"),
    ("netlist.compile.tape_len", "count"),
    ("netlist.sim.pack.s", "s"),
    ("netlist.sim.settle.s", "s"),
    ("netlist.sim.read.s", "s"),
    ("netlist.sim.vectors", "count"),
    ("netlist.verify.s", "s"),
    ("netlist.verify.checks", "count"),
    ("netlist.verify.vectors", "count"),
    ("netlist.verify.failed", "count"),
    ("netlist.faults.s", "s"),
    ("netlist.faults.sites", "count"),
    ("netlist.faults.detected", "count"),
    ("netlist.faults.vectors", "count"),
    ("analog.variation.compile.s", "s"),
    ("analog.variation.analyze.s", "s"),
    ("analog.variation.trials", "count"),
    ("analog.variation.rows", "count"),
    ("cache.misses", "count"),
    ("cache.disk_hits", "count"),
    ("cache.mem_hits", "count"),
    ("cache.bytes_written", "bytes"),
    ("cache.bytes_read", "bytes"),
    ("cache.stale_drops", "count"),
    ("cache.hit_ratio", "fraction"),
    ("cache.key_hash.s", "s"),
    ("cache.encode.s", "s"),
    ("cache.decode.s", "s"),
    ("exec.busy_s", "s"),
    ("exec.queue_s", "s"),
    ("exec.utilization", "fraction"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.span_coverage", "fraction"),
];

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload run.
    pub kind: WorkloadKind,
    /// Jobs issued (every round).
    pub attempted: u64,
    /// Jobs that errored, panicked, failed their own verdict or
    /// produced a digest other than the expected one.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics ([`END_TO_END`] order) from untraced rounds.
    pub end_to_end: Vec<Metric>,
    /// Error rate and throughputs, printed beside the end-to-end metrics
    /// (not gated: see `extra_metrics`).
    pub extra: Vec<Metric>,
    /// Per-layer metrics ([`PER_LAYER`] order); empty unless traced.
    pub per_layer: Vec<Metric>,
    /// Digest of every job key from the first round (for `--pin`).
    pub digests: BTreeMap<String, u64>,
    /// The traced run's spans as JSON lines (empty unless traced).
    pub spans_jsonl: String,
}

impl Outcome {
    /// True when every job passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Looks a metric up by name in any section.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.extra)
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Counters of one untraced or traced round family.
#[derive(Default)]
struct Tally {
    walls: Vec<f64>,
    job_ms: Vec<f64>,
    phase_s: BTreeMap<Phase, f64>,
    work: Work,
}

/// Peak resident set size of this process in MB (`getrusage`).
pub fn peak_rss_mb() -> f64 {
    // struct rusage on Linux: two timevals, then 14 longs; ru_maxrss
    // (kilobytes) is the first long.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer at least as large as the C
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is valid.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.0[4] as f64 / 1024.0
}

/// Runs one workload end to end and returns its metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    run_with(cfg, || setup(cfg.kind, cfg.seed, cfg.size))
}

/// [`run`] over the workload `make` sets up.
pub fn run_with(
    cfg: &Config,
    mut make: impl FnMut() -> Result<Box<dyn Workload>, String>,
) -> Result<Outcome, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    exec::set_threads(threads);
    obs::set_enabled(false);
    obs::reset();

    let mut setups = Vec::new();
    let mut timed_setup = || -> Result<Box<dyn Workload>, String> {
        let t = Instant::now();
        let w = make()?;
        setups.push(t.elapsed().as_secs_f64());
        Ok(w)
    };
    let mut wl = timed_setup()?;
    for _ in 1..cfg.setup_repeats {
        // Drop the previous copy first so its scratch state is gone
        // before the next set-up is timed.
        drop(wl);
        wl = timed_setup()?;
    }

    let jobs: Vec<JobSpec> = wl.jobs().to_vec();
    // Expected digests: pinned at the default seed; otherwise the set-up's
    // own reference outputs, or else whatever the first round produces.
    let pinned = cfg.check_pins && cfg.seed == DEFAULT_SEED;
    let mut expected: Vec<Option<u64>> = if pinned {
        let pins = crate::digest::pinned();
        jobs.iter().map(|j| pins.get(&j.key).copied()).collect()
    } else if let Some(reference) = wl.reference() {
        reference.iter().map(|&d| Some(d)).collect()
    } else {
        vec![None; jobs.len()]
    };

    let mut tr = Trace::new();
    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures = Vec::new();
    let mut digests = BTreeMap::new();
    let mut costs = None;
    let mut job_id = 0u64;
    obs::reset();
    let start = Instant::now();
    for round in 0.. {
        let enough = round >= 1 && (!cfg.trace || !traced.walls.is_empty());
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let traced_round = cfg.trace && round % 2 == 1;
        wl.begin_round()?;
        obs::set_enabled(traced_round);
        tr.set_on(traced_round);
        if !traced_round {
            assert!(!obs::enabled(), "obs must be off in untraced rounds");
        }
        let keep = traced_round && costs.is_none();
        let tally = if traced_round {
            &mut traced
        } else {
            &mut untraced
        };
        let t_round = Instant::now();
        for (i, spec) in jobs.iter().enumerate() {
            job_id += 1;
            tr.set_job(job_id);
            let t_job = Instant::now();
            let span = tr.begin(JOB_SPAN);
            let result = catch_unwind(AssertUnwindSafe(|| wl.run_job(i, &mut tr, keep)));
            tr.end(span);
            let secs = t_job.elapsed().as_secs_f64();
            tally.job_ms.push(secs * 1e3);
            *tally.phase_s.entry(spec.phase).or_insert(0.0) += secs;
            attempted += 1;
            let verdict = match result {
                Ok(Ok(out)) => {
                    tally.work.add(&out.work);
                    digests.entry(spec.key.clone()).or_insert(out.digest);
                    match expected[i] {
                        _ if !out.passed => Err("verdict failed".to_string()),
                        Some(want) if want != out.digest => Err(format!(
                            "digest {:016x} != expected {want:016x}",
                            out.digest
                        )),
                        Some(_) => Ok(()),
                        None if pinned => Err("no pinned digest".to_string()),
                        None => {
                            expected[i] = Some(out.digest);
                            Ok(())
                        }
                    }
                }
                Ok(Err(e)) => Err(format!("error: {e}")),
                Err(_) => Err("panicked".to_string()),
            };
            if let Err(why) = verdict {
                failed += 1;
                if failures.len() < 10 {
                    failures.push(format!("{} (round {round}): {why}", spec.key));
                }
            }
        }
        tally.walls.push(t_round.elapsed().as_secs_f64());
        obs::set_enabled(false);
        tr.set_on(false);
        wl.end_round()?;
        if keep {
            costs = Some(wl.cache_costs());
        }
    }

    let end_to_end = end_to_end_metrics(&untraced, &setups);
    let extra = extra_metrics(&untraced, attempted, failed);
    let per_layer = if cfg.trace {
        per_layer_metrics(&tr, &traced, &untraced, costs.unwrap_or_default())
    } else {
        Vec::new()
    };
    Ok(Outcome {
        kind: cfg.kind,
        attempted,
        failed,
        failures,
        end_to_end,
        extra,
        per_layer,
        digests,
        spans_jsonl: if cfg.trace {
            tr.to_jsonl()
        } else {
            String::new()
        },
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str, basis: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        basis,
    }
}

fn end_to_end_metrics(t: &Tally, setups: &[f64]) -> Vec<Metric> {
    let rounds = format!(
        "median of {} rounds: {}",
        t.walls.len(),
        t.walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let p50 = percentile(&t.job_ms, 50.0);
    let p90 = percentile(&t.job_ms, 90.0);
    let pct = |p: Option<crate::stats::Percentile>| {
        p.map_or((0.0, "n=0 jobs".to_string()), |p| {
            (
                p.value,
                format!("n={} jobs, {} beyond", p.samples, p.beyond),
            )
        })
    };
    let (p50, p50_basis) = pct(p50);
    let (p90, p90_basis) = pct(p90);
    vec![
        metric("wall_s", median(&t.walls), "s", rounds),
        metric(
            "setup_s",
            median(setups),
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        metric("job_p50_ms", p50, "ms", p50_basis),
        metric("job_p90_ms", p90, "ms", p90_basis),
        metric("peak_rss_mb", peak_rss_mb(), "MB", "process peak".into()),
    ]
}

/// Metrics printed beside the end-to-end ones but not gated: the error
/// rate (also the result line's `failed`/`attempted`; a gated metric
/// must be non-zero) and the throughputs that exist on one workload only.
fn extra_metrics(t: &Tally, attempted: u64, failed: u64) -> Vec<Metric> {
    let mut out = vec![metric(
        "error_rate",
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        },
        "fraction",
        format!("{failed}/{attempted} jobs"),
    )];
    let timed: f64 = t.walls.iter().sum();
    let phase = |p: &[Phase]| -> f64 { p.iter().filter_map(|p| t.phase_s.get(p)).sum() };
    let jobs = t.job_ms.len();
    let rate = |name, count: u64, secs: f64, unit, what: &str| {
        metric(
            name,
            if secs > 0.0 { count as f64 / secs } else { 0.0 },
            unit,
            format!("{count} {what} in {secs:.3} s over {jobs} jobs"),
        )
    };
    let w = &t.work;
    if w.designs > 0 {
        out.push(rate(
            "designs_per_s",
            w.designs,
            timed,
            "designs/s",
            "designs",
        ));
    }
    if w.verify_vectors > 0 {
        let s = phase(&[Phase::Verify]);
        out.push(rate(
            "verify_vectors_per_s",
            w.verify_vectors,
            s,
            "vectors/s",
            "vectors",
        ));
    }
    if w.sim_vectors > 0 {
        let s = phase(&[Phase::Stream]);
        out.push(rate(
            "sim_vectors_per_s",
            w.sim_vectors,
            s,
            "vectors/s",
            "vectors",
        ));
    }
    if w.fault_sites > 0 {
        let s = phase(&[Phase::Faults]);
        out.push(rate(
            "fault_sites_per_s",
            w.fault_sites,
            s,
            "sites/s",
            "sites",
        ));
    }
    if w.mc_trials > 0 {
        let s = phase(&[Phase::MonteCarlo]);
        out.push(rate(
            "mc_trials_per_s",
            w.mc_trials,
            s,
            "trials/s",
            "trials",
        ));
    }
    out
}

/// Total seconds and calls of the obs spans directly under the
/// benchmark's `core.flow.train` obs span (the fits a flow ran).
fn nested_fits() -> (f64, u64) {
    let report = obs::report();
    report
        .spans
        .iter()
        .filter(|s| s.name == "core.flow.train")
        .flat_map(|s| &s.children)
        .filter(|c| c.name.starts_with("ml."))
        .fold((0.0, 0), |(s, n), c| (s + c.total_s, n + c.calls))
}

fn per_layer_metrics(
    tr: &Trace,
    traced: &Tally,
    untraced: &Tally,
    costs: CacheCosts,
) -> Vec<Metric> {
    let rounds = traced.walls.len().max(1) as f64;
    let selfs = tr.self_times();
    let secs = |name: &str| selfs.get(name).map_or(0.0, |s| s.seconds);
    let calls = |name: &str| selfs.get(name).map_or(0, |s| s.calls) as f64;
    let obs_count = |name: &str| obs::counter_value(name) as f64;
    let (fit_nested_s, fit_nested_calls) = nested_fits();
    let opt_s = obs_count("netlist.opt.ns") * 1e-9;
    let hits = obs_count("cache.mem_hits") + obs_count("cache.disk_hits");
    let lookups = hits + obs_count("cache.misses");
    let capacity = obs_count("exec.capacity_ns");
    let traced_wall: f64 = traced.walls.iter().sum();

    // Per traced round, except the ratios and the trace.* summaries.
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut per_round = |name: &str, total: f64| {
        values.insert(name.to_string(), total / rounds);
    };
    for span in [
        "ml.data",
        "netlist.analyze",
        "netlist.compile",
        "netlist.sim.pack",
        "netlist.sim.settle",
        "netlist.sim.read",
        "netlist.verify",
        "netlist.faults",
        "analog.variation.compile",
        "analog.variation.analyze",
    ] {
        per_round(&format!("{span}.s"), secs(span));
    }
    for (metric, span) in [
        ("core.flow.train.calls", "core.flow.train"),
        ("core.generate.calls", "core.generate"),
        ("netlist.analyze.calls", "netlist.analyze"),
        ("netlist.compile.calls", "netlist.compile"),
        ("netlist.verify.checks", "netlist.verify"),
    ] {
        per_round(metric, calls(span));
    }
    // Nested layers: the fits a flow ran belong to `ml`, the optimizer
    // runs inside the generators.
    per_round("ml.fit.s", secs("ml.fit") + fit_nested_s);
    per_round("ml.fit.calls", calls("ml.fit") + fit_nested_calls as f64);
    per_round(
        "core.flow.train.s",
        (secs("core.flow.train") - fit_nested_s).max(0.0),
    );
    per_round("core.generate.s", (secs("core.generate") - opt_s).max(0.0));
    per_round("netlist.opt.s", opt_s);
    for name in [
        "core.generate.gates",
        "netlist.analyze.gates",
        "netlist.compile.tape_len",
        "netlist.sim.vectors",
        "netlist.verify.vectors",
        "netlist.verify.failed",
        "netlist.faults.sites",
        "netlist.faults.detected",
        "netlist.faults.vectors",
        "analog.variation.trials",
        "analog.variation.rows",
    ] {
        per_round(name, tr.counter(name) as f64);
    }
    for name in [
        "ml.cart.split_candidates",
        "ml.svm.epochs",
        "netlist.opt.gates_in",
        "netlist.opt.gates_out",
        "cache.misses",
        "cache.disk_hits",
        "cache.mem_hits",
        "cache.bytes_written",
        "cache.bytes_read",
        "cache.stale_drops",
    ] {
        per_round(name, obs_count(name));
    }
    per_round("exec.busy_s", obs_count("exec.busy_ns") * 1e-9);
    per_round("exec.queue_s", obs_count("exec.queue_ns") * 1e-9);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let traced_median = median(&traced.walls);
    for (name, value) in [
        ("cache.hit_ratio", ratio(hits, lookups)),
        ("cache.key_hash.s", costs.key_hash_s),
        ("cache.encode.s", costs.encode_s),
        ("cache.decode.s", costs.decode_s),
        (
            "exec.utilization",
            ratio(obs_count("exec.busy_ns"), capacity),
        ),
        ("trace.wall_s", traced_median),
        ("trace.overhead_s", traced_median - median(&untraced.walls)),
        (
            "trace.span_coverage",
            ratio(tr.layer_seconds(), traced_wall),
        ),
    ] {
        values.insert(name.to_string(), value);
    }

    let basis = format!("per traced round, {} traced rounds", traced.walls.len());
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values[name];
            metric(name, value, unit, basis.clone())
        })
        .collect()
}

/// Formats a float with every digit it has (shortest round-trip form),
/// as a JSON number.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(o: &Outcome, traced: bool) -> String {
    let metrics = if traced { &o.per_layer } else { &o.end_to_end };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

/// Human-readable report lines.
pub fn report_lines(o: &Outcome) -> Vec<String> {
    let mut lines = Vec::new();
    let section = |lines: &mut Vec<String>, title: &str, ms: &[Metric]| {
        if ms.is_empty() {
            return;
        }
        lines.push(format!("  {title}:"));
        for m in ms {
            lines.push(format!(
                "    {:<28} {:>16} {:<10} [{}]",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.basis
            ));
        }
    };
    lines.push(format!(
        "workload {}: {} jobs attempted, {} failed",
        o.kind.name(),
        o.attempted,
        o.failed
    ));
    section(&mut lines, "end-to-end (untraced rounds)", &o.end_to_end);
    section(
        &mut lines,
        "throughput and errors (untraced rounds)",
        &o.extra,
    );
    section(&mut lines, "per layer (traced rounds)", &o.per_layer);
    for f in &o.failures {
        lines.push(format!("  FAILED {f}"));
    }
    lines
}
