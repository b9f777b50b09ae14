//! `signoff`: the verification side of the flow on designs built in
//! set-up, with the artifact cache off. Four job families:
//!
//! * equivalence of every optimized or lookup tree/SVM netlist against
//!   its unoptimized `*_raw` reference (`netlist::check_equivalence`);
//! * stuck-at fault grading (`netlist::fault_coverage`) on the
//!   Table-VII stimulus (`bench::workloads::tree_test_vectors`);
//! * a seeded vector stream through the conventional SVM-16: compile,
//!   then `WideSim::<4>` pack, load, settle and read, 256 vectors a job;
//! * analog Monte Carlo on the compiled variation engines at four sigmas.

use std::sync::Arc;

use analog::{CompiledSvmVariation, CompiledTreeVariation, SvmRows, TreeRows};
use bench::workloads::tree_test_vectors;
use ml::quant::{QuantizedSvm, QuantizedTree};
use ml::synth::Application;
use netlist::{check_equivalence, CompiledNetlist, Module, WideSim};
use printed_core::bespoke::{bespoke_parallel_raw, bespoke_svm_raw};
use printed_core::conventional::svm::{generate_combinational, SvmSpec};
use printed_core::flow::{SvmArch, SvmFlow, TreeArch, TreeFlow};
use printed_core::lookup::{lookup_parallel_raw, lookup_svm_raw};
use printed_core::LookupConfig;

use crate::digest::Digest;
use crate::harness::{JobOutput, JobSpec, Phase, Size, Work, Workload};
use crate::seeds::{derive, shuffle, Stream, DATASET_SEED};
use crate::trace::Trace;

/// Relative print-variation sigmas of the Monte-Carlo audit.
pub const SIGMAS: [f64; 4] = [0.02, 0.05, 0.1, 0.2];

/// Lane width of the stream simulator (256 vectors per settle).
const STREAM_W: usize = 4;
const STREAM_LANES: usize = 64 * STREAM_W;

/// Every check is sampled (no exhaustive proofs): a proof costs 2^bits
/// vectors whatever the work budget says.
const EXHAUSTIVE_LIMIT: u32 = 0;

/// Estimated cost of one sampled miter vector (nanoseconds on the host
/// the weights were fitted on). Drawing and loading the input bits
/// dominates, then ROM macros and gates. The weights are fixed, so the
/// sample count of a check depends only on its netlists.
fn miter_vector_cost(reference: &Module, candidate: &Module) -> f64 {
    let gates = (reference.gates.len() + candidate.gates.len()) as f64;
    let roms = (reference.roms.len() + candidate.roms.len()) as f64;
    let bits: usize = candidate.inputs.iter().map(|p| p.width()).sum();
    50.0 + 0.034 * gates + 1.55 * bits as f64 + 0.94 * roms
}

/// Rounds `n` up to a multiple of `m`, within `[lo, hi]`.
fn budgeted(n: usize, m: usize, lo: usize, hi: usize) -> usize {
    n.div_ceil(m).saturating_mul(m).clamp(lo, hi)
}

/// Job sizes, chosen so the four families take comparable time.
#[derive(Debug, Clone, Copy)]
struct Budget {
    apps: &'static [Application],
    depth: usize,
    /// Work per equivalence check, in the units of [`miter_vector_cost`].
    eq_work: f64,
    fault_rows: usize,
    stream_spec: SvmSpec,
    stream_vectors: usize,
    mc_rows: usize,
    /// Element evaluations per Monte-Carlo job (trials × rows × splits
    /// or crossbar terms).
    mc_elements: usize,
}

impl Budget {
    fn for_size(size: Size) -> Self {
        match size {
            Size::Full => Budget {
                apps: &Application::ALL,
                depth: 4,
                eq_work: 7.0e6,
                fault_rows: 1000,
                stream_spec: SvmSpec::conventional(16),
                stream_vectors: 8192,
                mc_rows: 128,
                mc_elements: 1 << 23,
            },
            Size::Minimal => Budget {
                apps: &[Application::Har],
                depth: 2,
                eq_work: 1.0e5,
                fault_rows: 10,
                stream_spec: SvmSpec {
                    width: 4,
                    n_features: 8,
                    n_boundaries: 3,
                },
                stream_vectors: 2 * STREAM_LANES,
                mc_rows: 8,
                mc_elements: 1 << 10,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SignoffJob {
    Equiv(usize),
    Faults(usize),
    StreamCompile,
    StreamChunk(usize),
    McCompile(usize),
    McAnalyze { unit: usize, sigma: usize },
}

enum McUnit {
    Tree(QuantizedTree),
    Svm(QuantizedSvm, usize),
}

/// An equivalence check and the sample count its budget buys.
struct Check {
    reference: Module,
    candidate: Module,
    samples: usize,
}

/// A Monte-Carlo audit: the model, its evaluation rows, the audit's
/// seed and the trial count its budget buys.
struct Audit {
    model: McUnit,
    rows: Vec<Vec<u64>>,
    seed: u64,
    trials: usize,
}

enum McBound {
    Tree(CompiledTreeVariation, TreeRows),
    Svm(CompiledSvmVariation, SvmRows),
}

/// The sign-off workload.
pub struct Signoff {
    specs: Vec<JobSpec>,
    jobs: Vec<SignoffJob>,
    checks: Vec<Check>,
    faults: Vec<FaultTarget>,
    stream: Module,
    vectors: Vec<Vec<u64>>,
    sim: Option<WideSim<STREAM_W>>,
    audits: Vec<Audit>,
    bound: Vec<Option<McBound>>,
}

/// A fault-grading job: one side of a check's netlist pair and the
/// Table-VII stimulus of its tree.
struct FaultTarget {
    check: usize,
    side: Side,
    stimulus: Arc<Vec<Vec<u64>>>,
}

/// Which netlist of a check a fault-grading job grades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Reference,
    Candidate,
}

/// Collects the jobs while set-up builds the designs. Equivalence and
/// Monte-Carlo jobs get fixed work budgets, so the job families take
/// comparable time whatever the sizes of the trained models.
struct Builder<'a> {
    budget: &'a Budget,
    seed: u64,
    units: Vec<Vec<(String, SignoffJob)>>,
    checks: Vec<Check>,
    faults: Vec<FaultTarget>,
    audits: Vec<Audit>,
}

impl Builder<'_> {
    fn check(&mut self, key: String, reference: Module, candidate: Module) -> usize {
        let i = self.checks.len();
        self.units.push(vec![(key, SignoffJob::Equiv(i))]);
        let cost = miter_vector_cost(&reference, &candidate);
        let samples = (self.budget.eq_work / cost) as usize;
        self.checks.push(Check {
            reference,
            candidate,
            samples: budgeted(samples, STREAM_LANES, STREAM_LANES, 1 << 20),
        });
        i
    }

    fn faults(&mut self, key: String, check: usize, side: Side, stimulus: &Arc<Vec<Vec<u64>>>) {
        self.units
            .push(vec![(key, SignoffJob::Faults(self.faults.len()))]);
        self.faults.push(FaultTarget {
            check,
            side,
            stimulus: Arc::clone(stimulus),
        });
    }

    fn audit(&mut self, key: String, model: McUnit, rows: Vec<Vec<u64>>) {
        let i = self.audits.len();
        let mut jobs = vec![(format!("{key}/compile"), SignoffJob::McCompile(i))];
        for (s, sigma) in SIGMAS.iter().enumerate() {
            jobs.push((
                format!("{key}/sigma{sigma}"),
                SignoffJob::McAnalyze { unit: i, sigma: s },
            ));
        }
        self.units.push(jobs);
        let elements = match &model {
            McUnit::Tree(qt) => CompiledTreeVariation::compile(qt).split_count(),
            McUnit::Svm(qs, n) => CompiledSvmVariation::compile(qs, *n).term_count(),
        };
        let trials = self.budget.mc_elements / (rows.len() * elements).max(1);
        self.audits.push(Audit {
            model,
            rows,
            seed: derive(self.seed, Stream::MonteCarlo, i as u64),
            trials: budgeted(trials, 64, 64, 1 << 14),
        });
    }

    /// Trains `app`'s tree and SVM and adds their jobs.
    fn app(&mut self, app: Application) -> Result<(), String> {
        let budget = self.budget;
        let lookups = [
            ("lookup-baseline", LookupConfig::baseline()),
            ("lookup-optimized", LookupConfig::optimized()),
        ];
        let name = app.name();
        let depth = budget.depth;

        let tree = TreeFlow::new(app, depth, DATASET_SEED);
        let digital = |arch| tree.module(arch).ok_or("tree architecture has no netlist");
        let stimulus = Arc::new(tree_test_vectors(&tree, budget.fault_rows));
        let mut pairs = vec![(
            "bespoke",
            bespoke_parallel_raw(&tree.qt),
            digital(TreeArch::BespokeParallel)?,
        )];
        for (tag, config) in lookups {
            let raw = lookup_parallel_raw(&tree.qt, config);
            pairs.push((tag, raw, digital(TreeArch::Lookup(config))?));
        }
        // Fault grading covers both sides of every tree pair: the raw
        // references share the port shape the Table-VII stimulus is
        // built for.
        for (tag, raw, candidate) in pairs {
            let key = format!("{name}/dt{depth}/{tag}");
            let c = self.check(format!("eq/{key}"), raw, candidate);
            self.faults(format!("faults/{key}"), c, Side::Candidate, &stimulus);
            self.faults(format!("faults/{key}-raw"), c, Side::Reference, &stimulus);
        }
        let rows = tree.coded_rows(budget.mc_rows);
        self.audit(format!("mc/{name}/dt{depth}"), McUnit::Tree(tree.qt), rows);

        let svm = SvmFlow::new(app, DATASET_SEED);
        let digital = |arch| svm.module(arch).ok_or("SVM architecture has no netlist");
        let candidate = digital(SvmArch::Bespoke)?;
        self.check(
            format!("eq/{name}/svm/bespoke"),
            bespoke_svm_raw(&svm.qs),
            candidate,
        );
        for (tag, config) in lookups {
            let raw = lookup_svm_raw(&svm.qs, config);
            let candidate = digital(SvmArch::Lookup(config))?;
            self.check(format!("eq/{name}/svm/{tag}"), raw, candidate);
        }
        let rows = svm.coded_rows(budget.mc_rows);
        let model = McUnit::Svm(svm.qs, svm.n_features);
        self.audit(format!("mc/{name}/svm"), model, rows);
        Ok(())
    }
}

impl Signoff {
    /// Builds every design, stimulus and job of the workload: a depth-`d`
    /// tree and an SVM-R per application, and a seeded vector stream
    /// through the conventional SVM-16.
    pub fn new(seed: u64, size: Size) -> Result<Self, String> {
        cache::set_enabled(false);
        let budget = Budget::for_size(size);
        let stream = generate_combinational(&budget.stream_spec);
        let vectors = stream_vectors(&stream, budget.stream_vectors, seed);
        let mut b = Builder {
            budget: &budget,
            seed,
            units: Vec::new(),
            checks: Vec::new(),
            faults: Vec::new(),
            audits: Vec::new(),
        };
        for &app in budget.apps {
            b.app(app)?;
        }
        let mut stream_unit = vec![("stream/compile".to_string(), SignoffJob::StreamCompile)];
        for c in 0..vectors.len().div_ceil(STREAM_LANES) {
            stream_unit.push((format!("stream/chunk{c}"), SignoffJob::StreamChunk(c)));
        }
        b.units.push(stream_unit);
        shuffle(&mut b.units, seed);
        let (keys, jobs): (Vec<String>, Vec<SignoffJob>) =
            std::mem::take(&mut b.units).into_iter().flatten().unzip();
        let specs = keys
            .into_iter()
            .zip(&jobs)
            .map(|(key, job)| JobSpec {
                key,
                phase: match job {
                    SignoffJob::Equiv(_) => Phase::Verify,
                    SignoffJob::Faults(_) => Phase::Faults,
                    SignoffJob::StreamCompile => Phase::Compile,
                    SignoffJob::StreamChunk(_) => Phase::Stream,
                    SignoffJob::McCompile(_) | SignoffJob::McAnalyze { .. } => Phase::MonteCarlo,
                },
            })
            .collect();
        let Builder {
            checks,
            faults,
            audits,
            ..
        } = b;
        Ok(Signoff {
            specs,
            jobs,
            checks,
            faults,
            stream,
            vectors,
            sim: None,
            bound: audits.iter().map(|_| None).collect(),
            audits,
        })
    }

    fn equiv(&mut self, i: usize, tr: &mut Trace) -> Result<JobOutput, String> {
        let check = &self.checks[i];
        let eq = tr
            .span("netlist.verify", || {
                check_equivalence(
                    &check.reference,
                    &check.candidate,
                    EXHAUSTIVE_LIMIT,
                    check.samples,
                )
            })
            .map_err(|e| e.to_string())?;
        tr.count("netlist.verify.vectors", eq.vectors() as u64);
        tr.count("netlist.verify.failed", u64::from(!eq.is_equivalent()));
        let mut digest = Digest::new();
        digest.equivalence(&eq);
        Ok(JobOutput {
            digest: digest.finish(),
            work: Work {
                verify_vectors: eq.vectors() as u64,
                ..Work::default()
            },
            passed: eq.is_equivalent(),
        })
    }

    fn faults(&mut self, i: usize, tr: &mut Trace) -> Result<JobOutput, String> {
        let FaultTarget {
            check,
            side,
            stimulus: vectors,
        } = &self.faults[i];
        let check = &self.checks[*check];
        let module = match side {
            Side::Reference => &check.reference,
            Side::Candidate => &check.candidate,
        };
        let cov = tr
            .span("netlist.faults", || {
                netlist::try_fault_coverage(module, vectors)
            })
            .map_err(|e| e.to_string())?;
        tr.count("netlist.faults.sites", cov.total as u64);
        tr.count("netlist.faults.detected", cov.detected as u64);
        tr.count("netlist.faults.vectors", vectors.len() as u64);
        let mut digest = Digest::new();
        digest.fault_coverage(&cov);
        Ok(JobOutput {
            digest: digest.finish(),
            work: Work {
                fault_sites: cov.total as u64,
                ..Work::default()
            },
            passed: true,
        })
    }

    fn stream_compile(&mut self, tr: &mut Trace) -> Result<JobOutput, String> {
        let stream = &self.stream;
        let compiled = tr
            .span("netlist.compile", || CompiledNetlist::try_compile(stream))
            .map_err(|e| e.to_string())?;
        tr.count("netlist.compile.tape_len", compiled.tape_len() as u64);
        let mut digest = Digest::new();
        digest.u64(compiled.tape_len() as u64);
        digest.u64(compiled.output_bits() as u64);
        self.sim = Some(WideSim::new(Arc::new(compiled)));
        Ok(JobOutput {
            digest: digest.finish(),
            work: Work::default(),
            passed: true,
        })
    }

    fn stream_chunk(&mut self, c: usize, tr: &mut Trace) -> Result<JobOutput, String> {
        let sim = self.sim.as_mut().ok_or("stream simulator not compiled")?;
        let lo = c * STREAM_LANES;
        let chunk = &self.vectors[lo..(lo + STREAM_LANES).min(self.vectors.len())];
        tr.span("netlist.sim.pack", || {
            let image = sim.try_pack_vectors(chunk)?;
            sim.try_load_packed(&image)
        })
        .map_err(|e| e.to_string())?;
        tr.span("netlist.sim.settle", || sim.settle());
        let words = tr.span("netlist.sim.read", || sim.output_words(chunk.len()));
        tr.count("netlist.sim.vectors", chunk.len() as u64);
        let mut digest = Digest::new();
        words.iter().for_each(|&w| digest.u64(w));
        Ok(JobOutput {
            digest: digest.finish(),
            work: Work {
                sim_vectors: chunk.len() as u64,
                ..Work::default()
            },
            passed: true,
        })
    }

    fn mc_compile(&mut self, i: usize, tr: &mut Trace) -> Result<JobOutput, String> {
        let Audit { model, rows, .. } = &self.audits[i];
        let bound = tr.span("analog.variation.compile", || match model {
            McUnit::Tree(qt) => {
                let c = CompiledTreeVariation::compile(qt);
                let r = c.bind(rows);
                McBound::Tree(c, r)
            }
            McUnit::Svm(qs, n_features) => {
                let c = CompiledSvmVariation::compile(qs, *n_features);
                let r = c.bind(rows);
                McBound::Svm(c, r)
            }
        });
        let mut digest = Digest::new();
        match &bound {
            McBound::Tree(c, r) => {
                digest.u64(c.split_count() as u64);
                digest.u64(r.len() as u64);
            }
            McBound::Svm(c, r) => {
                digest.u64(c.term_count() as u64);
                digest.u64(r.len() as u64);
            }
        }
        self.bound[i] = Some(bound);
        Ok(JobOutput {
            digest: digest.finish(),
            work: Work::default(),
            passed: true,
        })
    }

    fn mc_analyze(&mut self, i: usize, s: usize, tr: &mut Trace) -> Result<JobOutput, String> {
        let bound = self.bound[i]
            .as_ref()
            .ok_or("variation engine not compiled")?;
        let trials = self.audits[i].trials;
        let seed = exec::task_seed(self.audits[i].seed, s as u64);
        let sigma = SIGMAS[s];
        let (report, rows) = tr.span("analog.variation.analyze", || match bound {
            McBound::Tree(c, r) => (c.analyze(r, sigma, trials, seed), r.len()),
            McBound::Svm(c, r) => (c.analyze(r, sigma, trials, seed), r.len()),
        });
        tr.count("analog.variation.trials", trials as u64);
        tr.count("analog.variation.rows", (trials * rows) as u64);
        let mut digest = Digest::new();
        digest.variation(&report);
        Ok(JobOutput {
            digest: digest.finish(),
            work: Work {
                mc_trials: trials as u64,
                ..Work::default()
            },
            passed: true,
        })
    }
}

/// `count` seeded input vectors for `module`, one value per input port
/// masked to the port's width.
pub fn stream_vectors(module: &Module, count: usize, seed: u64) -> Vec<Vec<u64>> {
    let widths: Vec<usize> = module.inputs.iter().map(|p| p.width()).collect();
    (0..count)
        .map(|v| {
            widths
                .iter()
                .enumerate()
                .map(|(p, &w)| {
                    let x = derive(seed, Stream::Vectors, (v * widths.len() + p) as u64);
                    if w >= 64 {
                        x
                    } else {
                        x & ((1u64 << w) - 1)
                    }
                })
                .collect()
        })
        .collect()
}

impl Workload for Signoff {
    fn jobs(&self) -> &[JobSpec] {
        &self.specs
    }

    fn begin_round(&mut self) -> Result<(), String> {
        cache::set_enabled(false);
        Ok(())
    }

    fn run_job(&mut self, job: usize, tr: &mut Trace, _keep: bool) -> Result<JobOutput, String> {
        match self.jobs[job] {
            SignoffJob::Equiv(i) => self.equiv(i, tr),
            SignoffJob::Faults(i) => self.faults(i, tr),
            SignoffJob::StreamCompile => self.stream_compile(tr),
            SignoffJob::StreamChunk(c) => self.stream_chunk(c, tr),
            SignoffJob::McCompile(i) => self.mc_compile(i, tr),
            SignoffJob::McAnalyze { unit, sigma } => self.mc_analyze(unit, sigma, tr),
        }
    }

    fn end_round(&mut self) -> Result<(), String> {
        self.sim = None;
        self.bound.iter_mut().for_each(|b| *b = None);
        Ok(())
    }
}
