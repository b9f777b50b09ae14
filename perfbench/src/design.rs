//! `design_sweep` and `warm_replay`: the design-space exploration behind
//! Tables II–V. Per dataset, every Table II model family is trained and
//! every tree and SVM architecture is priced in every technology; the
//! Table V conventional SVM engines are priced too. `design_sweep` runs
//! each round against a fresh, empty artifact cache; `warm_replay` runs
//! from a cache its set-up filled, with the memory tier dropped before
//! each round so every hit is read from disk.

use std::path::{Path, PathBuf};
use std::time::Instant;

use analog::tree::AnalogTreeConfig;
use ml::data::{Dataset, Standardizer};
use ml::forest::{ForestParams, RandomForest};
use ml::linear::{LogisticRegression, SvmClassifier};
use ml::metrics::accuracy;
use ml::mlp::{Mlp, MlpParams};
use ml::opcount::CountOps;
use ml::synth::Application;
use netlist::{analyze, Module};
use pdk::{CellLibrary, Technology};
use printed_core::conventional::svm::{generate as conventional_svm, SvmSpec};
use printed_core::flow::{SvmArch, SvmFlow, TreeArch, TreeFlow};
use printed_core::{report_from_ppa, DesignReport, LookupConfig};
use serde::{Deserialize, Serialize};

use crate::digest::Digest;
use crate::harness::{CacheCosts, JobOutput, JobSpec, Phase, Size, Work, Workload};
use crate::seeds::{derive, shuffle, Stream, DATASET_SEED};
use crate::trace::Trace;

/// Tree depths of Table II (DT-1/2/4/8).
pub const DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Table V datapath widths.
pub const TABLE5_WIDTHS: [usize; 4] = [4, 8, 12, 16];

/// One design-sweep job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DesignJob {
    /// `TreeFlow::new`, then every tree architecture generated and priced
    /// in every technology.
    Tree { app: Application, depth: usize },
    /// `SvmFlow::new`, then every SVM architecture generated and priced in
    /// every technology.
    Svm { app: Application },
    /// A Table II model family trained and scored directly.
    Fit { app: Application, model: Model },
    /// A Table V conventional 263-feature SVM engine.
    Table5 { width: usize },
}

/// Table II model families trained outside the flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// RF-n.
    Forest(usize),
    /// MLP-1.
    Mlp1,
    /// MLP-3.
    Mlp3,
    /// Logistic regression.
    Lr,
    /// One-vs-rest linear SVM classifier.
    SvmC,
}

impl Model {
    const ALL: [Model; 7] = [
        Model::Forest(2),
        Model::Forest(4),
        Model::Forest(8),
        Model::Mlp1,
        Model::Mlp3,
        Model::Lr,
        Model::SvmC,
    ];

    fn tag(self) -> String {
        match self {
            Model::Forest(n) => format!("rf{n}"),
            Model::Mlp1 => "mlp1".into(),
            Model::Mlp3 => "mlp3".into(),
            Model::Lr => "lr".into(),
            Model::SvmC => "svmc".into(),
        }
    }
}

impl DesignJob {
    /// Stable job key (the pinned-digest key).
    pub fn key(&self) -> String {
        match *self {
            DesignJob::Tree { app, depth } => format!("tree/{}/dt{depth}", app.name()),
            DesignJob::Svm { app } => format!("svm/{}/svmr", app.name()),
            DesignJob::Fit { app, model } => format!("fit/{}/{}", app.name(), model.tag()),
            DesignJob::Table5 { width } => format!("table5/svm{width}"),
        }
    }
}

/// Every tree architecture with its report tag (as `TreeFlow::report`
/// names designs).
pub fn tree_archs() -> [(TreeArch, &'static str); 7] {
    [
        (TreeArch::ConventionalSerial, "conv-serial"),
        (TreeArch::ConventionalParallel, "conv-parallel"),
        (TreeArch::BespokeSerial, "bespoke-serial"),
        (TreeArch::BespokeParallel, "bespoke-parallel"),
        (TreeArch::Lookup(LookupConfig::baseline()), "lookup"),
        (TreeArch::Lookup(LookupConfig::optimized()), "lookup"),
        (TreeArch::Analog(AnalogTreeConfig::default()), "analog"),
    ]
}

/// Every SVM architecture with its report tag.
pub fn svm_archs() -> [(SvmArch, &'static str); 5] {
    [
        (SvmArch::Conventional, "conv"),
        (SvmArch::Bespoke, "bespoke"),
        (SvmArch::Lookup(LookupConfig::baseline()), "lookup"),
        (SvmArch::Lookup(LookupConfig::optimized()), "lookup"),
        (SvmArch::Analog, "analog"),
    ]
}

/// A cacheable artifact kept for measuring the cache's own costs.
trait Artifact {
    fn key(&self) -> Option<cache::Key>;
    fn encode(&self) -> String;
    fn decode(&self, text: &str) -> bool;
}

struct Encoded<T>(T);

impl<T: Serialize + Deserialize> Artifact for Encoded<T> {
    fn key(&self) -> Option<cache::Key> {
        None
    }
    fn encode(&self) -> String {
        serde_json::to_string(&self.0).expect("artifacts encode")
    }
    fn decode(&self, text: &str) -> bool {
        serde_json::from_str::<T>(text).is_ok()
    }
}

struct Keyed<T>(&'static str, T);

impl<T: Serialize + Deserialize + cache::Hashable> Artifact for Keyed<T> {
    fn key(&self) -> Option<cache::Key> {
        Some(cache::key_for(self.0, &self.1))
    }
    fn encode(&self) -> String {
        serde_json::to_string(&self.1).expect("artifacts encode")
    }
    fn decode(&self, text: &str) -> bool {
        serde_json::from_str::<T>(text).is_ok()
    }
}

/// Where the artifact cache lives for the rounds of a run.
#[derive(Debug)]
enum CacheDir {
    /// A fresh directory per round under `base`.
    Fresh { base: PathBuf, round: usize },
    /// One directory filled by set-up.
    Warm(PathBuf),
}

/// Scratch space of a run, inside the benchmark's own directory.
pub fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    scratch_root().join(format!("cache-{tag}-{}-{n}", std::process::id()))
}

fn point_cache_at(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    cache::set_enabled(true);
    cache::set_disk_root(Some(dir.to_path_buf()));
    cache::clear_memory();
    Ok(())
}

/// The design-space sweep, cold or warm.
pub struct DesignSweep {
    specs: Vec<JobSpec>,
    jobs: Vec<DesignJob>,
    /// The generated dataset of every swept application, indexed like
    /// `Application::ALL` (the direct fits' input).
    datasets: Vec<Option<Dataset>>,
    fit_seed: u64,
    libs: Vec<(Technology, CellLibrary)>,
    cache: CacheDir,
    kept: Vec<Box<dyn Artifact>>,
    reference: Option<Vec<u64>>,
}

impl DesignSweep {
    fn new(seed: u64, size: Size, cache: CacheDir) -> Result<Self, String> {
        let apps: Vec<Application> = match size {
            Size::Full => Application::ALL.to_vec(),
            Size::Minimal => vec![Application::Har],
        };
        let mut jobs = Vec::new();
        let depths: &[usize] = match size {
            Size::Full => &DEPTHS,
            Size::Minimal => &[2],
        };
        let models: &[Model] = match size {
            Size::Full => &Model::ALL,
            Size::Minimal => &[Model::Forest(2), Model::Lr],
        };
        for &app in &apps {
            jobs.extend(depths.iter().map(|&depth| DesignJob::Tree { app, depth }));
            jobs.push(DesignJob::Svm { app });
            jobs.extend(models.iter().map(|&model| DesignJob::Fit { app, model }));
        }
        let widths: &[usize] = match size {
            Size::Full => &TABLE5_WIDTHS,
            Size::Minimal => &[4],
        };
        jobs.extend(widths.iter().map(|&width| DesignJob::Table5 { width }));
        shuffle(&mut jobs, seed);
        let mut datasets = Vec::new();
        for app in Application::ALL {
            datasets.push(if apps.contains(&app) {
                Some(generate_checked(app)?)
            } else {
                None
            });
        }
        let specs = jobs
            .iter()
            .map(|j| JobSpec {
                key: j.key(),
                phase: Phase::Design,
            })
            .collect();
        Ok(DesignSweep {
            specs,
            jobs,
            datasets,
            fit_seed: derive(seed, Stream::Fit, 0),
            libs: Technology::ALL
                .into_iter()
                .map(|t| (t, CellLibrary::for_technology(t)))
                .collect(),
            cache,
            kept: Vec::new(),
            reference: None,
        })
    }

    /// `design_sweep`: a fresh, empty cache directory every round.
    pub fn cold(seed: u64, size: Size) -> Result<Self, String> {
        let base = unique_dir("design_sweep");
        Self::new(seed, size, CacheDir::Fresh { base, round: 0 })
    }

    /// `warm_replay`: set-up runs the sweep once into a new cache
    /// directory (recording the cold outputs), then drops the memory
    /// tier.
    pub fn warm(seed: u64, size: Size) -> Result<Self, String> {
        let dir = unique_dir("warm_replay");
        point_cache_at(&dir)?;
        let mut sweep = Self::new(seed, size, CacheDir::Warm(dir))?;
        let mut off = Trace::new();
        let mut cold = Vec::with_capacity(sweep.jobs.len());
        for i in 0..sweep.jobs.len() {
            cold.push(sweep.run_job(i, &mut off, false)?.digest);
        }
        sweep.end_round()?;
        sweep.reference = Some(cold);
        Ok(sweep)
    }

    fn keep<A: Artifact + 'static>(&mut self, keep: bool, artifact: A) {
        if keep {
            self.kept.push(Box::new(artifact));
        }
    }

    /// Prices `module` in every technology.
    fn price(
        &mut self,
        tr: &mut Trace,
        module: Module,
        name: &str,
        cycles: usize,
        keep: bool,
    ) -> JobOutput {
        let mut digest = Digest::new();
        let mut ppas = Vec::new();
        for (tech, lib) in &self.libs {
            let ppa = tr.span("netlist.analyze", || analyze(&module, lib));
            tr.count("netlist.analyze.gates", module.gates.len() as u64);
            let report = tr.span("core.report", || {
                report_from_ppa(name.to_string(), *tech, &ppa, cycles)
            });
            digest.design_report(&report);
            ppas.push(ppa);
        }
        let designs = ppas.len() as u64;
        self.keep(keep, Keyed("netlist.ppa", module));
        self.keep(keep, Encoded(ppas));
        JobOutput {
            digest: digest.finish(),
            work: Work {
                designs,
                ..Work::default()
            },
            passed: true,
        }
    }

    fn generate(tr: &mut Trace, f: impl FnOnce() -> Option<Module>) -> Result<Module, String> {
        let module = tr
            .span("core.generate", f)
            .ok_or("digital architecture produced no netlist")?;
        tr.count("core.generate.gates", module.gates.len() as u64);
        Ok(module)
    }

    fn run_tree(
        &mut self,
        app: Application,
        depth: usize,
        tr: &mut Trace,
        keep: bool,
    ) -> Result<JobOutput, String> {
        let flow = tr.span("core.flow.train", || {
            let _obs = obs::span("core.flow.train");
            TreeFlow::new(app, depth, DATASET_SEED)
        });
        let mut parts = Vec::new();
        for (arch, tag) in tree_archs() {
            parts.push(match arch {
                TreeArch::Analog(_) => Self::analog(tr, || flow.report(arch, Technology::Egt)),
                _ => {
                    let module = Self::generate(tr, || flow.module(arch))?;
                    let cycles = match arch {
                        TreeArch::ConventionalSerial => depth.max(1),
                        TreeArch::BespokeSerial => flow.qt.depth().max(1),
                        _ => 1,
                    };
                    let name = format!("{}-dt{depth}-{tag}", app.name());
                    self.price(tr, module, &name, cycles, keep)
                }
            });
        }
        self.keep(keep, Encoded(flow));
        Ok(combine(parts))
    }

    fn run_svm(
        &mut self,
        app: Application,
        tr: &mut Trace,
        keep: bool,
    ) -> Result<JobOutput, String> {
        let flow = tr.span("core.flow.train", || {
            let _obs = obs::span("core.flow.train");
            SvmFlow::new(app, DATASET_SEED)
        });
        let mut parts = Vec::new();
        for (arch, tag) in svm_archs() {
            parts.push(match arch {
                SvmArch::Analog => Self::analog(tr, || flow.report(arch, Technology::Egt)),
                _ => {
                    let module = Self::generate(tr, || flow.module(arch))?;
                    self.price(tr, module, &format!("{}-svm-{tag}", app.name()), 1, keep)
                }
            });
        }
        self.keep(keep, Encoded(flow));
        Ok(combine(parts))
    }

    /// An analog design, priced in closed form by the flow (EGT only).
    fn analog(tr: &mut Trace, report: impl FnOnce() -> DesignReport) -> JobOutput {
        let report = tr.span("core.report", report);
        let mut digest = Digest::new();
        digest.design_report(&report);
        JobOutput {
            digest: digest.finish(),
            work: Work {
                designs: 1,
                ..Work::default()
            },
            passed: true,
        }
    }

    fn run_fit(
        &mut self,
        app: Application,
        model: Model,
        tr: &mut Trace,
        keep: bool,
    ) -> Result<JobOutput, String> {
        let data = self.datasets[app_index(app)]
            .as_ref()
            .ok_or("dataset was not generated in set-up")?;
        let (train, test) = tr.span("ml.data", || {
            let (train, test) = data.split(0.7, 42);
            let s = Standardizer::fit(&train);
            (s.transform(&train), s.transform(&test))
        });
        let mut digest = Digest::new();
        match model {
            Model::Forest(n) => {
                let m = tr.span("ml.fit", || {
                    RandomForest::fit(&train, ForestParams::paper(n))
                });
                score(tr, &mut digest, &test, &m, |r| m.predict(r))?;
                self.keep(keep, Encoded(m));
            }
            Model::Mlp1 | Model::Mlp3 => {
                let params = if model == Model::Mlp1 {
                    MlpParams::mlp1()
                } else {
                    MlpParams::mlp3()
                };
                let m = tr.span("ml.fit", || Mlp::fit(&train, &params));
                score(tr, &mut digest, &test, &m, |r| m.predict(r))?;
                self.keep(keep, Encoded(m));
            }
            Model::Lr => {
                let m = tr.span("ml.fit", || LogisticRegression::fit(&train, 150, 0.5));
                score(tr, &mut digest, &test, &m, |r| m.predict(r))?;
                self.keep(keep, Encoded(m));
            }
            Model::SvmC => {
                let fit_seed = self.fit_seed;
                let m = tr.span("ml.fit", || SvmClassifier::fit(&train, 4, 1e-3, fit_seed));
                score(tr, &mut digest, &test, &m, |r| m.predict(r))?;
                self.keep(keep, Encoded(m));
            }
        }
        self.keep(keep, Keyed("ml.fit", train));
        Ok(JobOutput {
            digest: digest.finish(),
            work: Work::default(),
            passed: true,
        })
    }

    fn run_table5(
        &mut self,
        width: usize,
        tr: &mut Trace,
        keep: bool,
    ) -> Result<JobOutput, String> {
        let module = Self::generate(tr, || Some(conventional_svm(&SvmSpec::conventional(width))))?;
        Ok(self.price(tr, module, &format!("svm{width}-conv263"), 1, keep))
    }
}

fn app_index(app: Application) -> usize {
    Application::ALL
        .iter()
        .position(|&a| a == app)
        .expect("app is one of Application::ALL")
}

/// Generates `app`'s dataset and checks it is usable: non-empty, with at
/// least two classes present.
fn generate_checked(app: Application) -> Result<Dataset, String> {
    let data = app.generate(DATASET_SEED);
    let mut seen = vec![false; data.n_classes];
    for &y in &data.y {
        seen[y] = true;
    }
    if data.is_empty() || seen.iter().filter(|&&s| s).count() < 2 {
        return Err(format!("{}: generated dataset is degenerate", app.name()));
    }
    Ok(data)
}

/// One job's output from its parts: the digest of their digests, the sum
/// of their work.
fn combine(parts: Vec<JobOutput>) -> JobOutput {
    let mut digest = Digest::new();
    let mut designs = 0;
    for part in &parts {
        digest.u64(part.digest);
        designs += part.work.designs;
    }
    JobOutput {
        digest: digest.finish(),
        work: Work {
            designs,
            ..Work::default()
        },
        passed: parts.iter().all(|p| p.passed),
    }
}

/// Scores a fitted Table II model: test accuracy and op counts.
fn score<M: CountOps>(
    tr: &mut Trace,
    digest: &mut Digest,
    test: &Dataset,
    model: &M,
    predict: impl Fn(&[f64]) -> usize,
) -> Result<(), String> {
    let (acc, ops) = tr.span("ml.predict", || {
        let acc = accuracy(test.x.iter().map(|r| predict(r)), test.y.iter().copied());
        (acc, model.op_count())
    });
    digest.f64(acc.map_err(|e| e.to_string())?);
    for n in [ops.comparisons, ops.macs, ops.relus] {
        digest.u64(n as u64);
    }
    Ok(())
}

impl Workload for DesignSweep {
    fn jobs(&self) -> &[JobSpec] {
        &self.specs
    }

    fn reference(&self) -> Option<&[u64]> {
        self.reference.as_deref()
    }

    fn begin_round(&mut self) -> Result<(), String> {
        match &mut self.cache {
            CacheDir::Fresh { base, round } => {
                *round += 1;
                point_cache_at(&base.join(format!("round-{round}")))
            }
            CacheDir::Warm(dir) => point_cache_at(dir),
        }
    }

    fn run_job(&mut self, job: usize, tr: &mut Trace, keep: bool) -> Result<JobOutput, String> {
        match self.jobs[job] {
            DesignJob::Tree { app, depth } => self.run_tree(app, depth, tr, keep),
            DesignJob::Svm { app } => self.run_svm(app, tr, keep),
            DesignJob::Fit { app, model } => self.run_fit(app, model, tr, keep),
            DesignJob::Table5 { width } => self.run_table5(width, tr, keep),
        }
    }

    fn end_round(&mut self) -> Result<(), String> {
        cache::clear_memory();
        if let CacheDir::Fresh { base, round } = &self.cache {
            let dir = base.join(format!("round-{round}"));
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
        Ok(())
    }

    fn cache_costs(&mut self) -> CacheCosts {
        let mut costs = CacheCosts::default();
        for a in std::mem::take(&mut self.kept) {
            let t = Instant::now();
            let key = a.key();
            if key.is_some() {
                costs.key_hash_s += t.elapsed().as_secs_f64();
            }
            let t = Instant::now();
            let text = a.encode();
            costs.encode_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let ok = a.decode(&text);
            costs.decode_s += t.elapsed().as_secs_f64();
            assert!(ok, "an artifact failed to decode its own encoding");
        }
        costs
    }
}

impl Drop for DesignSweep {
    fn drop(&mut self) {
        let dir = match &self.cache {
            CacheDir::Fresh { base, .. } => base,
            CacheDir::Warm(dir) => dir,
        };
        let _ = std::fs::remove_dir_all(dir);
        cache::clear_memory();
        cache::set_disk_root(None);
        cache::set_enabled(false);
    }
}
