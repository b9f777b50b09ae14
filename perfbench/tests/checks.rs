//! Checks of the benchmark's own machinery: statistics, digests, seeds
//! and the metric lists `BENCHMARK.json` declares.

use netlist::NetlistBuilder;
use pdk::units::Area;
use pdk::{CellLibrary, Technology};
use perfbench::digest::{parse_pins, pinned, render_pins, Digest};
use perfbench::harness::{
    self, Config, JobOutput, JobSpec, Phase, Size, Work, Workload, WorkloadKind, END_TO_END,
    PER_LAYER,
};
use perfbench::seeds::{derive, shuffle, Stream};
use perfbench::stats::{median, percentile};
use perfbench::trace::Trace;
use printed_core::{report_from_ppa, DesignReport};

#[test]
fn percentiles_come_with_their_sample_counts() {
    let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let p50 = percentile(&values, 50.0).unwrap();
    assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
    let p90 = percentile(&values, 90.0).unwrap();
    assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
    let one = percentile(&[3.5], 90.0).unwrap();
    assert_eq!((one.value, one.samples, one.beyond), (3.5, 1, 0));
    assert!(percentile(&[], 50.0).is_none());
    assert!(percentile(&values, 0.0).is_none());
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

fn sample_report() -> DesignReport {
    let mut b = NetlistBuilder::new("cmp");
    let x = b.input("x", 4);
    let t = b.const_word(5, 4);
    let le = netlist::comb::unsigned_le(&mut b, &x, &t);
    b.output("le", &[le]);
    let module = netlist::optimize(&b.finish());
    let ppa = netlist::analyze(&module, &CellLibrary::for_technology(Technology::Egt));
    report_from_ppa("cmp", Technology::Egt, &ppa, 1)
}

fn one_ulp_up(area: Area) -> Area {
    Area::from_mm2(f64::from_bits(area.value().to_bits() + 1))
}

fn digest_of(report: &DesignReport) -> u64 {
    let mut d = Digest::new();
    d.design_report(report);
    d.finish()
}

/// One job that prices a fixed design, checked against the digest of
/// the unperturbed report.
struct OneReport {
    spec: Vec<JobSpec>,
    report: DesignReport,
    reference: Vec<u64>,
}

impl Workload for OneReport {
    fn jobs(&self) -> &[JobSpec] {
        &self.spec
    }
    fn reference(&self) -> Option<&[u64]> {
        Some(&self.reference)
    }
    fn run_job(&mut self, _: usize, _: &mut Trace, _: bool) -> Result<JobOutput, String> {
        Ok(JobOutput {
            digest: digest_of(&self.report),
            work: Work {
                designs: 1,
                ..Work::default()
            },
            passed: true,
        })
    }
}

#[test]
fn one_ulp_in_a_report_field_flips_the_digest_and_fails_the_job() {
    let report = sample_report();
    let mut nudged = report.clone();
    nudged.area = one_ulp_up(report.area);
    assert_ne!(nudged.area.value(), report.area.value());
    assert_ne!(digest_of(&report), digest_of(&nudged));

    let cfg = Config {
        kind: WorkloadKind::DesignSweep,
        seed: 7,
        seconds: 0.0,
        trace: false,
        setup_repeats: 1,
        size: Size::Minimal,
        check_pins: false,
    };
    let run = |report: &DesignReport| {
        let reference = vec![digest_of(&sample_report())];
        let report = report.clone();
        harness::run_with(&cfg, || {
            Ok(Box::new(OneReport {
                spec: vec![JobSpec {
                    key: "one/report".into(),
                    phase: Phase::Design,
                }],
                report: report.clone(),
                reference: reference.clone(),
            }))
        })
        .unwrap()
    };
    let good = run(&report);
    assert_eq!((good.attempted, good.failed), (1, 0));
    let bad = run(&nudged);
    assert_eq!((bad.attempted, bad.failed), (1, 1));
    assert!(!bad.correct());
    assert_eq!(bad.metric("error_rate").unwrap().value, 1.0);
}

#[test]
fn two_seeds_produce_different_inputs() {
    for stream in [
        Stream::Order,
        Stream::Vectors,
        Stream::MonteCarlo,
        Stream::Fit,
    ] {
        assert_ne!(derive(7, stream, 0), derive(8, stream, 0), "{stream:?}");
        assert_eq!(derive(7, stream, 3), derive(7, stream, 3), "{stream:?}");
    }
    let order = |seed| -> Vec<String> {
        let sweep = harness::setup(WorkloadKind::DesignSweep, seed, Size::Full).unwrap();
        sweep.jobs().iter().map(|j| j.key.clone()).collect()
    };
    assert_ne!(order(7), order(8));

    let mut order7: Vec<usize> = (0..50).collect();
    let mut order8 = order7.clone();
    shuffle(&mut order7, 7);
    shuffle(&mut order8, 8);
    assert_ne!(order7, order8);

    let mut b = NetlistBuilder::new("ports");
    let x = b.input("x", 5);
    let y = b.input("y", 9);
    let o = b.and(x[0], y[0]);
    b.output("o", &[o]);
    let module = b.finish();
    let v7 = perfbench::signoff::stream_vectors(&module, 64, 7);
    let v8 = perfbench::signoff::stream_vectors(&module, 64, 8);
    assert_ne!(v7, v8);
    assert!(v7.iter().all(|v| v[0] < 32 && v[1] < 512));
}

#[test]
fn pinned_digest_tables_round_trip() {
    let pins = pinned();
    assert!(pins.len() > 100, "the pinned table covers every job");
    assert_eq!(parse_pins(&render_pins(&pins)).unwrap(), pins);
    assert!(parse_pins("key not-hex\n").is_err());
}

fn names(v: &serde::Value, section: &str) -> Vec<(String, String)> {
    v.get(section)
        .and_then(|s| s.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_metrics_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&v, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names(&v, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(|w| w.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    let kinds: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, kinds);
}
