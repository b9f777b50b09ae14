//! A minimal-size pass of every workload, traced and untraced, finishes
//! with no failed job. One test: the workloads share process-wide state
//! (the artifact cache, obs and the thread pool), so they run in turn.

use perfbench::harness::{self, Config, Size, WorkloadKind, PER_LAYER};

#[test]
fn a_minimal_pass_of_each_workload_has_no_errors() {
    for kind in WorkloadKind::ALL {
        let outcome = harness::run(&Config {
            kind,
            seed: 7,
            seconds: 0.0,
            trace: true,
            setup_repeats: 1,
            size: Size::Minimal,
            check_pins: false,
        })
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let name = kind.name();
        assert!(outcome.correct(), "{name}: {:?}", outcome.failures);
        assert_eq!(outcome.metric("error_rate").unwrap().value, 0.0, "{name}");
        // One untraced and one traced round, with identical outputs.
        assert_eq!(outcome.attempted % 2, 0, "{name}");
        assert_eq!(outcome.per_layer.len(), PER_LAYER.len(), "{name}");
        let layer = |m: &str| outcome.metric(m).unwrap().value;
        match kind {
            WorkloadKind::DesignSweep => {
                assert!(layer("ml.fit.calls") > 0.0);
                assert!(layer("netlist.analyze.calls") > 0.0);
                assert!(layer("cache.misses") > 0.0);
                assert_eq!(layer("cache.disk_hits"), 0.0);
            }
            WorkloadKind::WarmReplay => {
                assert!(layer("cache.disk_hits") > 0.0);
                assert_eq!(layer("cache.misses"), 0.0);
                // Fit calls are served by the cache: nothing is trained.
                assert_eq!(layer("ml.cart.split_candidates"), 0.0);
                assert_eq!(layer("ml.svm.epochs"), 0.0);
            }
            WorkloadKind::Signoff => {
                assert!(layer("netlist.verify.checks") > 0.0);
                assert_eq!(layer("netlist.verify.failed"), 0.0);
                assert!(layer("netlist.faults.sites") > 0.0);
                assert!(layer("netlist.sim.vectors") > 0.0);
                assert!(layer("analog.variation.trials") > 0.0);
                assert_eq!(layer("cache.misses"), 0.0);
            }
        }
    }
}
