//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! These go beyond the paper's figures: each table isolates one design
//! knob of the reproduction and quantifies what it buys.

use analog::comparator::ThresholdEncoding;
use analog::tree::{AnalogTree, AnalogTreeConfig};
use ml::metrics::accuracy;
use ml::quant::{FeatureQuantizer, QuantizedTree};
use ml::synth::Application;
use ml::tree::{DecisionTree, TreeParams};
use netlist::arith::{const_multiply, multiply};
use netlist::builder::NetlistBuilder;
use netlist::{analyze, optimize};
use pdk::rom::RomStyle;
use pdk::{CellLibrary, FabModel, Technology};
use printed_core::bespoke::bespoke_parallel;
use printed_core::conventional::serial_tree::{generate as gen_serial, program, SerialTreeSpec};
use printed_core::ensemble::bespoke_forest;
use printed_core::flow::{TreeArch, TreeFlow};
use printed_core::system::{ClassifierSystem, FeatureExtraction};
use printed_core::WIDTHS;

use crate::workloads::{mc_trials, row_cap, SEED};
use crate::{fmt3, Table};

fn egt() -> CellLibrary {
    CellLibrary::for_technology(Technology::Egt)
}

/// Bit-width ablation (§IV-A): accuracy vs bespoke hardware cost per
/// datapath width.
pub fn ablation_bitwidth() -> Table {
    let mut t = Table::new(
        "Ablation: datapath width vs accuracy and bespoke-tree cost (EGT)",
        &["dataset", "bits", "accuracy", "area", "power"],
    );
    let lib = egt();
    for app in [
        Application::Cardio,
        Application::Pendigits,
        Application::RedWine,
    ] {
        let data = app.generate(SEED);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        for &bits in &WIDTHS {
            let fq = FeatureQuantizer::fit(&train, bits);
            let qt = QuantizedTree::from_tree(&tree, &fq);
            let acc = accuracy(
                test.x.iter().map(|r| qt.predict(&fq.code_row(r))),
                test.y.iter().copied(),
            )
            .expect("predictions align with test labels");
            let ppa = analyze(&bespoke_parallel(&qt), &lib);
            t.row(vec![
                app.name().into(),
                bits.to_string(),
                fmt3(acc),
                format!("{}", ppa.area),
                format!("{}", ppa.power),
            ]);
        }
    }
    t
}

/// Analog buffer-insertion ablation (§VI-A): signal margin vs area.
pub fn ablation_analog_buffers() -> Table {
    let mut t = Table::new(
        "Ablation: analog tree buffers (margin restoration vs area)",
        &["dataset", "buffers", "area", "power", "worst margin (V)"],
    );
    for app in [Application::GasId, Application::Pendigits] {
        let data = app.generate(SEED);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(6));
        let fq = FeatureQuantizer::fit(&train, 6);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        for buffers in [true, false] {
            let at = AnalogTree::from_tree(
                &qt,
                AnalogTreeConfig {
                    encoding: ThresholdEncoding::Calibrated,
                    buffers,
                },
            );
            let worst = test
                .x
                .iter()
                .take(50)
                .map(|row| at.worst_margin(&fq.code_row(row)))
                .fold(f64::INFINITY, f64::min);
            t.row(vec![
                app.name().into(),
                buffers.to_string(),
                format!("{}", at.area()),
                format!("{}", at.static_power()),
                fmt3(worst),
            ]);
        }
    }
    t
}

/// Threshold-encoding ablation (§VI): the paper's linear resistor map vs
/// the calibrated (transistor-law-matched) map.
pub fn ablation_threshold_encoding() -> Table {
    let mut t = Table::new(
        "Ablation: analog threshold encoding (agreement with digital tree)",
        &["dataset", "encoding", "agreement"],
    );
    for app in [Application::Har, Application::Pendigits] {
        let data = app.generate(SEED);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        let fq = FeatureQuantizer::fit(&train, 6);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        for (name, encoding) in [
            ("calibrated", ThresholdEncoding::Calibrated),
            ("paper-linear", ThresholdEncoding::PaperLinear),
        ] {
            let at = AnalogTree::from_tree(
                &qt,
                AnalogTreeConfig {
                    encoding,
                    buffers: true,
                },
            );
            let agree = test
                .x
                .iter()
                .filter(|row| {
                    let codes = fq.code_row(row);
                    at.predict(&codes) == qt.predict(&codes)
                })
                .count() as f64
                / test.x.len() as f64;
            t.row(vec![app.name().into(), name.into(), fmt3(agree)]);
        }
    }
    t
}

/// Constant-coefficient multiplier encoding ablation: CSD shift-add vs a
/// full array multiplier, post-optimization.
pub fn ablation_multiplier_encoding() -> Table {
    let mut t = Table::new(
        "Ablation: constant-multiplier encoding (8-bit x constant, EGT)",
        &["constant", "style", "gates", "area"],
    );
    let lib = egt();
    for k in [3u64, 51, 102, 170, 255] {
        let csd = {
            let mut b = NetlistBuilder::new("csd");
            let x = b.input("x", 8);
            let p = const_multiply(&mut b, &x, k);
            b.output("p", &p);
            optimize(&b.finish())
        };
        let array = {
            let mut b = NetlistBuilder::new("arr");
            let x = b.input("x", 8);
            let kw = b.const_word(k, 8);
            let p = multiply(&mut b, &x, &kw);
            b.output("p", &p);
            optimize(&b.finish())
        };
        for (style, m) in [("csd", &csd), ("folded-array", &array)] {
            let ppa = analyze(m, &lib);
            t.row(vec![
                k.to_string(),
                style.into(),
                m.gate_count().to_string(),
                format!("{}", ppa.area),
            ]);
        }
    }
    t
}

/// ROM-style ablation for the serial tree engine: crossbar vs bespoke
/// dots.
pub fn ablation_rom_style() -> Table {
    let mut t = Table::new(
        "Ablation: serial-tree ROM style (EGT)",
        &["depth", "style", "memory area", "memory power"],
    );
    let lib = egt();
    for depth in [2usize, 4, 8] {
        let data = Application::Cardio.generate(SEED);
        let (train, _) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(depth));
        let fq = FeatureQuantizer::fit(&train, 8);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        for (name, style) in [
            ("crossbar", RomStyle::Crossbar),
            ("bespoke-dots", RomStyle::BespokeDots),
        ] {
            let mut spec = SerialTreeSpec::conventional(depth);
            spec.rom_style = style;
            spec.n_features = qt.used_features().len().max(1);
            let prog = program(&qt, &spec);
            let ppa = analyze(&gen_serial(&spec, &prog), &lib);
            t.row(vec![
                depth.to_string(),
                name.into(),
                format!("{}", ppa.rom_area),
                format!("{}", ppa.rom_power),
            ]);
        }
    }
    t
}

/// Random-forest scaling: ensemble size vs accuracy and engine cost — the
/// paper's "RFs allow tunable accuracy-cost tradeoffs" (§III), now with
/// actual generated hardware.
pub fn ablation_forest_scaling() -> Table {
    use ml::forest::{ForestParams, RandomForest};
    use ml::quant::QuantizedForest;
    let mut t = Table::new(
        "Ablation: bespoke random-forest engines (pendigits, EGT)",
        &["trees", "accuracy", "gates", "area", "power"],
    );
    let lib = egt();
    let data = Application::Pendigits.generate(SEED);
    let (train, test) = data.split(0.7, 42);
    let fq = FeatureQuantizer::fit(&train, 8);
    for n in [1usize, 2, 4, 8] {
        let forest = RandomForest::fit(&train, ForestParams::paper(n));
        let qf = QuantizedForest::from_forest(&forest, &fq);
        let acc = accuracy(
            test.x.iter().map(|r| qf.predict(&fq.code_row(r))),
            test.y.iter().copied(),
        )
        .expect("predictions align with test labels");
        let module = bespoke_forest(&qf);
        let ppa = analyze(&module, &lib);
        t.row(vec![
            n.to_string(),
            fmt3(acc),
            module.gate_count().to_string(),
            format!("{}", ppa.area),
            format!("{}", ppa.power),
        ]);
    }
    t
}

/// Fig. 18 system-level roll-up: sensors + (ADC) + classifier, digital vs
/// analog (direct interfacing), plus the fabrication economics of §IV.
pub fn system_level() -> Table {
    let mut t = Table::new(
        "System level (Fig. 18): full-system area/power and unit economics",
        &[
            "dataset",
            "system",
            "area",
            "power",
            "powered by",
            "unit cost @1",
            "@10k",
        ],
    );
    let fab = FabModel::for_technology(Technology::Egt);
    for app in [Application::Har, Application::Cardio, Application::RedWine] {
        let flow = TreeFlow::new(app, 4, SEED);
        let sensors = flow.qt.used_features().len().max(1);
        // Printed ADCs beyond ~8 bits are not practical (the paper quotes
        // 2- and 4-bit EGT ADCs); wider datapaths would be driven by
        // multiple conversions or direct interfacing.
        let digital = ClassifierSystem::digital(
            flow.report(TreeArch::BespokeParallel, Technology::Egt),
            sensors,
            flow.choice.bits.clamp(2, 8),
            FeatureExtraction::None,
        );
        let analog = ClassifierSystem::analog(
            flow.report(
                TreeArch::Analog(analog::tree::AnalogTreeConfig::default()),
                Technology::Egt,
            ),
            sensors,
        );
        for (name, sys) in [("digital+ADC", &digital), ("analog direct", &analog)] {
            t.row(vec![
                app.name().into(),
                name.into(),
                format!("{}", sys.area()),
                format!("{}", sys.power()),
                sys.feasibility().source_name().into(),
                format!("${:.4}", fab.unit_cost_usd(sys.area(), 1)),
                format!("${:.4}", fab.unit_cost_usd(sys.area(), 10_000)),
            ]);
        }
    }
    t
}

/// All ablations bundled as `repro_all`'s `ablations` experiment.
pub fn ablations() -> Vec<Table> {
    vec![
        ablation_bitwidth(),
        ablation_analog_buffers(),
        ablation_threshold_encoding(),
        ablation_multiplier_encoding(),
        ablation_rom_style(),
        ablation_forest_scaling(),
        ablation_serial_svm(),
        ablation_fanout(),
        region_breakdown(),
        variation_analysis(),
        drift_robustness(),
        fault_coverage_analysis(),
        battery_life(),
        bent_corner(),
        system_level(),
    ]
}

/// Fanout repair: what max-fanout buffering costs a bespoke parallel tree
/// (printed gates drive weakly; the paper's synthesized netlists pay this
/// implicitly).
pub fn ablation_fanout() -> Table {
    let mut t = Table::new(
        "Ablation: max-fanout buffer insertion (bespoke parallel tree, EGT)",
        &[
            "dataset",
            "fanout limit",
            "max fanout",
            "gates",
            "area",
            "delay",
        ],
    );
    let lib = egt();
    for app in [Application::Pendigits] {
        let flow = TreeFlow::new(app, 8, SEED);
        let module = flow.module(TreeArch::BespokeParallel).expect("digital");
        let raw_fanout = netlist::max_fanout(&module);
        for limit in [usize::MAX, 8, 4, 2] {
            let repaired = if limit == usize::MAX {
                module.clone()
            } else {
                netlist::insert_buffers(&module, limit)
            };
            let ppa = analyze(&repaired, &lib);
            t.row(vec![
                app.name().into(),
                if limit == usize::MAX {
                    "none".into()
                } else {
                    limit.to_string()
                },
                if limit == usize::MAX {
                    raw_fanout.to_string()
                } else {
                    netlist::max_fanout(&repaired).to_string()
                },
                repaired.gate_count().to_string(),
                format!("{}", ppa.area),
                format!("{}", ppa.delay),
            ]);
        }
    }
    t
}

/// Per-block cost breakdown of a bespoke parallel tree — where the area
/// actually goes (comparators vs class-selection logic).
pub fn region_breakdown() -> Table {
    let mut t = Table::new(
        "Breakdown: bespoke parallel tree, logic cost by block (EGT)",
        &["dataset", "block", "gates", "area", "power"],
    );
    let lib = egt();
    for app in [Application::Cardio, Application::Pendigits] {
        let flow = TreeFlow::new(app, 8, SEED);
        let module = flow.module(TreeArch::BespokeParallel).expect("digital");
        for row in netlist::analysis::by_region(&module, &lib) {
            t.row(vec![
                app.name().into(),
                row.region.clone(),
                row.gates.to_string(),
                format!("{}", row.area),
                format!("{}", row.power),
            ]);
        }
    }
    t
}

/// Print-variation Monte Carlo for analog trees: how much resistor
/// tolerance the classifier absorbs before decisions drift (§VI's
/// mismatch discussion).
pub fn variation_analysis() -> Table {
    let mut t = Table::new(
        "Robustness: analog tree under printed-resistor variation",
        &["dataset", "sigma", "mean agreement", "worst agreement"],
    );
    for app in [Application::Har, Application::Pendigits] {
        let data = app.generate(SEED);
        let (train, test) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        let fq = FeatureQuantizer::fit(&train, 6);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        let rows: Vec<Vec<u64>> = test
            .x
            .iter()
            .take(row_cap(150))
            .map(|r| fq.code_row(r))
            .collect();
        for report in
            analog::variation_sweep(&qt, &rows, &[0.02, 0.05, 0.1, 0.2], mc_trials(), SEED)
        {
            t.row(vec![
                format!("{} (tree)", app.name()),
                fmt3(report.sigma),
                fmt3(report.mean_agreement),
                fmt3(report.worst_agreement),
            ]);
        }
    }
    // Crossbar SVMs under the same print tolerances.
    {
        use ml::data::Standardizer;
        use ml::quant::QuantizedSvm;
        use ml::SvmRegressor;
        let data = Application::RedWine.generate(SEED);
        let (train, test) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let svm = SvmRegressor::fit(&train, 150, 1e-4);
        let fq = FeatureQuantizer::fit(&train, 8);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        let rows: Vec<Vec<u64>> = test
            .x
            .iter()
            .take(row_cap(150))
            .map(|r| fq.code_row(r))
            .collect();
        for report in
            analog::svm_variation_sweep(&qs, 11, &rows, &[0.02, 0.05, 0.1, 0.2], mc_trials(), SEED)
        {
            t.row(vec![
                "redwine (svm)".into(),
                fmt3(report.sigma),
                fmt3(report.mean_agreement),
                fmt3(report.worst_agreement),
            ]);
        }
    }
    t
}

/// Manufacturing-test coverage: what fraction of single-stuck-at faults
/// the application's own test data detects on a bespoke tree. A tag is
/// tested right off the printer; real sensor-like stimuli are the
/// cheapest vector set available, and this measures how good they are.
pub fn fault_coverage_analysis() -> Table {
    let mut t = Table::new(
        "Test: stuck-at fault coverage of bespoke trees (test-set vectors)",
        &["dataset", "vectors", "fault sites", "detected", "coverage"],
    );
    for app in [Application::Har, Application::Cardio] {
        let flow = TreeFlow::new(app, 4, SEED);
        let module = flow.module(TreeArch::BespokeParallel).expect("digital");
        let vectors = crate::workloads::tree_test_vectors(&flow, row_cap(150));
        let cov = netlist::try_fault_coverage(&module, &vectors).expect("combinational tree");
        t.row(vec![
            app.name().into(),
            vectors.len().to_string(),
            cov.total.to_string(),
            cov.detected.to_string(),
            fmt3(cov.coverage()),
        ]);
    }
    t
}

/// Serial (time-multiplexed) vs parallel bespoke SVM engines — the
/// missing quadrant of the paper's serial/parallel × tree/SVM matrix.
pub fn ablation_serial_svm() -> Table {
    use ml::data::Standardizer;
    use ml::quant::QuantizedSvm;
    use ml::SvmRegressor;
    use printed_core::bespoke::bespoke_svm;
    use printed_core::extension::serial_svm;
    let mut t = Table::new(
        "Ablation: serial vs parallel bespoke SVM engines (EGT)",
        &[
            "dataset",
            "engine",
            "cycles",
            "latency",
            "logic area",
            "power",
        ],
    );
    let lib = egt();
    for app in [Application::RedWine, Application::Cardio, Application::Har] {
        let data = app.generate(SEED);
        let (train, _) = data.split(0.7, 42);
        let s = Standardizer::fit(&train);
        let train = s.transform(&train);
        let svm = SvmRegressor::fit(&train, 150, 1e-4);
        let fq = FeatureQuantizer::fit(&train, 6);
        let qs = QuantizedSvm::from_svm(&svm, &fq);
        let par = analyze(&bespoke_svm(&qs), &lib);
        t.row(vec![
            app.name().into(),
            "parallel".into(),
            "1".into(),
            format!("{}", par.latency(1)),
            format!("{}", par.logic_area),
            format!("{}", par.power),
        ]);
        let (module, info) = serial_svm(&qs);
        let ser = analyze(&module, &lib);
        t.row(vec![
            app.name().into(),
            "serial".into(),
            info.cycles.to_string(),
            format!("{}", ser.latency(info.cycles)),
            format!("{}", ser.logic_area),
            format!("{}", ser.power),
        ]);
    }
    t
}

/// Sensor-drift robustness: quantized-tree accuracy as deployed sensors
/// drift away from their training calibration (the classic GasID failure
/// mode — printed tags live for weeks on a shelf).
pub fn drift_robustness() -> Table {
    use ml::metrics::accuracy;
    let mut t = Table::new(
        "Robustness: quantized-tree accuracy under sensor drift",
        &["dataset", "drift (sigma)", "accuracy"],
    );
    for app in [Application::GasId, Application::Cardio] {
        let data = app.generate(SEED);
        let (train, test) = data.split(0.7, 42);
        let s = ml::Standardizer::fit(&train);
        let (train, test) = (s.transform(&train), s.transform(&test));
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(4));
        let fq = FeatureQuantizer::fit(&train, 8);
        let qt = QuantizedTree::from_tree(&tree, &fq);
        for drift in [0.0, 0.1, 0.25, 0.5, 1.0] {
            let drifted = test.with_drift(drift, SEED);
            let acc = accuracy(
                drifted.x.iter().map(|r| qt.predict(&fq.code_row(r))),
                drifted.y.iter().copied(),
            )
            .expect("predictions align with test labels");
            t.row(vec![app.name().into(), fmt3(drift), fmt3(acc)]);
        }
    }
    t
}

/// Battery life of the powerable designs at a per-minute duty cycle.
pub fn battery_life() -> Table {
    use printed_core::report::DutyCycle;
    let mut t = Table::new(
        "Deployment: Blue Spark 30mAh battery life at one inference per minute",
        &["dataset", "architecture", "avg power", "battery days"],
    );
    let battery = pdk::PowerSource::blue_spark_30mah();
    for app in [Application::Har, Application::Cardio, Application::RedWine] {
        let flow = TreeFlow::new(app, 4, SEED);
        for (name, arch) in [
            ("bespoke-parallel", TreeArch::BespokeParallel),
            (
                "analog",
                TreeArch::Analog(analog::tree::AnalogTreeConfig::default()),
            ),
        ] {
            let r = flow.report(arch, Technology::Egt);
            let avg = r.average_power(DutyCycle::per_minute());
            let days = r
                .battery_days(&battery, DutyCycle::per_minute())
                .map(|d| format!("{d:.0}"))
                .unwrap_or_else(|| "peak too high".into());
            t.row(vec![app.name().into(), name.into(), format!("{avg}"), days]);
        }
    }
    t
}

/// Bent-corner signoff: the §VII 10 mm-radius derate applied to a bespoke
/// design.
pub fn bent_corner() -> Table {
    let mut t = Table::new(
        "Deployment: nominal vs bent-corner (10mm radius) signoff, bespoke tree (EGT)",
        &["dataset", "corner", "latency", "power", "powered by"],
    );
    let nominal = egt();
    let bent = nominal.bent_corner();
    for app in [Application::Cardio, Application::Pendigits] {
        let flow = TreeFlow::new(app, 4, SEED);
        let module = flow.module(TreeArch::BespokeParallel).expect("digital");
        for (name, lib) in [("nominal", &nominal), ("bent", &bent)] {
            let ppa = analyze(&module, lib);
            let feas = pdk::classify(ppa.power);
            t.row(vec![
                app.name().into(),
                name.into(),
                format!("{}", ppa.latency(1)),
                format!("{}", ppa.power),
                feas.source_name().into(),
            ]);
        }
    }
    t
}
