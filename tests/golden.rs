//! Golden regression tests: pin the deterministic quantities of the
//! seed-7 reproduction pipeline so refactors that silently change results
//! fail loudly. Every value here was produced by the recorded
//! `repro_all` run documented in EXPERIMENTS.md; if an intentional change
//! moves one, update it *and* EXPERIMENTS.md together.

use printed_ml::ml::opcount::CountOps;
use printed_ml::ml::synth::Application;
use printed_ml::ml::tree::{DecisionTree, TreeParams};
use printed_ml::ml::{LogisticRegression, SvmClassifier};

#[test]
fn dataset_shapes_are_pinned() {
    let expect = [
        (Application::Arrhythmia, 263, 11, 452),
        (Application::Cardio, 19, 3, 2126),
        (Application::GasId, 127, 6, 2000),
        (Application::Har, 12, 5, 3000),
        (Application::Pendigits, 16, 10, 5000),
        (Application::RedWine, 11, 6, 1599),
        (Application::WhiteWine, 11, 7, 4898),
    ];
    for (app, features, classes, samples) in expect {
        let d = app.generate(7);
        assert_eq!(
            (d.n_features(), d.n_classes, d.len()),
            (features, classes, samples),
            "{}",
            app.name()
        );
    }
}

#[test]
fn formula_exact_op_counts_match_the_paper_cells() {
    // These equal the published Table II entries exactly because they are
    // determined by dataset shape, not training noise.
    let arr = Application::Arrhythmia.generate(7);
    let svm_c = SvmClassifier::fit(&arr, 1, 1e-3, 7);
    assert_eq!(svm_c.op_count().macs, 14_465); // paper: "14k"
    assert_eq!(svm_c.op_count().comparisons, 55);
    let lr = LogisticRegression::fit(&arr, 1, 0.1);
    assert_eq!(lr.op_count().macs, 2_893); // paper: 2893
}

#[test]
fn seed7_tree_structures_are_stable() {
    // Node counts of the seed-7 trained trees (not paper values — ours,
    // pinned against accidental drift in training or data generation).
    let counts: Vec<(Application, usize, usize)> = vec![
        (Application::Cardio, 4, 14),
        (Application::Har, 4, 14),
        (Application::Pendigits, 4, 15),
    ];
    for (app, depth, expect_nodes) in counts {
        let data = app.generate(7);
        let (train, _) = data.split(0.7, 42);
        let tree = DecisionTree::fit(&train, TreeParams::with_depth(depth));
        assert_eq!(
            tree.comparison_count(),
            expect_nodes,
            "{} depth {}: drifted to {} nodes",
            app.name(),
            depth,
            tree.comparison_count()
        );
    }
}

#[test]
fn conventional_engine_gate_counts_are_stable() {
    use printed_ml::core::conventional::parallel_tree::{generate, ParallelTreeSpec};
    use printed_ml::core::conventional::svm::{generate as gen_svm, SvmSpec};
    // Structure-determined: depends only on the generators.
    let dt4 = generate(&ParallelTreeSpec::conventional(4));
    assert_eq!(dt4.dff_count(), 15 * 2 * 8 + 16 * 5);
    let svm4 = gen_svm(&SvmSpec {
        width: 4,
        n_features: 8,
        n_boundaries: 3,
    });
    // 8 features x (2 registers x 4b) + boundary registers 3 x sum_width.
    let sum_width = SvmSpec {
        width: 4,
        n_features: 8,
        n_boundaries: 3,
    }
    .sum_width();
    assert_eq!(svm4.dff_count(), 8 * 2 * 4 + 3 * sum_width);
}

#[test]
fn width_search_choices_are_stable() {
    use printed_ml::core::flow::TreeFlow;
    // The §IV-A width search is deterministic at seed 7; pin its picks.
    let picks: Vec<(Application, usize)> = vec![(Application::Cardio, 8), (Application::Har, 12)];
    for (app, expect_bits) in picks {
        let flow = TreeFlow::new(app, 4, 7);
        assert_eq!(
            flow.choice.bits,
            expect_bits,
            "{}: width search drifted to {} bits",
            app.name(),
            flow.choice.bits
        );
    }
}

#[test]
fn raw_generator_structures_are_pinned() {
    use printed_ml::cache::key_for;
    use printed_ml::core::bespoke::{bespoke_parallel_raw, bespoke_svm_raw};
    use printed_ml::core::flow::{SvmFlow, TreeFlow};
    use printed_ml::core::lookup::{lookup_parallel_raw, lookup_svm_raw, LookupConfig};
    use printed_ml::core::serial_svm;
    // The module key hashes every gate (kind, pins, region tag), ROM,
    // port and region name, so these pin the raw generators gate for
    // gate, in emission order.
    let key = |m: &printed_ml::netlist::Module| key_for("golden", m).to_string();
    let qt = TreeFlow::new(Application::Har, 4, 7).qt;
    let qs = SvmFlow::new(Application::RedWine, 7).qs;
    let (base, opt) = (LookupConfig::baseline(), LookupConfig::optimized());
    let got = [
        key(&bespoke_parallel_raw(&qt)),
        key(&lookup_parallel_raw(&qt, base)),
        key(&lookup_parallel_raw(&qt, opt)),
        key(&bespoke_svm_raw(&qs)),
        key(&lookup_svm_raw(&qs, base)),
        key(&lookup_svm_raw(&qs, opt)),
        key(&serial_svm(&qs).0),
    ];
    let want = [
        "293ef55dbc8928863e319b77c8c763d9",
        "fbc20c017856b99df7e3edabfd2fb290",
        "ecd2eccdfce93aaa6bda181d46daa665",
        "d4f5009f44b14f9a703b8d0a760694c6",
        "98df75e419c5219001bac94acb6ab99d",
        "99b2c15a71e9d2b0e112647889d504d5",
        "1703a962f98cc8f7ddd640380bb935e7",
    ];
    assert_eq!(got, want);
}

#[test]
fn forest_engines_are_pinned() {
    use printed_ml::core::flow::ForestFlow;
    use printed_ml::core::lookup::LookupConfig;
    use printed_ml::core::ForestStyle;
    use printed_ml::netlist::analyze;
    use printed_ml::pdk::{CellLibrary, Technology};
    // Gate count and the exact bits of area, power and delay; region
    // tags are not part of the pin.
    let flow = ForestFlow::new(Application::Cardio, 4, 7);
    let lib = CellLibrary::for_technology(Technology::Egt);
    let styles = [
        ForestStyle::Bespoke,
        ForestStyle::Lookup(LookupConfig::optimized()),
    ];
    let got = styles.map(|style| {
        let m = flow.module(style);
        let ppa = analyze(&m, &lib);
        let bits = [ppa.area.value(), ppa.power.value(), ppa.delay.value()].map(f64::to_bits);
        format!(
            "{} {:016x} {:016x} {:016x}",
            m.gate_count(),
            bits[0],
            bits[1],
            bits[2]
        )
    });
    let want = [
        "1247 407fbfae147ae1c6 40362a9930be0d9e 3f9841aac53b0812",
        "426 40797d604189373a 405100d2b2bfdb4e 3f9907d912556d18",
    ];
    assert_eq!(got, want);
}
