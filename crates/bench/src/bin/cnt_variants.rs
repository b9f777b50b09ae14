//! CNT-TFT counterparts of Figs. 6/7/11 — quoted in the paper's prose as
//! "(not shown)": bespoke serial 1.02x/1.33x/1.26x, bespoke parallel
//! 6.6x/62.6x/27.3x, bespoke SVM 1.7x/16x/8.96x (delay/area/power
//! averages). Pass `--json PATH` to dump machine-readable results.
//!
//! Arguments are checked before anything is computed: an unknown flag or
//! a `--json` without a path prints usage and exits 2; an unwritable
//! path exits 1.

use bench::{fmt_ratio, Table};
use pdk::Technology;
use printed_core::flow::{SvmArch, TreeArch};
use printed_core::report::Improvement;

fn tree_table(title: &str, arch: TreeArch, baseline: TreeArch) -> Table {
    let mut t = Table::new(title, &["dataset", "depth", "delay", "area", "power"]);
    let mut imps = Vec::new();
    for depth in [2usize, 4, 8] {
        for flow in bench::workloads::tree_flows(depth) {
            let b = flow.report(baseline, Technology::CntTft);
            let m = flow.report(arch, Technology::CntTft);
            if m.area.is_zero() {
                continue;
            }
            let imp = m.improvement_over(&b);
            imps.push(imp);
            t.row(vec![
                flow.app.name().into(),
                depth.to_string(),
                fmt_ratio(imp.delay),
                fmt_ratio(imp.area),
                fmt_ratio(imp.power),
            ]);
        }
    }
    let mean = Improvement::mean(&imps);
    t.row(vec![
        "AVERAGE".into(),
        "-".into(),
        fmt_ratio(mean.delay),
        fmt_ratio(mean.area),
        fmt_ratio(mean.power),
    ]);
    t
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: cnt_variants [--json PATH]");
    std::process::exit(2);
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let Some(path) = args.next() else {
                    usage_error("--json requires a path");
                };
                json_path = Some(path);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    let mut tables = vec![
        tree_table(
            "CNT-TFT: bespoke serial vs conventional serial (paper avg 1.02x/1.33x/1.26x)",
            TreeArch::BespokeSerial,
            TreeArch::ConventionalSerial,
        ),
        tree_table(
            "CNT-TFT: bespoke parallel vs conventional parallel (paper avg 6.6x/62.6x/27.3x)",
            TreeArch::BespokeParallel,
            TreeArch::ConventionalParallel,
        ),
    ];
    let mut svm = Table::new(
        "CNT-TFT: bespoke SVM vs conventional SVM (paper avg 1.7x/16x/8.96x)",
        &["dataset", "delay", "area", "power"],
    );
    let mut imps = Vec::new();
    for flow in bench::workloads::svm_flows() {
        let b = flow.report(SvmArch::Conventional, Technology::CntTft);
        let m = flow.report(SvmArch::Bespoke, Technology::CntTft);
        let imp = m.improvement_over(&b);
        imps.push(imp);
        svm.row(vec![
            flow.app.name().into(),
            fmt_ratio(imp.delay),
            fmt_ratio(imp.area),
            fmt_ratio(imp.power),
        ]);
    }
    let mean = Improvement::mean(&imps);
    svm.row(vec![
        "AVERAGE".into(),
        fmt_ratio(mean.delay),
        fmt_ratio(mean.area),
        fmt_ratio(mean.power),
    ]);
    tables.push(svm);
    for t in &tables {
        print!("{t}");
    }
    if let Some(path) = json_path {
        let body = serde_json::to_string_pretty(&tables).expect("serialize tables");
        if let Err(err) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
