//! Pinned cache keys of every producer that memoizes through
//! `cache::get_or_compute`.
//!
//! Each producer runs once on a small fixed input with the cache on and
//! an empty disk root, and must write exactly one entry in its domain,
//! `cache-v1/<domain>/<hex>.json`. The hex digests are the keys existing
//! stores hold: if one moves, every user's cached artifacts of that kind
//! silently stop matching, so a deliberate change must bump
//! `cache::SCHEMA` and re-pin them.

use std::path::Path;

use ml::data::Dataset;
use ml::forest::{ForestParams, RandomForest};
use ml::linear::{LogisticRegression, SvmClassifier, SvmRegressor};
use ml::mlp::{Mlp, MlpParams};
use ml::synth::Application;
use ml::tree::{DecisionTree, TreeParams};
use netlist::builder::NetlistBuilder;
use netlist::ir::Module;
use pdk::{CellLibrary, Technology};
use printed_core::{ForestFlow, SvmFlow, TreeFlow};

fn dataset() -> Dataset {
    let x = (0..12)
        .map(|i| vec![f64::from(i) * 0.25, f64::from(i % 3) - 1.0])
        .collect();
    let y = (0..12).map(|i| i % 3).collect();
    Dataset::new("pinned", x, y, 3)
}

fn module() -> Module {
    let mut b = NetlistBuilder::new("pinned");
    let x = b.input("x", 3);
    let y = b.and(x[0], x[1]);
    let z = b.xor(y, x[2]);
    b.output("z", &[z]);
    b.finish()
}

/// Runs `produce` against an empty disk root and returns the names of
/// the entries written under `cache-v1/<domain>/`.
fn entries(root: &Path, domain: &str, produce: &dyn Fn()) -> Vec<String> {
    let _ = std::fs::remove_dir_all(root);
    cache::set_disk_root(Some(root.to_path_buf()));
    cache::clear_memory();
    produce();
    let dir = root.join(cache::SCHEMA).join(domain);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map(|files| {
            files
                .flatten()
                .map(|f| f.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn every_producer_writes_one_entry_under_its_pinned_key() {
    let data = dataset();
    let lib = CellLibrary::for_technology(Technology::Egt);
    let cases: [(&str, &str, &dyn Fn()); 11] = [
        ("netlist.ppa", "ebc72d6154d5dc5013c0ecc3f1fff911", &|| {
            netlist::analyze(&module(), &lib);
        }),
        ("netlist.opt", "22a7324c09eb74c30b7a8d865613739f", &|| {
            netlist::opt::optimize(&module());
        }),
        ("ml.tree.fit", "3e9ebf93b2301c9fe163f11e25b65228", &|| {
            DecisionTree::fit(&data, TreeParams::with_depth(2));
        }),
        ("ml.forest.fit", "b0d2131f7ceb6b83e17d510815577ba2", &|| {
            RandomForest::fit(&data, ForestParams::paper(2));
        }),
        ("ml.mlp.fit", "c1c455879ab8d8be652fa1cd298371fd", &|| {
            let params = MlpParams {
                hidden: vec![3, 2],
                epochs: 2,
                lr: 0.05,
                seed: 7,
            };
            Mlp::fit(&data, &params);
        }),
        ("ml.svm.fit", "925056b35ddda77d1ff712747dc28b95", &|| {
            SvmRegressor::fit(&data, 5, 1e-4);
        }),
        ("ml.svmc.fit", "d6dd6be118de12e69a52ba8a2d88ff92", &|| {
            SvmClassifier::fit(&data, 2, 1e-3, 7);
        }),
        ("ml.lr.fit", "d66fb16bdef7ad39534ccc7714f4896b", &|| {
            LogisticRegression::fit(&data, 3, 0.1);
        }),
        (
            "core.flow.tree",
            "bcbf8a337c1ae05226ee4693b49a0ee5",
            &|| {
                TreeFlow::new(Application::Har, 1, 7);
            },
        ),
        ("core.flow.svm", "63a339c541452297e6857ed4c275ca0e", &|| {
            SvmFlow::new(Application::Har, 7);
        }),
        (
            "core.flow.forest",
            "4f018266824485cb3dd0838155024769",
            &|| {
                ForestFlow::new(Application::Har, 2, 7);
            },
        ),
    ];
    let root =
        std::env::temp_dir().join(format!("printed_ml_producer_keys_{}", std::process::id()));
    cache::set_enabled(true);
    let mut drift = Vec::new();
    for (domain, hex, produce) in cases {
        let written = entries(&root, domain, produce);
        if written != [format!("{hex}.json")] {
            drift.push(format!("{domain}: {written:?}"));
        }
    }
    cache::set_enabled(false);
    cache::set_disk_root(None);
    cache::clear_memory();
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        drift.is_empty(),
        "producer keys drifted:\n{}",
        drift.join("\n")
    );
}
