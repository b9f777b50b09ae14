//! Design-package export: everything a fab hand-off needs, in one
//! directory.
//!
//! A "release" of one bespoke classifier consists of the structural
//! Verilog, a self-checking testbench seeded from real test data, and a
//! JSON report (PPA, power source, fabrication economics). This is the
//! artifact a printed-electronics lab would take to their flow.

use std::path::Path;

use netlist::{analyze, to_testbench, to_verilog, Module};
use pdk::{CellLibrary, FabModel, Technology};
use serde::Serialize;

use crate::report::{report_from_ppa, DesignReport};

/// Everything written by [`export_design`].
#[derive(Debug, Clone, Serialize)]
pub struct ExportManifest {
    /// Design name.
    pub name: String,
    /// Files written, relative to the export directory.
    pub files: Vec<String>,
    /// The PPA/power report embedded in `report.json`.
    pub report: DesignReport,
    /// Poisson yield of the die.
    pub yield_fraction: f64,
    /// Marginal cost of one working unit, USD.
    pub unit_cost_usd: f64,
}

/// Writes a design package into `dir`:
///
/// * `<name>.v` — structural Verilog;
/// * `<name>_tb.v` — self-checking testbench over `vectors`
///   (`cycles_per_vector` clocks each for sequential designs);
/// * `report.json` — the [`ExportManifest`].
///
/// Returns the manifest.
///
/// # Errors
/// Propagates filesystem errors (directory creation, file writes), and
/// reports a testbench the simulator cannot produce (wrong vector arity,
/// a module it rejects) as [`std::io::ErrorKind::InvalidInput`] carrying
/// the [`netlist::SimError`].
pub fn export_design(
    dir: &Path,
    module: &Module,
    tech: Technology,
    cycles_per_vector: usize,
    vectors: &[Vec<u64>],
) -> std::io::Result<ExportManifest> {
    std::fs::create_dir_all(dir)?;
    let name = module.name.clone();
    let mut files = Vec::new();

    let verilog_path = format!("{name}.v");
    std::fs::write(dir.join(&verilog_path), to_verilog(module))?;
    files.push(verilog_path);

    if !vectors.is_empty() {
        let tb_path = format!("{name}_tb.v");
        let tb = to_testbench(module, vectors, cycles_per_vector)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        std::fs::write(dir.join(&tb_path), tb)?;
        files.push(tb_path);
    }

    let lib = CellLibrary::for_technology(tech);
    let ppa = analyze(module, &lib);
    let report = report_from_ppa(name.clone(), tech, &ppa, cycles_per_vector.max(1));
    let fab = FabModel::for_technology(tech);
    let manifest = ExportManifest {
        name,
        files: files.clone(),
        yield_fraction: fab.yield_of(report.area),
        unit_cost_usd: fab.marginal_cost_usd(report.area),
        report,
    };
    let json = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
    std::fs::write(dir.join("report.json"), json)?;
    let mut manifest = manifest;
    manifest.files.push("report.json".to_string());
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{TreeArch, TreeFlow};
    use ml::synth::Application;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("printed-ml-export-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn export_writes_the_full_package() {
        let flow = TreeFlow::new(Application::Har, 2, 7);
        let module = flow.module(TreeArch::BespokeParallel).unwrap();
        let vectors: Vec<Vec<u64>> = flow
            .test
            .x
            .iter()
            .take(8)
            .map(|row| {
                let codes = flow.fq.code_row(row);
                flow.qt.used_features().iter().map(|&f| codes[f]).collect()
            })
            .collect();
        let dir = tmpdir("pkg");
        let manifest = export_design(&dir, &module, Technology::Egt, 1, &vectors).expect("export");
        assert!(dir.join(format!("{}.v", module.name)).exists());
        assert!(dir.join(format!("{}_tb.v", module.name)).exists());
        assert!(dir.join("report.json").exists());
        assert_eq!(manifest.files.len(), 3);
        assert!(manifest.yield_fraction > 0.9);
        assert!(
            manifest.unit_cost_usd < 0.01,
            "sub-cent: {}",
            manifest.unit_cost_usd
        );
        // The JSON round-trips as JSON.
        let body = std::fs::read_to_string(dir.join("report.json")).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(parsed["name"], module.name.as_str());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_without_vectors_skips_the_testbench() {
        let flow = TreeFlow::new(Application::Cardio, 2, 7);
        let module = flow.module(TreeArch::BespokeParallel).unwrap();
        let dir = tmpdir("novec");
        let manifest = export_design(&dir, &module, Technology::Egt, 1, &[]).expect("export");
        assert!(!dir.join(format!("{}_tb.v", module.name)).exists());
        assert_eq!(manifest.files.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
