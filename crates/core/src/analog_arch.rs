//! Analog architectures wrapped into the common reporting interface
//! (§VI, Figs. 16 and 17).
//!
//! The analog designs live in the `analog` crate (device models, Kirchhoff
//! solvers, transient simulation); this module prices them as
//! [`DesignReport`]s so they slot into the same comparisons as the digital
//! architectures. Analog classifiers are an EGT story — the paper
//! fabricates and evaluates them in EGT only.

use analog::tree::{AnalogTree, AnalogTreeConfig};
use analog::AnalogSvm;
use ml::quant::{QuantizedSvm, QuantizedTree};
use pdk::units::{Area, Power};
use pdk::Technology;

use crate::report::DesignReport;

/// Prices an analog decision tree.
pub fn analog_tree_report(tree: &QuantizedTree, config: AnalogTreeConfig) -> DesignReport {
    let at = AnalogTree::from_tree(tree, config);
    DesignReport {
        name: format!("analog-tree-d{}", tree.depth()),
        technology: Technology::Egt,
        latency: at.latency(),
        area: at.area(),
        power: at.static_power(),
        logic_area: at.area(),
        memory_area: Area::ZERO,
        logic_power: at.static_power(),
        memory_power: Power::ZERO,
        gate_count: 0,
        cycles: 1,
        transistors: at.transistor_count(),
    }
}

/// Prices an analog SVM engine.
pub fn analog_svm_report(svm: &QuantizedSvm, n_features: usize) -> DesignReport {
    let asvm = AnalogSvm::from_svm(svm, n_features);
    DesignReport {
        name: "analog-svm".into(),
        technology: Technology::Egt,
        latency: asvm.latency(),
        area: asvm.area(),
        power: asvm.static_power(),
        logic_area: asvm.area(),
        memory_area: Area::ZERO,
        logic_power: asvm.static_power(),
        memory_power: Power::ZERO,
        gate_count: 0,
        cycles: 1,
        transistors: asvm.transistor_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bespoke::{bespoke_parallel, bespoke_svm};
    use crate::emit::fixtures;
    use crate::report::report_from_ppa;
    use ml::synth::Application;
    use netlist::analyze;
    use pdk::CellLibrary;

    #[test]
    fn analog_tree_dominates_digital_bespoke_in_area_and_power() {
        // Fig. 16: 437× area, 27× power, ~1.6× slower (EGT averages).
        // Band check: two orders of magnitude in area, one in power,
        // slower in latency.
        let (qt, _, _) = fixtures::tree(Application::Pendigits, 8, 8);
        let lib = CellLibrary::for_technology(Technology::Egt);
        let digital = report_from_ppa(
            "bespoke",
            Technology::Egt,
            &analyze(&bespoke_parallel(&qt), &lib),
            1,
        );
        let analog = analog_tree_report(&qt, AnalogTreeConfig::default());
        let imp = analog.improvement_over(&digital);
        assert!(imp.area > 50.0, "area improvement {}", imp.area);
        assert!(imp.power > 5.0, "power improvement {}", imp.power);
        assert!(
            imp.delay < 1.0,
            "analog should be slower, got {}",
            imp.delay
        );
        assert!(analog.transistors > 0);
    }

    #[test]
    fn analog_svm_dominates_digital_bespoke() {
        // Fig. 17: 490× area, 12× power, ~1.3× slower (EGT averages).
        let (qs, _, _) = fixtures::svm(Application::RedWine, 8);
        let lib = CellLibrary::for_technology(Technology::Egt);
        let digital = report_from_ppa(
            "bespoke",
            Technology::Egt,
            &analyze(&bespoke_svm(&qs), &lib),
            1,
        );
        let analog = analog_svm_report(&qs, 11);
        let imp = analog.improvement_over(&digital);
        assert!(imp.area > 50.0, "area improvement {}", imp.area);
        assert!(imp.power > 3.0, "power improvement {}", imp.power);
        assert!(
            imp.delay < 1.0,
            "analog should be slower, got {}",
            imp.delay
        );
    }

    #[test]
    fn analog_designs_are_harvester_class() {
        // Fig. 19: "Harvesters are now capable of powering several
        // decision trees."
        let (qt, _, _) = fixtures::tree(Application::Har, 4, 4);
        let report = analog_tree_report(&qt, AnalogTreeConfig::default());
        let f = report.feasibility();
        assert!(f.is_powerable());
        assert!(
            f.source_name().contains("harvester") || f.source_name().contains("Harvester"),
            "expected a harvester, got {}",
            f.source_name()
        );
    }
}
