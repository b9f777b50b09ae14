//! Smart wound dressing: serial vs parallel vs lookup tradeoffs.
//!
//! The paper's healthcare scenario: a printed dressing classifying wound
//! state from its sensors ([48]). Latency hardly matters (a reading per
//! hour is plenty) but the dressing must be *small* and run from a
//! harvester or thin battery, so this example walks the tree-architecture
//! tradeoff space — serial (small, slow), parallel (fast, big), lookup
//! (deep trees only) — at several depths, then sanity-checks the chosen
//! engine cycle by cycle in the functional simulator.
//!
//! ```text
//! cargo run --release --example wound_dressing
//! ```

use printed_ml::core::flow::{TreeArch, TreeFlow};
use printed_ml::core::LookupConfig;
use printed_ml::ml::synth::Application;
use printed_ml::netlist::{SimError, Simulator};
use printed_ml::pdk::Technology;

fn main() -> Result<(), SimError> {
    println!("== smart wound dressing: tree architecture tradeoffs ==\n");

    // Cardiotocography stands in for the dressing's multi-sensor readout
    // (3 condition classes: healing / stalled / deteriorating).
    for depth in [2usize, 4, 8] {
        let flow = TreeFlow::new(Application::Cardio, depth, 7);
        println!(
            "depth {depth}: {:.3} quantized accuracy at {} bits, {} nodes",
            flow.choice.accuracy,
            flow.choice.bits,
            flow.qt.comparison_count()
        );
        for (name, arch) in [
            ("bespoke-serial", TreeArch::BespokeSerial),
            ("bespoke-parallel", TreeArch::BespokeParallel),
            ("lookup+opt", TreeArch::Lookup(LookupConfig::optimized())),
        ] {
            let r = flow.report(arch, Technology::Egt);
            println!(
                "  {:>16}: latency {:>10}, area {:>11}, power {:>10} -> {}",
                name,
                r.latency.to_string(),
                r.area.to_string(),
                r.power.to_string(),
                r.feasibility().source_name()
            );
        }
        println!();
    }

    // Drive the serial engine cycle by cycle for one reading, the way the
    // dressing's sequencer would.
    let flow = TreeFlow::new(Application::Cardio, 4, 7);
    let module = flow
        .module(TreeArch::BespokeSerial)
        .expect("digital design");
    let mut sim = Simulator::try_new(&module)?;
    let row = &flow.test.x[0];
    let codes = flow.fq.code_row(row);
    sim.reset();
    for (slot, &f) in flow.qt.used_features().iter().enumerate() {
        sim.try_set(&format!("f{slot}"), codes[f])?;
    }
    println!("serial engine trace (one inference):");
    for cycle in 0..flow.qt.depth().max(1) {
        sim.step();
        sim.settle();
        println!(
            "  cycle {:>2}: done={} class-so-far={}",
            cycle + 1,
            sim.try_get("done")?,
            sim.try_get("class")?
        );
    }
    let hw = sim.try_get("class")? as usize;
    let sw = flow.qt.predict(&codes);
    println!("hardware says class {hw}, software model says {sw}");
    assert_eq!(hw, sw);
    Ok(())
}
