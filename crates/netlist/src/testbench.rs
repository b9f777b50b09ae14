//! Self-checking Verilog testbench emission.
//!
//! The paper's flow hands generated RTL to a commercial tool chain; ours
//! can do the same, and this module closes the loop by emitting a
//! testbench whose expected outputs come from our own functional
//! simulator. Run the pair through any Verilog simulator and a mismatch
//! prints `FAIL`; a clean run prints `PASS`.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::compile::{CompiledNetlist, WideSim};
use crate::error::SimError;
use crate::ir::Module;
use crate::sim::Simulator;
use crate::verilog::to_verilog;

/// One stimulus: a value per input port, in the module's port order.
pub type Vector = Vec<u64>;

/// Renders `module` plus a self-checking testbench over `vectors`.
///
/// For combinational modules each vector is applied and checked after a
/// settle delay; for sequential modules the testbench pulses the clock
/// `cycles_per_vector` times after applying each vector (matching how the
/// serial tree consumes one inference per `depth` cycles).
///
/// Expected outputs are this crate's own semantics made executable:
/// combinational modules are batched through the compiled wide-lane
/// kernel (256 vectors per settle), sequential ones are stepped through
/// the scalar [`Simulator`].
///
/// # Errors
/// A vector whose length differs from the module's input count is
/// reported as [`SimError::VectorArity`]; a module either engine rejects
/// (invalid, cyclic, ports wider than 64 bits) as that engine's
/// [`SimError`].
pub fn to_testbench(
    module: &Module,
    vectors: &[Vector],
    cycles_per_vector: usize,
) -> Result<String, SimError> {
    let mut out = to_verilog(module);
    let sequential = !module.is_combinational();
    for (index, vector) in vectors.iter().enumerate() {
        if vector.len() != module.inputs.len() {
            return Err(SimError::VectorArity {
                index,
                got: vector.len(),
                want: module.inputs.len(),
            });
        }
    }
    // Expected outputs for combinational modules, one row per vector
    // (values per output port), computed 256 lanes at a time.
    let mut expected_rows: Vec<Vec<u64>> = Vec::with_capacity(vectors.len());
    if !sequential {
        let mut sim: WideSim<4> = WideSim::new(Arc::new(CompiledNetlist::try_compile(module)?));
        for chunk in vectors.chunks(WideSim::<4>::LANES) {
            let image = sim.try_pack_vectors(chunk)?;
            sim.try_load_packed(&image)?;
            sim.settle();
            let per_port = module
                .outputs
                .iter()
                .map(|p| sim.try_lanes(&p.name, chunk.len()))
                .collect::<Result<Vec<_>, SimError>>()?;
            for lane in 0..chunk.len() {
                expected_rows.push(per_port.iter().map(|col| col[lane]).collect());
            }
        }
        crate::compile::record_settles(
            vectors.len().div_ceil(WideSim::<4>::LANES) as u64,
            vectors.len() as u64,
        );
    }
    let mut sim = sequential.then(|| Simulator::try_new(module)).transpose()?;

    let _ = writeln!(out, "\nmodule tb;");
    if sequential {
        let _ = writeln!(out, "  reg clk = 0;");
        let _ = writeln!(out, "  always #5 clk = ~clk;");
    }
    for p in &module.inputs {
        let _ = writeln!(
            out,
            "  reg [{}:0] {} = 0;",
            p.width().saturating_sub(1),
            p.name
        );
    }
    for p in &module.outputs {
        let _ = writeln!(
            out,
            "  wire [{}:0] {};",
            p.width().saturating_sub(1),
            p.name
        );
    }
    let mut ports: Vec<String> = Vec::new();
    if sequential {
        ports.push(".clk(clk)".to_string());
    }
    for p in module.inputs.iter().chain(&module.outputs) {
        ports.push(format!(".{0}({0})", p.name));
    }
    let name: String = module
        .name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let _ = writeln!(out, "  {name} dut ({});", ports.join(", "));
    let _ = writeln!(out, "  integer errors = 0;");
    let _ = writeln!(out, "  initial begin");

    for (vi, vector) in vectors.iter().enumerate() {
        // Drive the scalar simulator (sequential only) to learn the
        // expected outputs; combinational expectations were batched above.
        if let Some(sim) = sim.as_mut() {
            sim.reset();
        }
        for (p, &v) in module.inputs.iter().zip(vector) {
            if let Some(sim) = sim.as_mut() {
                sim.try_set(&p.name, v)?;
            }
            let _ = writeln!(out, "    {} = {}'d{};", p.name, p.width(), v);
        }
        if let Some(sim) = sim.as_mut() {
            for _ in 0..cycles_per_vector.max(1) {
                sim.step();
            }
            sim.settle();
            // The DUT needs a reset per vector in general; this testbench
            // targets designs whose state converges from the vector alone
            // within the cycle budget, so we simply wait the cycles out.
            let _ = writeln!(
                out,
                "    repeat ({}) @(posedge clk);",
                cycles_per_vector.max(1)
            );
            let _ = writeln!(out, "    #1;");
        } else {
            let _ = writeln!(out, "    #10;");
        }
        for (oi, p) in module.outputs.iter().enumerate() {
            let expect = match sim.as_mut() {
                Some(sim) => sim.try_get(&p.name)?,
                None => expected_rows[vi][oi],
            };
            let _ = writeln!(
                out,
                "    if ({} !== {}'d{}) begin $display(\"FAIL vector {} port {}: got %0d want {}\", {}); errors = errors + 1; end",
                p.name,
                p.width(),
                expect,
                vi,
                p.name,
                expect,
                p.name
            );
        }
    }
    let _ = writeln!(out, "    if (errors == 0) $display(\"PASS\");");
    let _ = writeln!(out, "    $finish;");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn combinational_testbench_embeds_expected_values() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("adder");
        let x = b.input("x", 3);
        let y = b.input("y", 3);
        let s = crate::arith::add(&mut b, &x, &y);
        b.output("s", &s);
        let m = b.finish();
        let tb = to_testbench(&m, &[vec![3, 4], vec![7, 7]], 1)?;
        assert!(tb.contains("module tb;"));
        assert!(tb.contains("4'd7"), "3+4 expectation missing:\n{tb}");
        assert!(tb.contains("4'd14"), "7+7 expectation missing");
        assert!(tb.contains("PASS"));
        assert!(
            !tb.contains("clk"),
            "combinational testbench needs no clock"
        );
        Ok(())
    }

    #[test]
    fn sequential_testbench_pulses_the_clock() -> Result<(), SimError> {
        let mut b = NetlistBuilder::new("reg");
        let d = b.input("d", 2);
        let q = b.register(&d, 0);
        b.output("q", &q);
        let m = b.finish();
        let tb = to_testbench(&m, &[vec![2]], 1)?;
        assert!(tb.contains("always #5 clk = ~clk;"));
        assert!(tb.contains("repeat (1) @(posedge clk);"));
        assert!(tb.contains("2'd2"));
        Ok(())
    }

    #[test]
    fn wrong_arity_vectors_are_rejected() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x", 1);
        b.output("o", &[x[0]]);
        let m = b.finish();
        assert_eq!(
            to_testbench(&m, &[vec![1], vec![1, 2]], 1),
            Err(SimError::VectorArity {
                index: 1,
                got: 2,
                want: 1
            })
        );
    }
}
