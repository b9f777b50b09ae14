#!/usr/bin/env bash
# Forbids panic!(...) and .unwrap( in the listed library files.
#
# The simulation and metrics hot paths expose fallible `try_*` APIs
# (netlist::SimError, ml::MetricsError) with no panicking twins; their
# non-test code must route every failure through those types so the
# differential fuzzer can distinguish "engines disagree" from "input
# rejected". The other files already hold no panic!/unwrap and stay
# that way: among them the printed-core generators built on the shared
# tree and SVM emitters (`emit.rs`), the cache key hasher, the ml
# trainers' crate root and forest, the width search and the end-to-end
# flows. The list only grows, toward the whole `netlist` and `analog`
# crates.
#
# Test modules are exempt: everything from the first `#[cfg(test)]` line
# to end-of-file is stripped before grepping, which is why these files
# keep all their test modules at the bottom.
set -euo pipefail

cd "$(dirname "$0")/.."

FILES=(
  crates/netlist/src/sim.rs
  crates/netlist/src/compile.rs
  crates/netlist/src/faults.rs
  crates/netlist/src/verify.rs
  crates/netlist/src/error.rs
  crates/netlist/src/graph.rs
  crates/netlist/src/comb.rs
  crates/netlist/src/ir.rs
  crates/netlist/src/lib.rs
  crates/netlist/src/seq.rs
  crates/netlist/src/testbench.rs
  crates/netlist/src/verilog.rs
  crates/analog/src/comparator.rs
  crates/analog/src/compile.rs
  crates/analog/src/crossbar.rs
  crates/analog/src/device.rs
  crates/analog/src/lib.rs
  crates/analog/src/svm.rs
  crates/analog/src/transient.rs
  crates/analog/src/tree.rs
  crates/analog/src/variation.rs
  crates/cache/src/hash.rs
  crates/cache/src/lib.rs
  crates/ml/src/metrics.rs
  crates/ml/src/forest.rs
  crates/ml/src/lib.rs
  crates/core/src/emit.rs
  crates/core/src/bespoke/parallel_tree.rs
  crates/core/src/bespoke/svm.rs
  crates/core/src/lookup/tree.rs
  crates/core/src/lookup/svm.rs
  crates/core/src/ensemble.rs
  crates/core/src/extension/serial_svm.rs
  crates/core/src/bitwidth.rs
  crates/core/src/flow.rs
)

status=0
for f in "${FILES[@]}"; do
  # Strip from the first #[cfg(test)] to EOF, drop comment lines (doc
  # examples are compiled as tests, not hot-path code), then look for
  # forbidden tokens in what remains.
  nontest=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//')
  hits=$(printf '%s\n' "$nontest" | grep -nE 'panic!\(|\.unwrap\(' || true)
  if [ -n "$hits" ]; then
    echo "lint_panics: forbidden panic!/unwrap in non-test code of $f:" >&2
    printf '%s\n' "$hits" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "lint_panics: no panic!/unwrap in non-test code (checked ${#FILES[@]} files)"
fi
exit "$status"
