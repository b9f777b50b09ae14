//! # perfbench — outside-in benchmark of the printed-ml pipeline
//!
//! Three seeded workloads, each composed only of public calls into the
//! `ml`, `core`, `netlist`, `analog`, `cache` and `exec` layers:
//!
//! * `design_sweep` — train every Table II model family on every dataset
//!   and price every tree/SVM architecture in every technology, plus the
//!   Table V conventional SVMs, against a fresh artifact cache;
//! * `warm_replay` — the same sweep served from a cache set-up filled;
//! * `signoff` — equivalence checks, fault grading, a compiled-simulation
//!   vector stream and analog Monte Carlo on designs built in set-up.
//!
//! One client issues a round's jobs in seeded order (a closed loop) until
//! the time budget is spent; every job's output digest is checked. An
//! untraced run reports the end-to-end metrics; a traced run adds a span
//! around every layer call and reports per-layer metrics. See README.md.

pub mod design;
pub mod digest;
pub mod harness;
pub mod seeds;
pub mod signoff;
pub mod stats;
pub mod trace;
