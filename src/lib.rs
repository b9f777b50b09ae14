#![warn(missing_docs)]

//! # printed-ml — Printed Machine Learning Classifiers, reproduced in Rust
//!
//! A full reproduction of *Printed Machine Learning Classifiers*
//! (Mubarik, Weller et al., MICRO 2020): bespoke, lookup-based and analog
//! classifier architectures for low-voltage printed electronics, together
//! with every substrate the paper's evaluation rests on — calibrated
//! EGT / CNT-TFT / TSMC-40nm cell libraries, a gate-level netlist flow
//! with logic optimization and functional simulation, from-scratch
//! classifier training, and an analog circuit layer with transient
//! simulation.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`pdk`] — technologies, cell libraries, ROM macros, power sources;
//! * [`netlist`] — IR, generators, optimizer, PPA analysis, simulator;
//! * [`ml`] — datasets, classifiers, quantization, op counting;
//! * [`analog`] — device models, analog comparators/crossbars, transients;
//! * [`core`] (crate `printed-core`) — the classifier architecture
//!   generators and end-to-end flows;
//! * [`exec`] — the deterministic parallel execution substrate (work
//!   pool, seed streams, PRNG) every Monte Carlo sweep runs on;
//! * [`obs`] — the unified observability layer (span timers, counters,
//!   gauges and the `obs-report-v1` report `repro_all --json` emits);
//! * [`cache`] — the content-addressed artifact cache memoizing trained
//!   models, optimized netlists and PPA results across runs (opt-in;
//!   see `docs/caching.md`).
//!
//! ## Quickstart
//!
//! ```
//! use printed_ml::core::flow::{TreeArch, TreeFlow};
//! use printed_ml::ml::synth::Application;
//! use printed_ml::pdk::Technology;
//!
//! // Train a depth-2 tree for a human-activity tag, generate the bespoke
//! // parallel architecture, and price it in printed EGT technology.
//! let flow = TreeFlow::new(Application::Har, 2, 7);
//! let report = flow.report(TreeArch::BespokeParallel, Technology::Egt);
//! assert!(report.feasibility().is_powerable());
//! ```
//!
//! See `examples/` for complete application walkthroughs and
//! `crates/bench` for the binaries regenerating every table and figure of
//! the paper.

pub use analog;
pub use cache;
pub use exec;
pub use ml;
pub use netlist;
pub use obs;
pub use pdk;
pub use printed_core as core;
