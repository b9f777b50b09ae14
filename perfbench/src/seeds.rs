//! The inputs of a run are derived from the workload seed through
//! `exec::task_seed`, one independent stream per kind of input; only the
//! synthetic datasets are fixed (see [`DATASET_SEED`]).

use exec::task_seed;

/// The paper's seed; the digests in `pinned_digests.txt` are taken at it.
pub const DEFAULT_SEED: u64 = 7;

/// Seed of every synthetic dataset: the paper's, as in the reproduction's
/// tables, whatever the workload seed. The model a dataset trains changes
/// size severalfold between dataset seeds (the bit-width search flips
/// between 4 and 16 bits, and lookup tables grow with 2^bits), so with
/// seeded datasets a run would time its seed's designs rather than the
/// code: the warm replay's median round spread 21% across ten seeds.
pub const DATASET_SEED: u64 = 7;

/// The kinds of input a workload draws from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The order in which the client issues jobs.
    Order = 1,
    /// Simulation vector streams.
    Vectors = 2,
    /// Monte-Carlo trial seeds.
    MonteCarlo = 3,
    /// Seeds handed to seeded fits (SVM-C).
    Fit = 4,
}

/// The `index`-th seed of `stream` under the workload seed `seed`.
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    task_seed(task_seed(seed, stream as u64), index)
}

/// Seeded Fisher-Yates shuffle (the job order of a run).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (derive(seed, Stream::Order, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
