//! Output digests: a 64-bit FNV-1a hash over the exact bits of every
//! result a job returns, and the table of digests pinned at the default
//! seed.

use std::collections::BTreeMap;

use analog::VariationReport;
use netlist::{Equivalence, FaultCoverage};
use printed_core::DesignReport;

/// File (beside `Cargo.toml`) holding the digests pinned at
/// [`crate::seeds::DEFAULT_SEED`]: one `job-key hex-digest` per line.
pub const PINNED_FILE: &str = "pinned_digests.txt";

const PINNED: &str = include_str!("../pinned_digests.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Incremental FNV-1a digest.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds a float in by its exact bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Folds a length-framed string in.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Every field of a design report, floats at full precision.
    pub fn design_report(&mut self, r: &DesignReport) {
        self.str(&r.name);
        self.str(&format!("{:?}", r.technology));
        for x in [r.latency.value(), r.area.value(), r.power.value()] {
            self.f64(x);
        }
        for x in [r.logic_area.value(), r.memory_area.value()] {
            self.f64(x);
        }
        for x in [r.logic_power.value(), r.memory_power.value()] {
            self.f64(x);
        }
        for n in [r.gate_count, r.cycles, r.transistors] {
            self.u64(n as u64);
        }
    }

    /// The verdict and vector count of an equivalence check.
    pub fn equivalence(&mut self, eq: &Equivalence) {
        match eq {
            Equivalence::Equivalent {
                vectors,
                exhaustive,
            } => {
                self.u64(1);
                self.u64(*vectors as u64);
                self.u64(u64::from(*exhaustive));
            }
            Equivalence::CounterExample(values) => {
                self.u64(0);
                values.iter().for_each(|&v| self.u64(v));
            }
        }
    }

    /// Fault-coverage totals.
    pub fn fault_coverage(&mut self, cov: &FaultCoverage) {
        self.u64(cov.total as u64);
        self.u64(cov.detected as u64);
        self.u64(cov.undetected.len() as u64);
    }

    /// Every field of a Monte-Carlo variation report.
    pub fn variation(&mut self, r: &VariationReport) {
        self.f64(r.sigma);
        self.u64(r.trials as u64);
        self.f64(r.mean_agreement);
        self.f64(r.worst_agreement);
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Parses a pinned-digest table (`key hex` per line; `#` comments).
pub fn parse_pins(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut pins = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, hex) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {}: expected `key digest`", n + 1))?;
        let digest = u64::from_str_radix(hex.trim(), 16)
            .map_err(|e| format!("line {}: bad digest: {e}", n + 1))?;
        pins.insert(key.to_string(), digest);
    }
    Ok(pins)
}

/// The digests compiled into this binary from [`PINNED_FILE`].
pub fn pinned() -> BTreeMap<String, u64> {
    parse_pins(PINNED).expect("pinned_digests.txt is well-formed")
}

/// Renders a pinned-digest table in the format [`parse_pins`] reads.
pub fn render_pins(pins: &BTreeMap<String, u64>) -> String {
    let mut out = String::from(
        "# Output digests pinned at seed 7 (FNV-1a over exact result bits).\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --pin\n",
    );
    for (key, digest) in pins {
        out.push_str(&format!("{key} {digest:016x}\n"));
    }
    out
}
