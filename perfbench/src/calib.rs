//! Host speed: a fixed reference computation, timed between the measured
//! calls, that the benchmark's clock is scaled by.
//!
//! The benchmark's host is a few cores of a machine shared with other
//! tenants, and its speed moves by up to 2× for seconds to minutes at a
//! time, so raw durations carry the host's phase. The reference is the
//! benchmark's own code, never the program's: its work is the same in every
//! commit, and its time moves only with the host. A run times it every
//! [`INTERVAL_MS`] of CPU time, between two layer calls, and every duration
//! measured after that sample is divided by [`slowdown`] — so durations
//! read as milliseconds at the host speed of [`NOMINAL_MS`].
//!
//! Code slows less than the reference when part of its time waits on
//! memory, which a slower phase does not slow as much, so a duration is
//! divided by `(sample / NOMINAL_MS)^α`, with the workload's measured
//! sensitivity `α` ([`set_sensitivity`]).
//!
//! The kernel mixes what the program spends its time on: a sort and a
//! threshold scan over sorted keys (tree fitting), Gaussian-kernel sums (GP
//! prediction), and gathers from a table larger than a core's private cache
//! (feature-plane traversal).

use crate::record::{cpu_ms_since, Stamp};
use crate::stats::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reference time at the nominal host speed, in milliseconds: about the
/// median sample on the 2-vCPU host NOTES.md describes.
pub const NOMINAL_MS: f64 = 4.5;
/// CPU milliseconds between two samples.
const INTERVAL_MS: f64 = 250.0;
/// Keys sorted and scanned per sample.
const KEYS: usize = 1 << 15;
/// Neighbours each key's Gaussian-kernel sum runs over.
const NEIGHBOURS: usize = 8;
/// Entries of the gather table: 8 MiB of `u64`, twice a core's L2.
const TABLE: usize = 1 << 20;
/// Gathers per sample.
const GATHERS: usize = 1 << 15;

/// The latest sample's time over [`NOMINAL_MS`], as `f64` bits; 1 before
/// the first sample. Only the measuring thread writes it.
static LATEST: AtomicU64 = AtomicU64::new(1.0f64.to_bits());
/// The workload's sensitivity `α`, as `f64` bits.
static SENSITIVITY: AtomicU64 = AtomicU64::new(1.0f64.to_bits());

/// Set how strongly the workload's durations follow the reference: the
/// exponent `α` of `duration ∝ reference^α` across the host's speed phases.
pub fn set_sensitivity(alpha: f64) {
    SENSITIVITY.store(alpha.to_bits(), Ordering::Relaxed);
}

/// The factor durations are divided by: the latest sample over
/// [`NOMINAL_MS`], to the power `α`.
pub fn slowdown() -> f64 {
    let alpha = f64::from_bits(SENSITIVITY.load(Ordering::Relaxed));
    f64::from_bits(LATEST.load(Ordering::Relaxed)).powf(alpha)
}

/// The reference kernel's buffers and the samples of a run.
pub struct HostSpeed {
    keys: Vec<f64>,
    table: Vec<u64>,
    /// CPU milliseconds of each sample.
    samples: Vec<f64>,
    /// CPU milliseconds spent sampling.
    spent_ms: f64,
    since: Stamp,
}

impl Default for HostSpeed {
    fn default() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let table = (0..TABLE).map(|_| xorshift(&mut state)).collect();
        Self {
            keys: vec![0.0; KEYS],
            table,
            samples: Vec::new(),
            spent_ms: 0.0,
            since: Stamp::now(),
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl HostSpeed {
    /// Take a sample if [`INTERVAL_MS`] have passed since the last one.
    pub fn tick(&mut self) {
        if cpu_ms_since(self.since) >= INTERVAL_MS {
            self.sample();
        }
    }

    /// Time the reference once and scale the clock by it from now on.
    pub fn sample(&mut self) {
        let start = Stamp::now();
        black_box(self.reference());
        let ms = cpu_ms_since(start);
        self.samples.push(ms);
        LATEST.store((ms / NOMINAL_MS).to_bits(), Ordering::Relaxed);
        self.since = Stamp::now();
        self.spent_ms += cpu_ms_since(start);
    }

    /// The reference computation; returns a checksum so that none of it
    /// is optimised away.
    fn reference(&mut self) -> f64 {
        let mut state = 0x2545_f491_4f6c_dd1d;
        for k in self.keys.iter_mut() {
            *k = (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        }
        self.keys.sort_unstable_by(f64::total_cmp);

        // Best split of the sorted keys by a squared-error gain, as a
        // tree's threshold search scores it.
        let total: f64 = self.keys.iter().sum();
        let (mut left, mut best) = (0.0, 0.0f64);
        for (i, &k) in self.keys.iter().enumerate() {
            left += k;
            let n_left = (i + 1) as f64;
            let n_right = (KEYS - i - 1).max(1) as f64;
            let right = total - left;
            best = best.max(left * left / n_left + right * right / n_right);
        }

        let mut kernel = 0.0;
        for i in 0..KEYS - NEIGHBOURS {
            for j in 1..=NEIGHBOURS {
                let d = (self.keys[i] - self.keys[i + j]) * 1e3;
                kernel += (-d * d).exp();
            }
        }

        let mut gathered = 0u64;
        for _ in 0..GATHERS {
            let at = xorshift(&mut state) as usize & (TABLE - 1);
            gathered = gathered.wrapping_add(black_box(&self.table)[at]);
        }
        best + kernel + (gathered >> 40) as f64
    }

    /// Median sample over [`NOMINAL_MS`]: how much slower than nominal the
    /// host ran over the run. `None` before the first sample.
    pub fn median_slowdown(&self) -> Option<f64> {
        median(&self.samples).map(|ms| ms / NOMINAL_MS)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// CPU milliseconds spent sampling so far.
    pub fn spent_ms(&self) -> f64 {
        self.spent_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_scales_the_clock() {
        let mut host = HostSpeed::default();
        assert_eq!(host.median_slowdown(), None);
        host.sample();
        host.sample();
        assert_eq!(host.samples().len(), 2);
        assert!(host.spent_ms() >= host.samples().iter().sum::<f64>());
        let latest = host.samples()[1] / NOMINAL_MS;
        assert!(latest > 0.0 && latest.is_finite());
        set_sensitivity(0.5);
        assert!((slowdown() - latest.sqrt()).abs() < 1e-12);
        set_sensitivity(1.0);
        assert_eq!(slowdown(), latest);
    }

    #[test]
    fn the_reference_is_deterministic() {
        let mut a = HostSpeed::default();
        let mut b = HostSpeed::default();
        assert_eq!(a.reference().to_bits(), b.reference().to_bits());
        assert_eq!(a.reference().to_bits(), b.reference().to_bits());
    }
}
