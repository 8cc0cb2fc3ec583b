//! Small shared helpers: a seeded RNG, FNV hashing, quantiles, peak RSS,
//! the host-speed probe and the pass/fail tally every workload feeds.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::BuildHasherDefault;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64 step: a tiny, seedable, dependency-free generator.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic stream of `u64`s from a seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(splitmix(seed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = splitmix(self.0);
        self.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// FNV-1a over bytes, chained from `h` (start with [`FNV_OFFSET`]).
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Linear-interpolated quantile of `xs` (`q` in `0..=1`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Process high-water resident set size in MB (`VmHWM`), 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-speed probe. On a shared cloud host other tenants use the same
/// caches and memory system, and their load moved the workloads' speed by
/// ±20–50 % within minutes (measured on a 2-vCPU Xeon VM). After every
/// timed stretch of a workload (a set-up, a request, a batch of requests
/// or a round) the probe times a fixed loop owned by the benchmark: a
/// breadth-first search with a hash set and a FIFO queue, grown from empty
/// as a model checker's or a simulator's tables are, over a fixed random
/// graph of 2¹⁶ nodes. The stretch is then scaled to a host on which one
/// sample takes [`Probe::REFERENCE_S`].
pub struct Probe {
    /// Bytes the search tables reached, held by the allocator for reuse.
    search_bytes: usize,
    samples: Vec<f64>,
}

impl Probe {
    /// Probe time of one sample on the reference host.
    pub const REFERENCE_S: f64 = 0.010;
    const NODES: u64 = 1 << 16;

    pub fn new() -> Self {
        let mut p = Self {
            search_bytes: 0,
            samples: Vec::new(),
        };
        // One search before the run, so that its tables are resident from
        // the start.
        std::hint::black_box(p.search());
        p
    }

    /// Bytes the probe keeps resident for the whole run.
    pub fn resident_bytes(&self) -> usize {
        self.search_bytes
    }

    fn search(&mut self) -> usize {
        let mut seen: HashSet<u64, BuildHasherDefault<DefaultHasher>> = HashSet::default();
        let mut queue = VecDeque::new();
        seen.insert(0);
        queue.push_back(0);
        while let Some(s) = queue.pop_front() {
            for i in 0..6 {
                let n = splitmix(s * 8 + i) % Self::NODES;
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        self.search_bytes = seen.capacity() * (std::mem::size_of::<u64>() + 1)
            + queue.capacity() * std::mem::size_of::<u64>();
        seen.len()
    }

    /// Take `n` samples back to back, right after a timed stretch and
    /// outside it. Returns the factor, reference time over their median,
    /// that converts the stretch's times to the reference host.
    pub fn factor(&mut self, n: usize) -> f64 {
        let now: Vec<f64> = (0..n.max(1))
            .map(|_| {
                let t0 = std::time::Instant::now();
                std::hint::black_box(self.search());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.samples.extend_from_slice(&now);
        Self::REFERENCE_S / median(&now)
    }

    /// Median seconds per sample over the run.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// Operations attempted and failed, with the first few failure messages.
/// A failure is a panic, a wrong answer or an incomplete search.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Record one operation's outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(e);
            }
        }
    }

    /// Record an equality check as one operation.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let outcome = if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got:?}, expected {want:?}"))
        };
        self.op(outcome);
    }
}

/// Run `f`, turning a panic into an `Err` naming `what`.
pub fn guarded<R>(what: &str, f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        format!("{what}: panicked: {msg}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next()).collect::<Vec<_>>());
    }
}
