//! End-to-end and per-layer host-time benchmark of the CRISP
//! reproduction.
//!
//! Four workloads drive the repository only through the public entry
//! points its CLI binaries and table drivers call: corpus programs on
//! every engine ([`corpus`]), the `crisp-diff` sweep ([`diff`]), the
//! `crisp-fault` AVF campaign ([`fault`]) and the paper's tables
//! ([`tables`]). Spans around those calls ([`trace`]) attribute host
//! time to layers. `README.md` in this directory documents the
//! metrics and how to run it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crisp_asm::rand_prog::Rng;
use crisp_sim::CycleStats;

pub mod corpus;
pub mod diff;
pub mod fault;
pub mod measure;
pub mod pins;
pub mod tables;
pub mod trace;

/// Worker threads of both campaign workloads.
pub const CAMPAIGN_JOBS: usize = 2;
/// Cycle-engine lanes per campaign worker (the CLI default).
pub const CAMPAIGN_LANES: usize = 8;

/// What one pass over a workload's work list did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Items started.
    pub attempted: u64,
    /// Items that produced a wrong output, diverged, panicked or were
    /// quarantined.
    pub failed: u64,
    /// Host latency of each completed item: `(item, nanoseconds)`.
    /// Item ids are stable across the passes of one run.
    pub latencies: Vec<(u64, u64)>,
    /// Correctness violations, one line each.
    pub wrong: Vec<String>,
    /// Simulated counts that must repeat exactly on every pass and
    /// match the pinned values for the seed.
    pub pinned: Vec<(String, u64)>,
    /// Per-layer work counts, keyed by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per engine: simulated program instructions and host time of the
    /// engine calls (filled by the corpus workload).
    pub engines: Vec<(&'static str, u64, Duration)>,
}

impl Pass {
    /// Add `n` to a per-layer count.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// Count a cycle-engine run's pipeline statistics.
    pub fn count_cycle_run(&mut self, s: &CycleStats) {
        self.count("pipeline.cycles", s.cycles as f64);
        self.count("pipeline.instrs", s.program_instrs as f64);
        self.count("pipeline.issued", s.issued as f64);
        self.count("pipeline.icache_hits", s.icache_hits as f64);
        self.count("pipeline.icache_misses", s.icache_misses as f64);
        self.count("pipeline.mispredicts", s.mispredicts() as f64);
    }
}

/// A benchmark workload: a set-up step, then repeatable passes.
pub trait Workload: Sized {
    /// Threads that run items concurrently.
    const WORKERS: usize;
    /// The kernel the time metrics are scaled by.
    const CALIBRATION: measure::Calibration;
    /// Build the work list and everything the workload hoists before
    /// its first simulated run (compile, assemble, predecode,
    /// translate).
    fn setup(seed: u64) -> Self;
    /// Per-layer counts of the set-up step.
    fn setup_counts(&self) -> BTreeMap<&'static str, f64>;
    /// Run the whole work list once.
    fn pass(&self) -> Pass;
    /// The pinned simulated counts for this seed, if pinned.
    fn expected(&self) -> Option<Vec<(String, u64)>>;
}

/// Time `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// A seeded permutation of `0..n` (Fisher-Yates over the repository's
/// generator RNG).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// 64-bit FNV-1a of a string: a compact exact pin for table output.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
