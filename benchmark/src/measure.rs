//! The measurement loop and the metric catalogue.
//!
//! An untraced run repeats rounds until the time budget is spent:
//! several set-ups of the workload (their mean is one `setup_s`
//! sample), one timed pass, then calibration samples. A traced run
//! alternates untraced and traced iterations of set-up plus one pass,
//! attributes each traced iteration's wall time to layers, and reports
//! the difference between the two kinds of iteration as the tracing
//! overhead.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::trace::{self, Span};
use crate::{timed, Pass, Workload, CAMPAIGN_JOBS};

/// End-to-end metrics: name, unit, better direction.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Spans whose self time is reported as `<span>_s`.
pub const LAYER_SPANS: [&str; 33] = [
    "cc.generate",
    "cc.compile",
    "asm.generate",
    "asm.assemble",
    "predecode.build",
    "threaded.translate",
    "machine.load",
    "functional.run",
    "functional.trace_run",
    "threaded.run",
    "threaded.verify",
    "pipeline.run",
    "report.render",
    "diff.reference",
    "diff.lockstep",
    "soft_error.reference",
    "soft_error.classify",
    "campaign.block",
    "campaign.supervisor",
    "predict.evaluate",
    "tables.table1",
    "tables.table2",
    "tables.table3",
    "tables.table4",
    "tables.btb_compare",
    "tables.ablation_icache",
    "tables.ablation_fold_policy",
    "tables.ablation_mem_latency",
    "tables.ablation_predictor",
    "tables.ablation_finite_dynamic",
    "tables.ablation_bbsize",
    "tables.depth_sweep",
    "bench.check",
];

/// How much shorter than the same iteration timed from outside the
/// tracer (less 1%) the root span may be: the tracer's own entry and
/// exit, plus a descheduling between the two clocks.
const ROOT_SLACK_S: f64 = 0.005;

/// The campaign supervisor's span: the main thread waiting inside
/// `run_campaign`. It is passive (see [`trace::attribute`]).
const SUPERVISOR_SPAN: &str = "campaign.supervisor";

/// Per-layer metrics other than the span self times: name, unit,
/// better direction.
pub const LAYER_OTHER: [(&str, &str, &str); 29] = [
    ("cc.module_items", "count", "lower"),
    ("asm.text_parcels", "count", "lower"),
    ("predecode.entries", "count", "lower"),
    ("threaded.blocks", "count", "lower"),
    ("functional.ns_per_instr", "ns", "lower"),
    ("threaded.ns_per_instr", "ns", "lower"),
    ("threaded.deopt_falls", "count", "lower"),
    ("threaded.superinstr_dispatches", "count", "lower"),
    ("pipeline.ns_per_cycle", "ns", "lower"),
    ("pipeline.cycles", "count", "lower"),
    ("pipeline.instrs", "count", "higher"),
    ("pipeline.icache_hit_ratio", "ratio", "higher"),
    ("pipeline.fold_ratio", "ratio", "higher"),
    ("pipeline.mispredicts", "count", "lower"),
    ("report.bytes", "count", "lower"),
    ("diff.commits", "count", "higher"),
    ("soft_error.masked", "count", "higher"),
    ("soft_error.sdc", "count", "lower"),
    ("soft_error.control_divergence", "count", "lower"),
    ("soft_error.hang", "count", "lower"),
    ("campaign.idle_s", "s", "lower"),
    ("campaign.worker_util", "ratio", "higher"),
    ("campaign.retries", "count", "lower"),
    ("campaign.quarantined", "count", "lower"),
    ("predict.branches", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// Every per-layer metric: name, unit, better direction.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    LAYER_SPANS
        .iter()
        .map(|s| (format!("{s}_s"), "s", "lower"))
        .chain(LAYER_OTHER.iter().map(|&(n, u, b)| (n.to_owned(), u, b)))
        .collect()
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked output was right.
    pub correct: bool,
    /// Items attempted over all passes.
    pub attempted: u64,
    /// Items that failed.
    pub failed: u64,
    /// Metrics in catalogue order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced iterations.
    pub spans: Vec<Span>,
}

/// Outcome totals over every pass of a run.
///
/// Every pass runs the same seeded work list, so `attempted` and
/// `failed` count each item of the list once, however many passes the
/// time budget allowed: a run reports the same two numbers for a seed
/// on any host. A pass that fails differently from another also
/// changes the pinned counts, which makes the run wrong.
#[derive(Default)]
struct Totals {
    passes: u64,
    /// Items in the work list.
    attempted: u64,
    /// Items that failed, in the pass with the most failures.
    failed: u64,
    /// Item runs over all passes.
    item_runs: u64,
    latency_samples: u64,
    wrong: Vec<String>,
    first_pinned: Option<Vec<(String, u64)>>,
    engines: BTreeMap<&'static str, (u64, Duration)>,
}

impl Totals {
    fn add(&mut self, pass: Pass) {
        self.passes += 1;
        self.attempted = self.attempted.max(pass.attempted);
        self.failed = self.failed.max(pass.failed);
        self.item_runs += pass.attempted;
        self.latency_samples += pass.latencies.len() as u64;
        for w in pass.wrong {
            if !self.wrong.contains(&w) {
                self.wrong.push(w);
            }
        }
        match &self.first_pinned {
            None => self.first_pinned = Some(pass.pinned),
            Some(first) if *first != pass.pinned => {
                let msg = "simulated counts differ between passes".to_owned();
                if !self.wrong.contains(&msg) {
                    self.wrong.push(msg);
                }
            }
            Some(_) => {}
        }
        for (name, instrs, t) in pass.engines {
            let e = self.engines.entry(name).or_default();
            e.0 += instrs;
            e.1 += t;
        }
    }

    /// Compare the pinned counts with the seed's pins; returns the
    /// human note and whether every output was right.
    fn verdict(&mut self, expected: Option<Vec<(String, u64)>>, notes: &mut Vec<String>) -> bool {
        let got = self.first_pinned.clone().unwrap_or_default();
        notes.push(format!("simulated counts: {}", render_pinned(&got)));
        match expected {
            Some(exp) if exp == got => notes.push("pinned simulated counts: match".into()),
            Some(exp) => {
                for (k, v) in &got {
                    let want = exp.iter().find(|(ek, _)| ek == k).map(|(_, n)| *n);
                    if want != Some(*v) {
                        self.wrong
                            .push(format!("pinned {k}: got {v}, pinned {want:?}"));
                    }
                }
                if exp.len() != got.len() {
                    self.wrong.push(format!(
                        "pinned: {} counts produced, {} pinned",
                        got.len(),
                        exp.len()
                    ));
                }
            }
            None => notes.push(format!(
                "pinned simulated counts: seed not pinned; all {} passes agreed",
                self.passes
            )),
        }
        for w in self.wrong.iter().take(20) {
            notes.push(format!("WRONG: {w}"));
        }
        self.wrong.is_empty()
    }
}

/// `key=value` pairs of pinned counts.
fn render_pinned(pinned: &[(String, u64)]) -> String {
    pinned
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups timed before each pass: at least [`SETUPS_MIN`], more
/// until [`SETUP_TIME`] is spent. Their mean is one set-up sample.
const SETUPS_MIN: u32 = 3;
const SETUP_TIME: Duration = Duration::from_millis(20);

/// Calibration samples taken before each pass: at least
/// [`CALIBRATIONS_MIN`], more until [`CALIBRATION_TIME`] is spent.
const CALIBRATIONS_MIN: usize = 5;
const CALIBRATION_TIME: Duration = Duration::from_millis(10);

/// A fixed kernel owned by the benchmark, so no change to the
/// repository's code moves it, and its median time on the 2-vCPU Xeon
/// VM the pins were recorded on: the speed a workload's time metrics
/// are scaled to.
pub struct Calibration {
    /// Runs the kernel once and returns its time, seconds.
    pub kernel: fn() -> f64,
    /// The kernel's reference median, seconds.
    pub ref_s: f64,
}

/// A toy bytecode interpreter: data-dependent dispatch and jumps over
/// a 4 KiB program, 300 000 steps, all cache-resident. On shared VMs
/// its median over a run follows the host's speed changes the way the
/// two-worker campaigns do.
pub const DISPATCH: Calibration = Calibration {
    kernel: dispatch_kernel,
    ref_s: 1.2e-3,
};

/// 20 000 pseudo-random inserts of formatted strings into a
/// `BTreeMap`, then a copy of its values: allocation and pointer
/// chasing through a megabyte-sized heap. The single-threaded
/// workloads slow down with it when other tenants contend for caches
/// and memory, phases that [`DISPATCH`] does not see.
pub const HEAP: Calibration = Calibration {
    kernel: heap_kernel,
    ref_s: 4.5e-3,
};

fn dispatch_kernel() -> f64 {
    static CODE: OnceLock<Vec<u8>> = OnceLock::new();
    let code = CODE.get_or_init(|| {
        (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    });
    let code = std::hint::black_box(code.as_slice());
    let start = Instant::now();
    let (mut acc, mut pc, mut regs) = (0i64, 0usize, [0i64; 8]);
    for step in 0..300_000i64 {
        let op = code[pc % code.len()];
        let r = usize::from(op >> 3) & 7;
        match op % 6 {
            0 => acc = acc.wrapping_add(regs[r]),
            1 => regs[r] = acc ^ step,
            2 if acc & 1 == 0 => pc = pc.wrapping_add(3),
            3 => acc = acc.wrapping_mul(3).wrapping_add(1),
            4 => acc >>= 1,
            5 => pc = acc.unsigned_abs() as usize % code.len(),
            _ => {}
        }
        pc = pc.wrapping_add(1);
    }
    std::hint::black_box((acc, regs));
    start.elapsed().as_secs_f64()
}

fn heap_kernel() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, format!("v{i}"));
    }
    let values: Vec<String> = map.values().cloned().collect();
    std::hint::black_box(values);
    start.elapsed().as_secs_f64()
}

/// Whether another round of `last` duration still fits the budget.
fn fits(started: Instant, budget: Duration, last: Duration) -> bool {
    started.elapsed() + last <= budget
}

/// Run a workload untraced and report the end-to-end metrics.
///
/// `wall_s` is the median measured pass; `setup_s` is the median over
/// the rounds of each round's mean set-up time; `peak_rss_mb` is read
/// after the first pass. The item latency
/// percentiles, over every item's median latency across the passes,
/// are printed in the notes only. The three time metrics are then
/// scaled by the workload's [`Calibration`] reference over the median
/// time of its kernel in the run, sampled after every pass: shared
/// hosts change speed by up to 1.8x for minutes at a time, and the
/// scaling cancels much of that. The unscaled values are printed in
/// the notes.
pub fn end_to_end<W: Workload>(seed: u64, seconds: f64) -> Report {
    let mut totals = Totals::default();
    let mut setups = Vec::new();
    let mut pass_s = Vec::new();
    let mut item_ms: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut calibrations = Vec::new();
    let mut peak_rss = None;
    let mut expected = None;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut round = Duration::ZERO;
    while pass_s.is_empty() || fits(started, budget, round) {
        let round_start = Instant::now();
        let mut prepared = None;
        let (mut reps, mut setup_time) = (0, Duration::ZERO);
        while reps < SETUPS_MIN || round_start.elapsed() < SETUP_TIME {
            drop(prepared.take());
            let (w, t) = timed(|| W::setup(seed));
            setup_time += t;
            prepared = Some(w);
            reps += 1;
        }
        setups.push(setup_time.as_secs_f64() / f64::from(reps));
        let w = prepared.expect("at least one set-up ran");
        let (pass, t) = timed(|| w.pass());
        pass_s.push(t.as_secs_f64());
        // Before any calibration kernel has run, so that the peak is
        // the workload's own.
        peak_rss.get_or_insert_with(peak_rss_mb);
        let calibration_start = Instant::now();
        while calibrations.len() % CALIBRATIONS_MIN != 0
            || calibration_start.elapsed() < CALIBRATION_TIME
        {
            calibrations.push((W::CALIBRATION.kernel)());
        }
        round = round_start.elapsed();
        for &(item, ns) in &pass.latencies {
            item_ms.entry(item).or_default().push(ns as f64 * 1e-6);
        }
        if expected.is_none() {
            expected = w.expected();
        }
        totals.add(pass);
    }
    let mut report = Report::default();
    report.correct = totals.verdict(expected, &mut report.notes);
    let mut item_medians: Vec<f64> = item_ms.values().map(|v| median(v)).collect();
    item_medians.sort_by(f64::total_cmp);
    let wall = median(&pass_s);
    let raw = [
        wall,
        median(&setups),
        (totals.item_runs / pass_s.len() as u64) as f64 / wall,
    ];
    let scale = W::CALIBRATION.ref_s / median(&calibrations);
    let values = [
        raw[0] * scale,
        raw[1] * scale,
        raw[2] / scale,
        peak_rss.expect("at least one pass ran"),
    ];
    report.notes.push(format!(
        "calibration: median {:.6} s over {} samples, scale {scale:.4}; unscaled wall_s {:.6} \
         setup_s {:.9} items_per_s {:.3}",
        median(&calibrations),
        calibrations.len(),
        raw[0],
        raw[1],
        raw[2]
    ));
    report.notes.push(format!(
        "item latency, unscaled: p50 {:.6} ms, p90 {:.6} ms over {} items",
        median(&item_medians),
        percentile(&item_medians, 90.0),
        item_medians.len()
    ));
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name.to_owned(), v, unit))
        .collect();
    report.notes.insert(
        0,
        format!(
            "passes {} | set-up rounds {} | items {} | item runs {} | failed {} | \
             error_rate {:.6} | latency samples {} | items in the percentiles {}",
            pass_s.len(),
            setups.len(),
            totals.attempted,
            totals.item_runs,
            totals.failed,
            totals.failed as f64 / totals.attempted.max(1) as f64,
            totals.latency_samples,
            item_medians.len()
        ),
    );
    report.notes.push(format!(
        "pass seconds: {}",
        pass_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (engine, (instrs, t)) in &totals.engines {
        report.notes.push(format!(
            "{engine}_minstr_per_s {:.3} (simulated program instructions per host second \
             of {engine} engine calls, all passes)",
            *instrs as f64 / t.as_secs_f64() * 1e-6
        ));
    }
    report.attempted = totals.attempted;
    report.failed = totals.failed;
    report
}

/// Run a workload with tracing and report the per-layer metrics.
pub fn per_layer_run<W: Workload>(seed: u64, seconds: f64) -> Report {
    let mut totals = Totals::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut unattributed_s, mut wall_s) = (0.0, 0.0);
    let (mut block_s, mut campaign_s) = (0.0, 0.0);
    let mut all_spans = Vec::new();
    let mut trace_faults = Vec::new();
    let mut expected = None;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut iteration = 0u64;
    let mut round = Duration::ZERO;
    while traced_s.is_empty() || fits(started, budget, round) {
        let round_start = Instant::now();
        // Untraced iteration: set-up plus one pass.
        let ((w, pass), t) = timed(|| {
            let w = W::setup(seed);
            let pass = w.pass();
            (w, pass)
        });
        untraced_s.push(t.as_secs_f64());
        expected = w.expected();
        totals.add(pass);
        drop(w);

        // Traced iteration, also timed from outside the tracer.
        let outside = Instant::now();
        trace::set_enabled(true);
        let root = trace::enter("bench.iteration", iteration);
        let root_id = root.id();
        let w = W::setup(seed);
        let pass = w.pass();
        drop(root);
        trace::set_enabled(false);
        let outside_s = outside.elapsed().as_secs_f64();
        let spans = trace::take();
        let root = spans
            .iter()
            .find(|s| s.id == root_id)
            .expect("the iteration span was recorded")
            .clone();
        let root_s = (root.end_ns - root.start_ns) as f64 * 1e-9;
        traced_s.push(root_s);
        if root_s > outside_s || root_s < outside_s * 0.99 - ROOT_SLACK_S {
            trace_faults.push(format!(
                "iteration {iteration}: traced wall {root_s:.6} s, {outside_s:.6} s timed outside"
            ));
        }
        trace_faults.extend(trace::nesting_faults(&spans, &root));
        let a = trace::attribute(&spans, &root, &[SUPERVISOR_SPAN]);
        for (name, s) in a.self_s {
            *self_s.entry(name).or_insert(0.0) += s;
        }
        unattributed_s += a.unattributed_s;
        wall_s += a.wall_s;
        for s in &spans {
            let d = (s.end_ns - s.start_ns) as f64 * 1e-9;
            match s.name {
                "campaign.block" => block_s += d,
                SUPERVISOR_SPAN => campaign_s += d,
                _ => {}
            }
        }
        for (k, v) in w.setup_counts().into_iter().chain(pass.counts.clone()) {
            *counts.entry(k).or_insert(0.0) += v;
        }
        totals.add(pass);
        drop(w);
        all_spans.extend(spans);
        iteration += 1;
        round = round_start.elapsed();
    }

    let mut report = Report::default();
    report.correct = totals.verdict(expected, &mut report.notes);
    let n = traced_s.len() as f64;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut layer_sum = 0.0;
    for (name, s) in &self_s {
        if !LAYER_SPANS.contains(name) {
            report.correct = false;
            report
                .notes
                .push(format!("WRONG: span {name} has no per-layer metric"));
        }
        values.insert(format!("{name}_s"), s / n);
        layer_sum += s;
    }
    // An identity of the attribution, kept as a guard on its code.
    if (layer_sum + unattributed_s - wall_s).abs() > 1e-6 * wall_s.max(1e-9) {
        trace_faults.push(format!(
            "layer self times {layer_sum} + unattributed {unattributed_s} != traced wall {wall_s}"
        ));
    }
    if !trace_faults.is_empty() {
        report.correct = false;
        for f in trace_faults.iter().take(20) {
            report.notes.push(format!("WRONG: {f}"));
        }
    }
    let count = |k: &str| counts.get(k).copied().unwrap_or(0.0) / n;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let self_of = |k: &str| self_s.get(k).copied().unwrap_or(0.0) / n;
    for &(name, _, _) in &LAYER_OTHER {
        let v = match name {
            "functional.ns_per_instr" => {
                ratio(self_of("functional.run") * 1e9, count("functional.instrs"))
            }
            "threaded.ns_per_instr" => {
                ratio(self_of("threaded.run") * 1e9, count("threaded.instrs"))
            }
            "pipeline.ns_per_cycle" => {
                ratio(self_of("pipeline.run") * 1e9, count("pipeline.cycles"))
            }
            "pipeline.icache_hit_ratio" => ratio(
                count("pipeline.icache_hits"),
                count("pipeline.icache_hits") + count("pipeline.icache_misses"),
            ),
            "pipeline.fold_ratio" => {
                let instrs = count("pipeline.instrs");
                ratio(instrs - count("pipeline.issued"), instrs)
            }
            "campaign.idle_s" => (CAMPAIGN_JOBS as f64 * campaign_s - block_s).max(0.0) / n,
            "campaign.worker_util" => ratio(block_s, CAMPAIGN_JOBS as f64 * campaign_s),
            "trace.wall_s" => wall_s / n,
            "trace.unattributed_s" => unattributed_s / n,
            "trace.unattributed_frac" => ratio(unattributed_s, wall_s),
            "trace.overhead_frac" => median(&traced_s) / median(&untraced_s) - 1.0,
            other => count(other),
        };
        values.insert(name.to_owned(), v);
    }
    report.metrics = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    report.notes.insert(
        0,
        format!(
            "traced iterations {} | untraced iterations {} | spans {} | items {} | \
             item runs {} | failed {}",
            traced_s.len(),
            untraced_s.len(),
            all_spans.len(),
            totals.attempted,
            totals.item_runs,
            totals.failed
        ),
    );
    report.attempted = totals.attempted;
    report.failed = totals.failed;
    report.spans = all_spans;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let section = |key: &str| {
            let start = json
                .find(&format!("\"{key}\": ["))
                .expect("section present");
            let end = start + json[start..].find(']').expect("section closes");
            json[start..end].to_owned()
        };
        let e2e = section("end_to_end");
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        for (name, unit, better) in END_TO_END {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", ");
            assert!(e2e.contains(&entry), "{entry}");
        }
        let layers = section("per_layer");
        let catalogue = per_layer();
        assert_eq!(layers.matches("\"name\"").count(), catalogue.len());
        for (name, unit, better) in catalogue {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(layers.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
