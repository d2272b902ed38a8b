//! In-memory span recorder and wall-clock self-time attribution.
//!
//! Spans are recorded only while tracing is enabled (one relaxed load
//! per call otherwise). Each span keeps its name, start, end, parent
//! span, recording thread and the work item it belongs to; spans stay
//! in memory until [`take`] hands them to the caller.
//!
//! [`attribute`] turns one root span's subtree into self times that
//! add up to the root's wall time. When several threads are inside
//! spans at the same instant (campaign workers), that instant is
//! shared equally among each thread's innermost span, so the sum stays
//! a wall-clock quantity. A *passive* span (the main thread blocked in
//! the campaign supervisor) only receives time while no other span is
//! active.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, `module.operation`.
    pub name: &'static str,
    /// Unique id (ids grow in start order on each thread).
    pub id: u32,
    /// Id of the enclosing span, 0 for none.
    pub parent: u32,
    /// Small per-process thread number.
    pub thread: u32,
    /// Work item the span belongs to.
    pub item: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
/// Parent for the outermost span of a thread that has no open span of
/// its own: campaign workers hang under the supervisor span.
static AMBIENT: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Relaxed);
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Remove and return every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// An open span; recorded when dropped, also while unwinding from a
/// panic, so a quarantined campaign case still closes its spans.
pub struct Guard(Option<Open>);

struct Open {
    name: &'static str,
    id: u32,
    parent: u32,
    item: u64,
    start_ns: u64,
    ambient_before: Option<u32>,
}

impl Guard {
    /// The span's id, 0 when tracing is off.
    pub fn id(&self) -> u32 {
        self.0.as_ref().map_or(0, |o| o.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(open.id), "spans close innermost first");
        });
        if let Some(prev) = open.ambient_before {
            AMBIENT.store(prev, Relaxed);
        }
        let span = Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            thread: THREAD.with(|t| *t),
            item: open.item,
            start_ns: open.start_ns,
            end_ns,
        };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

fn open(name: &'static str, item: u64, ambient: bool) -> Guard {
    if !ENABLED.load(Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or_else(|| AMBIENT.load(Relaxed));
        s.push(id);
        parent
    });
    let ambient_before = ambient.then(|| AMBIENT.swap(id, Relaxed));
    Guard(Some(Open {
        name,
        id,
        parent,
        item,
        start_ns: now_ns(),
        ambient_before,
    }))
}

/// Open a span; it closes when the guard drops.
pub fn enter(name: &'static str, item: u64) -> Guard {
    open(name, item, false)
}

/// Run `f` inside a span.
pub fn span<R>(name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
    let _g = open(name, item, false);
    f()
}

/// Run `f` inside a span that becomes the parent of the outermost
/// spans other threads open meanwhile (a supervisor waiting on its
/// workers).
pub fn supervise<R>(name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
    let _g = open(name, item, true);
    f()
}

/// Self times of one root span's subtree.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Seconds per span name; together with `unattributed_s` they sum
    /// to `wall_s`.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Root time during which no other span was open.
    pub unattributed_s: f64,
    /// The root span's duration.
    pub wall_s: f64,
}

/// Attribute the wall time of `root` to the spans in `spans` that lie
/// inside it. `passive` names spans that only receive time while no
/// other span is active.
pub fn attribute(spans: &[Span], root: &Span, passive: &[&str]) -> Attribution {
    // (time, 0 = end / 1 = start, ordering key, span index)
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.id == root.id || s.start_ns < root.start_ns || s.end_ns > root.end_ns {
            continue;
        }
        // At equal times, ends come before starts; parents start
        // before and end after their children (ids grow with start).
        events.push((s.start_ns, 1, i64::from(s.id), i));
        events.push((s.end_ns, 0, -i64::from(s.id), i));
    }
    events.sort_unstable();

    let mut out = Attribution {
        wall_s: (root.end_ns - root.start_ns) as f64 * 1e-9,
        ..Attribution::default()
    };
    let mut self_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut unattributed_ns = 0f64;
    // Per-thread stacks of open span indices.
    let mut stacks: Vec<(u32, Vec<usize>)> = Vec::new();
    let mut prev = root.start_ns;
    let mut share = |dt: u64, stacks: &[(u32, Vec<usize>)]| {
        if dt == 0 {
            return;
        }
        let tops: Vec<usize> = stacks
            .iter()
            .filter_map(|(_, st)| st.last().copied())
            .collect();
        let active: Vec<usize> = tops
            .iter()
            .copied()
            .filter(|&i| !passive.contains(&spans[i].name))
            .collect();
        let takers = if active.is_empty() { tops } else { active };
        if takers.is_empty() {
            unattributed_ns += dt as f64;
        } else {
            let each = dt as f64 / takers.len() as f64;
            for i in takers {
                *self_ns.entry(spans[i].name).or_insert(0.0) += each;
            }
        }
    };
    for &(t, kind, _, i) in &events {
        share(t - prev, &stacks);
        prev = t;
        let thread = spans[i].thread;
        let pos = match stacks.iter().position(|(th, _)| *th == thread) {
            Some(p) => p,
            None => {
                stacks.push((thread, Vec::new()));
                stacks.len() - 1
            }
        };
        if kind == 1 {
            stacks[pos].1.push(i);
        } else {
            let popped = stacks[pos].1.pop();
            debug_assert_eq!(popped, Some(i), "spans nest on each thread");
        }
    }
    share(root.end_ns - prev, &stacks);
    out.self_s = self_ns.into_iter().map(|(k, v)| (k, v * 1e-9)).collect();
    out.unattributed_s = unattributed_ns * 1e-9;
    out
}

/// Spans of one root span's subtree that break the nesting
/// [`attribute`] assumes: a span that has no recorded parent, ends
/// before it starts or leaves its parent's interval, or two spans of
/// one thread under the same parent that overlap. One line each.
pub fn nesting_faults(spans: &[Span], root: &Span) -> Vec<String> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut faults = Vec::new();
    let mut siblings: BTreeMap<(u32, u32), Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.id != root.id) {
        match by_id.get(&s.parent) {
            None => faults.push(format!("span {} {} has no recorded parent", s.id, s.name)),
            Some(p) if s.end_ns < s.start_ns || s.start_ns < p.start_ns || s.end_ns > p.end_ns => {
                faults.push(format!(
                    "span {} {} [{}, {}] is not inside its parent {} {} [{}, {}]",
                    s.id, s.name, s.start_ns, s.end_ns, p.id, p.name, p.start_ns, p.end_ns
                ));
            }
            Some(_) => {}
        }
        siblings.entry((s.thread, s.parent)).or_default().push(s);
    }
    for group in siblings.values_mut() {
        group.sort_by_key(|s| s.start_ns);
        for w in group.windows(2) {
            if w[1].start_ns < w[0].end_ns {
                faults.push(format!(
                    "spans {} {} and {} {} overlap on thread {}",
                    w[0].id, w[0].name, w[1].id, w[1].name, w[0].thread
                ));
            }
        }
    }
    faults
}

/// Write spans as JSON lines.
///
/// # Errors
///
/// Any I/O error from `w`.
pub fn write_jsonl(w: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\"item\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.thread, s.item, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent: 0,
            thread,
            item: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_and_remainder_sum_to_the_root() {
        let root = span("root", 1, 0, 0, 100);
        let spans = vec![
            root.clone(),
            span("outer", 2, 0, 10, 60),
            span("inner", 3, 0, 20, 40),
            // Two workers overlap with a passive supervisor span.
            span("campaign.supervisor", 4, 0, 60, 95),
            span("work", 5, 1, 65, 85),
            span("work", 6, 2, 75, 90),
        ];
        let a = attribute(&spans, &root, &["campaign.supervisor"]);
        let ns = |name: &str| (a.self_s.get(name).copied().unwrap_or(0.0) * 1e9).round();
        assert_eq!(ns("outer"), 30.0);
        assert_eq!(ns("inner"), 20.0);
        // 65..75 one worker, 75..85 shared by two, 85..90 one worker.
        assert_eq!(ns("work"), 25.0);
        // 60..65 and 90..95: the supervisor alone.
        assert_eq!(ns("campaign.supervisor"), 10.0);
        assert_eq!((a.unattributed_s * 1e9).round(), 15.0);
        let total: f64 = a.self_s.values().sum::<f64>() + a.unattributed_s;
        assert!((total - a.wall_s).abs() < 1e-12);
    }

    #[test]
    fn nesting_faults_flag_stray_and_overlapping_spans() {
        let child = |name, id, parent, thread, start_ns, end_ns| Span {
            parent,
            ..span(name, id, thread, start_ns, end_ns)
        };
        let root = span("root", 1, 0, 0, 100);
        let mut spans = vec![
            root.clone(),
            child("supervisor", 2, 1, 0, 10, 90),
            child("work", 3, 2, 1, 20, 50),
            child("work", 4, 2, 1, 50, 80),
            child("work", 5, 2, 2, 30, 60),
        ];
        assert!(nesting_faults(&spans, &root).is_empty());
        // A worker span that outlives the supervisor it ran under.
        spans.push(child("work", 6, 2, 2, 60, 95));
        // Two spans of one thread under one parent that overlap.
        spans.push(child("late", 7, 1, 0, 85, 99));
        // A span nothing encloses.
        spans.push(child("orphan", 8, 0, 3, 40, 45));
        let faults = nesting_faults(&spans, &root);
        assert_eq!(faults.len(), 3, "{faults:?}");
        assert!(faults[0].contains("span 6 work"));
        assert!(faults[1].contains("span 8 orphan"));
        assert!(faults[2].contains("spans 2 supervisor and 7 late overlap"));
    }
}
