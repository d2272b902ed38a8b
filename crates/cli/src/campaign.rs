//! The shared campaign supervisor: everything `crisp-diff` and
//! `crisp-fault` used to duplicate around their worker loops.
//!
//! A campaign is a deterministic list of `total` cases, a self-
//! scheduling [`WorkQueue`] over it, and `jobs` worker threads that
//! claim cases in blocks, run them through a driver-supplied closure,
//! and fold the results into a crash-safe [`Checkpoint`]. The
//! supervisor owns the cross-cutting machinery:
//!
//! * **Block claiming** — workers claim `block` cases at a time so the
//!   driver can share per-program work (the fault-free reference)
//!   across a block's cases; `block = 1` claims one case at a time.
//! * **Panic isolation** — a panicking block is retried case by case
//!   on fresh worker state, so only the offending case is quarantined
//!   (recorded, skipped, campaign continues) while its innocent
//!   blockmates complete normally. With `block = 1` this reduces to
//!   the old retry-once-then-quarantine behavior exactly.
//! * **Checkpointing** — completed cases join the queue's contiguous
//!   prefix; tallies are folded into the checkpoint in prefix order
//!   and persisted every `save_every` cases, so `--resume` restarts
//!   replay the identical campaign.
//! * **Telemetry** — a [`CampaignMonitor`] times every case and an
//!   optional [`Heartbeat`] thread samples it onto stderr.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crisp_telemetry::{CampaignMonitor, Heartbeat};

use crate::{Checkpoint, WorkQueue};

/// How one campaign case resolved, as reported by the driver's block
/// runner.
pub enum CaseResult<T, E> {
    /// The case completed; `T` is its checkpoint contribution.
    Done(T),
    /// Deterministic verification failure — the property under test is
    /// violated, so the campaign stops and reports `E`.
    Fail(E),
    /// Harness failure (I/O, a program that will not load): the
    /// campaign aborts with the message.
    Abort(String),
}

/// Campaign-wide settings, shared by both drivers.
pub struct CampaignSpec<'a> {
    /// Total cases in the deterministic work list.
    pub total: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Cases claimed (and run) per block. `1` claims one case at a
    /// time; the block size never changes a result.
    pub block: u64,
    /// Persist the checkpoint every this many completed cases.
    pub save_every: u64,
    /// Checkpoint file, when `--resume` was given.
    pub resume_path: Option<&'a String>,
    /// Heartbeat period in seconds, when `--heartbeat` was given.
    pub heartbeat_secs: Option<u64>,
    /// The starting checkpoint (freshly default or loaded from
    /// `resume_path`).
    pub checkpoint: Checkpoint,
}

/// What a finished campaign hands back to the driver.
#[derive(Debug)]
pub struct CampaignReport<E, Q> {
    /// The final checkpoint (already saved when `resume_path` is set
    /// and the campaign succeeded).
    pub checkpoint: Checkpoint,
    /// The first deterministic failure, if the campaign aborted on
    /// one.
    pub failure: Option<E>,
    /// Cases whose worker panicked twice (once in a block, once solo).
    pub quarantined: Vec<Q>,
}

/// What one completed case carries through the work queue.
struct CaseDone<T> {
    /// `Some` when the case produced a checkpoint contribution (it is
    /// `None` for quarantined cases).
    payload: Option<T>,
    /// The case was re-run after a block panic.
    retried: bool,
    /// Both attempts panicked; the case was set aside.
    quarantined: bool,
}

/// Render a panic payload as text.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".into()
    }
}

/// Run a campaign to completion (or first failure).
///
/// `worker_state` builds one `W` per worker thread (machine pools,
/// lockstep buffers); it is rebuilt whenever a panic may have poisoned
/// it. `run_block` runs a claimed block of case indices and reports
/// one [`CaseResult`] per case — it may panic, and the supervisor
/// contains the blast radius. `tally_case` folds one completed case's
/// payload into the checkpoint (called in contiguous-prefix order).
/// `quarantine` renders a twice-panicking case into the driver's
/// quarantine record.
///
/// # Errors
///
/// Harness-level failures only: checkpoint I/O errors and
/// [`CaseResult::Abort`] messages. Deterministic case failures come
/// back as [`CampaignReport::failure`].
pub fn run_campaign<W, T, E, Q>(
    spec: CampaignSpec<'_>,
    worker_state: impl Fn() -> W + Sync,
    run_block: impl Fn(&[u64], &mut W) -> Vec<(u64, CaseResult<T, E>)> + Sync,
    tally_case: impl Fn(&mut Checkpoint, T) + Sync,
    quarantine: impl Fn(u64, String) -> Q + Sync,
) -> Result<CampaignReport<E, Q>, String>
where
    T: Send,
    E: Send,
    Q: Send,
{
    let CampaignSpec {
        total,
        jobs,
        block: block_size,
        save_every,
        resume_path,
        heartbeat_secs,
        checkpoint,
    } = spec;
    assert!(block_size >= 1, "a campaign block needs at least one case");
    let failure: Mutex<Option<E>> = Mutex::new(None);
    let quarantine_log: Mutex<Vec<Q>> = Mutex::new(Vec::new());
    let abort_msg: Mutex<Option<String>> = Mutex::new(None);
    let queue: WorkQueue<CaseDone<T>> = WorkQueue::new(checkpoint.completed, total);
    let progress = Mutex::new((checkpoint, 0u64));
    let monitor = Arc::new(CampaignMonitor::new(queue.remaining(), jobs));
    let heartbeat =
        heartbeat_secs.map(|s| Heartbeat::start(Arc::clone(&monitor), Duration::from_secs(s)));

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let (queue, progress) = (&queue, &progress);
            let (failure, quarantine_log, abort_msg) = (&failure, &quarantine_log, &abort_msg);
            let monitor = &monitor;
            let (worker_state, run_block) = (&worker_state, &run_block);
            let (tally_case, quarantine) = (&tally_case, &quarantine);
            scope.spawn(move || {
                // Settle one completed case: push it through the
                // queue's prefix tracker, fold released payloads into
                // the checkpoint, and persist on the save cadence.
                // Returns false when the worker must stop (I/O error).
                let settle = |i: u64, done: CaseDone<T>| -> bool {
                    let drained = queue.complete(i, done);
                    if drained.payloads.is_empty() {
                        return true;
                    }
                    let (cp, last_saved) = &mut *progress.lock().unwrap();
                    for case in drained.payloads {
                        if let Some(t) = case.payload {
                            tally_case(cp, t);
                        }
                        if case.retried {
                            cp.tally("retries", 1);
                        }
                        if case.quarantined {
                            cp.tally("quarantined", 1);
                        }
                    }
                    cp.completed = drained.completed;
                    if let Some(path) = resume_path {
                        if drained.completed >= *last_saved + save_every {
                            if let Err(e) = cp.save(path) {
                                *abort_msg.lock().unwrap() = Some(e.to_string());
                                queue.abort();
                                return false;
                            }
                            *last_saved = drained.completed;
                        }
                    }
                    true
                };
                // Apply one block's results. Returns false when the
                // worker must stop (failure, abort, or I/O error).
                let apply = |results: Vec<(u64, CaseResult<T, E>)>, retried: bool| -> bool {
                    for (i, result) in results {
                        match result {
                            CaseResult::Done(t) => {
                                if !settle(
                                    i,
                                    CaseDone {
                                        payload: Some(t),
                                        retried,
                                        quarantined: false,
                                    },
                                ) {
                                    return false;
                                }
                            }
                            CaseResult::Fail(e) => {
                                monitor.record_finding();
                                *failure.lock().unwrap() = Some(e);
                                queue.abort();
                                return false;
                            }
                            CaseResult::Abort(msg) => {
                                *abort_msg.lock().unwrap() = Some(msg);
                                queue.abort();
                                return false;
                            }
                        }
                    }
                    true
                };

                let mut state = worker_state();
                loop {
                    let mut block: Vec<u64> = Vec::with_capacity(block_size as usize);
                    while (block.len() as u64) < block_size {
                        match queue.claim() {
                            Some(i) => block.push(i),
                            None => break,
                        }
                    }
                    if block.is_empty() {
                        return;
                    }
                    let start = Instant::now();
                    let attempt = catch_unwind(AssertUnwindSafe(|| run_block(&block, &mut state)));
                    match attempt {
                        Ok(results) => {
                            let each = start.elapsed() / block.len() as u32;
                            for _ in &block {
                                monitor.record_case(w, each);
                            }
                            if !apply(results, false) {
                                return;
                            }
                        }
                        Err(_) => {
                            // The block panicked; the shared state may
                            // be poisoned. Re-run each case solo on
                            // fresh state so only the offender is
                            // quarantined.
                            for &i in &block {
                                monitor.record_retry();
                                state = worker_state();
                                let solo_start = Instant::now();
                                let solo =
                                    catch_unwind(AssertUnwindSafe(|| run_block(&[i], &mut state)));
                                monitor.record_case(w, solo_start.elapsed());
                                match solo {
                                    Ok(results) => {
                                        if !apply(results, true) {
                                            return;
                                        }
                                    }
                                    Err(payload) => {
                                        monitor.record_quarantine();
                                        state = worker_state();
                                        quarantine_log
                                            .lock()
                                            .unwrap()
                                            .push(quarantine(i, panic_text(payload)));
                                        if !settle(
                                            i,
                                            CaseDone {
                                                payload: None,
                                                retried: true,
                                                quarantined: true,
                                            },
                                        ) {
                                            return;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    });
    if let Some(hb) = heartbeat {
        hb.finish();
    }

    if let Some(msg) = abort_msg.into_inner().unwrap() {
        return Err(msg);
    }
    let (checkpoint, _) = progress.into_inner().unwrap();
    Ok(CampaignReport {
        checkpoint,
        failure: failure.into_inner().unwrap(),
        quarantined: quarantine_log.into_inner().unwrap(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(total: u64, block: u64) -> CampaignSpec<'static> {
        CampaignSpec {
            total,
            jobs: 3,
            block,
            save_every: 1000,
            resume_path: None,
            heartbeat_secs: None,
            checkpoint: Checkpoint::default(),
        }
    }

    #[test]
    fn campaign_completes_and_tallies_every_case() {
        for block in [1, 4] {
            let report = run_campaign(
                spec(100, block),
                || (),
                |cases, ()| {
                    cases
                        .iter()
                        .map(|&i| (i, CaseResult::<u64, String>::Done(i)))
                        .collect()
                },
                |cp, i| cp.tally("sum", i),
                |i, msg| format!("case {i}: {msg}"),
            )
            .unwrap();
            assert_eq!(report.checkpoint.completed, 100);
            assert_eq!(report.checkpoint.get("sum"), (0..100).sum::<u64>());
            assert!(report.failure.is_none());
            assert!(report.quarantined.is_empty());
        }
    }

    #[test]
    fn block_panic_quarantines_only_the_offender() {
        let report = run_campaign(
            spec(32, 8),
            || (),
            |cases, ()| {
                if cases.contains(&13) {
                    panic!("poisoned case");
                }
                cases
                    .iter()
                    .map(|&i| (i, CaseResult::<u64, String>::Done(1)))
                    .collect()
            },
            |cp, n| cp.tally("done", n),
            |i, msg| (i, msg),
        )
        .unwrap();
        // Every case except 13 completed; 13 was quarantined after its
        // solo retry panicked too.
        assert_eq!(report.checkpoint.completed, 32);
        assert_eq!(report.checkpoint.get("done"), 31);
        assert_eq!(report.checkpoint.get("quarantined"), 1);
        assert!(report.checkpoint.get("retries") >= 1);
        let (case, msg) = &report.quarantined[0];
        assert_eq!(*case, 13);
        assert!(msg.contains("poisoned case"), "{msg}");
    }

    #[test]
    fn failure_aborts_the_campaign() {
        let report = run_campaign(
            spec(1000, 1),
            || (),
            |cases, ()| {
                cases
                    .iter()
                    .map(|&i| {
                        (
                            i,
                            if i == 5 {
                                CaseResult::Fail(format!("case {i} diverged"))
                            } else {
                                CaseResult::<_, String>::Done(1u64)
                            },
                        )
                    })
                    .collect()
            },
            |cp, n| cp.tally("done", n),
            |_, msg| msg,
        )
        .unwrap();
        assert_eq!(report.failure.as_deref(), Some("case 5 diverged"));
        // The queue stopped early: nowhere near all 1000 cases ran.
        assert!(report.checkpoint.completed < 1000);
    }

    #[test]
    fn abort_surfaces_as_a_harness_error() {
        let err = run_campaign(
            spec(10, 2),
            || (),
            |cases, ()| {
                cases
                    .iter()
                    .map(|&i| (i, CaseResult::<u64, String>::Abort("disk on fire".into())))
                    .collect()
            },
            |cp, n| cp.tally("done", n),
            |_, msg| msg,
        )
        .unwrap_err();
        assert!(err.contains("disk on fire"), "{err}");
    }
}
