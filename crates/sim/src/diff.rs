//! Differential co-simulation: a lockstep functional-vs-cycle oracle.
//!
//! The two engines share one architectural core ([`Machine::execute`]),
//! but the cycle engine wraps it in speculation: wrong-path slots,
//! squash windows, mispredict redirects, cache-conflict refetches. A
//! whole class of pipeline bugs — a missed squash, a stale Alternate
//! Next-PC, a double retire — corrupts architectural state in ways an
//! end-of-run result check can miss, because later correct-path writes
//! can overwrite the damage. The oracle here compares the engines
//! *commit by commit* instead: both emit [`PipeEvent::Commit`] through
//! the shared commit point ([`Machine::execute_observed`]), and
//! [`run_lockstep`] co-steps the functional engine one retirement at a
//! time against the cycle engine's commit stream, reporting the first
//! divergent commit together with a pipeline-timeline excerpt of the
//! cycles around it.
//!
//! The harness is validated by fault injection: configuring
//! [`crate::FaultInjection::SkipOrSquash`] makes the cycle engine skip
//! one squash during folded-compare mispredict recovery, and the oracle
//! must catch the wrong-path commit (a unit test here and the
//! `diff_oracle` integration test both insist on it).

use std::sync::Arc;

use crisp_isa::FoldPolicy;

use crate::batch::{LaneEnd, MachineBatch, MachinePool};
use crate::config::HwPredictor;
use crate::observe::{render_timeline_for, EventRing, Interest, PipeEvent, PipeObserver};
use crate::predecode::PredecodedImage;
use crate::{CycleSim, FunctionalSim, HaltReason, Machine, SimConfig, SimError};
use crisp_asm::Image;

/// Events of pipeline context retained for the divergence excerpt.
const TIMELINE_RING: usize = 4096;
/// Cycles of context rendered before the divergent commit.
const EXCERPT_BEFORE: u64 = 8;
/// Cycles of context rendered after the divergent commit.
const EXCERPT_AFTER: u64 = 3;
/// How many commits past the cycle engine's error the functional
/// reference may run before the engines are declared divergent. The
/// cycle engine's fetch/decode errors fire up to a full pipeline ahead
/// of retirement, so the reference legitimately commits the few slots
/// still in flight before reaching the same error.
const ERROR_CHASE: usize = 8;

/// The architectural effects of one retired entry, as reported through
/// [`PipeEvent::Commit`].
///
/// Deliberately excludes the clock: the cycle engine stamps commits
/// with cycle numbers and the functional engine with step indices, so
/// the clock lives in [`CommitLog::cycles`] instead and records from
/// the two engines compare equal exactly when the architectural
/// history matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Address of the (host) entry that committed.
    pub pc: u32,
    /// The architecturally correct next PC.
    pub next_pc: u32,
    /// Address of the branch the entry carried, if any.
    pub branch_pc: Option<u32>,
    /// Whether the entry carried a folded branch.
    pub folded: bool,
    /// For conditional entries, the actual direction taken.
    pub taken: Option<bool>,
    /// Accumulator after the commit.
    pub accum: i32,
    /// Stack pointer after the commit.
    pub sp: u32,
    /// PSW condition flag after the commit.
    pub flag: bool,
    /// The memory word written (word-aligned address, value), if any.
    pub mem_write: Option<(u32, i32)>,
    /// Whether this commit was a `halt`.
    pub halted: bool,
}

impl CommitRecord {
    fn from_event(ev: &PipeEvent) -> Option<(u64, CommitRecord)> {
        match *ev {
            PipeEvent::Commit {
                cycle,
                pc,
                next_pc,
                branch_pc,
                folded,
                taken,
                accum,
                sp,
                flag,
                mem_write,
                halted,
            } => Some((
                cycle,
                CommitRecord {
                    pc,
                    next_pc,
                    branch_pc,
                    folded,
                    taken,
                    accum,
                    sp,
                    flag,
                    mem_write,
                    halted,
                },
            )),
            _ => None,
        }
    }
}

/// A [`PipeObserver`] that captures the commit stream: one
/// [`CommitRecord`] per retired entry, in retirement order, with the
/// clock each record retired on kept in a parallel vector (see
/// [`CommitRecord`] for why the clock is split out). All other events
/// pass through untouched, so it composes with any sibling observer in
/// a tuple.
#[derive(Debug, Default, Clone)]
pub struct CommitLog {
    /// Per-commit architectural records.
    pub records: Vec<CommitRecord>,
    /// The cycle (cycle engine) or step index (functional engine) each
    /// record retired on; `cycles[i]` pairs with `records[i]`.
    pub cycles: Vec<u64>,
}

impl PipeObserver for CommitLog {
    const INTEREST: Interest = Interest::Commits;

    #[inline]
    fn event(&mut self, ev: PipeEvent) {
        if let Some((cycle, rec)) = CommitRecord::from_event(&ev) {
            self.cycles.push(cycle);
            self.records.push(rec);
        }
    }
}

/// Why the two engines disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The engines retired different architectural state at the same
    /// commit index.
    Mismatch {
        /// What the functional reference committed.
        functional: CommitRecord,
        /// What the cycle engine committed.
        cycle: CommitRecord,
    },
    /// The cycle engine committed after the functional engine halted —
    /// a wrong-path slot escaped its squash.
    ExtraCommit {
        /// The surplus cycle-engine commit.
        cycle: CommitRecord,
    },
    /// One engine raised an error the other did not, or their errors
    /// disagree. (`None` means that engine was still running cleanly.)
    Error {
        /// The functional engine's error, if any.
        functional: Option<SimError>,
        /// The cycle engine's error, if any.
        cycle: Option<SimError>,
    },
    /// Every commit matched but the final machine state did not — a
    /// write both engines failed to report (belt and braces over the
    /// per-commit comparison).
    FinalState,
    /// The cycle engine hit its watchdog limit
    /// ([`SimConfig::max_cycles`] / [`SimConfig::max_insns`]) before
    /// halting — the oracle cannot tell agreement from a hang.
    Watchdog {
        /// The commits that did match before the limit expired.
        commits: u64,
    },
}

/// The first point where the two engines disagreed.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into the commit stream (0-based) of the divergent commit;
    /// all earlier commits matched.
    pub commit_index: usize,
    /// Cycle-engine clock at the divergence.
    pub cycle: u64,
    /// What disagreed.
    pub kind: DivergenceKind,
    /// A pipeline-timeline excerpt (see
    /// [`crate::observe::render_timeline`]) of the cycles around the
    /// divergence.
    pub timeline: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "first divergence at commit #{} (cycle {}):",
            self.commit_index, self.cycle
        )?;
        match &self.kind {
            DivergenceKind::Mismatch { functional, cycle } => {
                writeln!(f, "  functional: {functional:?}")?;
                writeln!(f, "  cycle:      {cycle:?}")?;
            }
            DivergenceKind::ExtraCommit { cycle } => {
                writeln!(
                    f,
                    "  cycle engine committed after the functional engine halted: {cycle:?}"
                )?;
            }
            DivergenceKind::Error { functional, cycle } => {
                writeln!(f, "  functional error: {functional:?}")?;
                writeln!(f, "  cycle error:      {cycle:?}")?;
            }
            DivergenceKind::FinalState => {
                writeln!(f, "  commit streams match but final machine state differs")?;
            }
            DivergenceKind::Watchdog { commits } => {
                writeln!(
                    f,
                    "  watchdog limit expired after {commits} matching commits (no halt)"
                )?;
            }
        }
        write!(f, "{}", self.timeline)
    }
}

/// The verdict of one [`run_lockstep`] call.
#[derive(Debug, Clone)]
pub enum LockstepOutcome {
    /// The engines agreed on every commit and on the final state.
    /// (Programs on which both engines raise the *same* error also
    /// land here: the engines agree the program is faulty.)
    Agree {
        /// Retired entries compared.
        commits: u64,
        /// Cycle-engine clock at the end of the run.
        cycles: u64,
    },
    /// The engines disagreed; the payload pinpoints the first
    /// divergent commit.
    Diverge(Box<Divergence>),
}

impl LockstepOutcome {
    /// Whether the engines agreed.
    pub fn is_agree(&self) -> bool {
        matches!(self, LockstepOutcome::Agree { .. })
    }

    /// The divergence, if any.
    pub fn divergence(&self) -> Option<&Divergence> {
        match self {
            LockstepOutcome::Agree { .. } => None,
            LockstepOutcome::Diverge(d) => Some(d),
        }
    }
}

/// The configuration grid the differential harness sweeps: every
/// [`FoldPolicy`] × decoded-cache size × hardware-prediction mode. The
/// small cache forces conflict evictions and refetch-replay paths; the
/// dynamic predictors exercise guess-direction swaps the static bit
/// never takes — every [`HwPredictor`] variant is represented (tiny
/// BTB/jump-trace geometries, so eviction and capacity paths fire on
/// short programs).
pub fn sweep_configs() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for fold_policy in [
        FoldPolicy::None,
        FoldPolicy::Host1,
        FoldPolicy::Host13,
        FoldPolicy::All,
    ] {
        for icache_entries in [8usize, 32] {
            for predictor in [
                HwPredictor::StaticBit,
                HwPredictor::Dynamic {
                    bits: 2,
                    entries: 64,
                },
                HwPredictor::Btb {
                    entries: 8,
                    ways: 2,
                },
                HwPredictor::JumpTrace { entries: 8 },
            ] {
                out.push(SimConfig {
                    fold_policy,
                    icache_entries,
                    predictor,
                    ..SimConfig::default()
                });
            }
        }
    }
    out
}

fn diverge(
    cyc: &CycleSim<(CommitLog, EventRing)>,
    commit_index: usize,
    at_cycle: u64,
    kind: DivergenceKind,
) -> LockstepOutcome {
    let events: Vec<PipeEvent> = cyc.observer().1.events().copied().collect();
    let from = at_cycle.saturating_sub(EXCERPT_BEFORE);
    let timeline = render_timeline_for(&events, from, at_cycle + EXCERPT_AFTER, cyc.geometry());
    LockstepOutcome::Diverge(Box::new(Divergence {
        commit_index,
        cycle: at_cycle,
        kind,
        timeline,
    }))
}

/// Run both engines over `image` in lockstep under `cfg`, comparing
/// commit streams, and report the first divergence (or agreement).
///
/// The cycle engine is clocked one cycle at a time; each retirement it
/// produces advances the functional reference by exactly one step, and
/// the two [`CommitRecord`]s must match. The comparison is therefore
/// *incremental* — the run stops at the first divergent commit, with
/// the pipeline context still in the event ring for the excerpt.
///
/// # Errors
///
/// Only harness-level failures (the image does not load) are `Err`;
/// every behavioural disagreement — including one engine erroring where
/// the other ran on — is reported as [`LockstepOutcome::Diverge`].
pub fn run_lockstep(image: &Image, cfg: SimConfig) -> Result<LockstepOutcome, SimError> {
    run_lockstep_pooled(image, cfg, None, &mut LockstepBuffers::default())
}

/// Reusable per-worker state for [`run_lockstep_pooled`]: the two
/// engines' `Machine` buffers, recycled across cases via
/// [`Machine::reset_from`] so a million-case campaign performs two
/// memory allocations per worker instead of two per case.
#[derive(Debug, Default)]
pub struct LockstepBuffers {
    pub(crate) func: Option<Machine>,
    pub(crate) cycle: Option<Machine>,
}

pub(crate) fn reset_or_load(buf: Option<Machine>, image: &Image) -> Result<Machine, SimError> {
    match buf {
        // `reset_from` is bit-identical to a fresh load (including the
        // memory size), so pooled and unpooled runs cannot diverge.
        Some(mut m) => {
            m.reset_from(image)?;
            Ok(m)
        }
        None => Machine::load(image),
    }
}

/// [`run_lockstep`] with the campaign fast paths: `predecoded` (when
/// given) serves both engines' decode work from a shared table, and
/// `bufs` recycles the machine buffers across calls. Without a table
/// the call builds one and hands it to both engines.
///
/// # Errors
///
/// Same conditions as [`run_lockstep`].
///
/// # Panics
///
/// If `predecoded` was built under a fold policy different from
/// `cfg.fold_policy` — the table would silently answer for the wrong
/// policy.
pub fn run_lockstep_pooled(
    image: &Image,
    cfg: SimConfig,
    predecoded: Option<&Arc<PredecodedImage>>,
    bufs: &mut LockstepBuffers,
) -> Result<LockstepOutcome, SimError> {
    cfg.validate();
    if let Some(t) = predecoded {
        assert_eq!(
            t.policy(),
            cfg.fold_policy,
            "predecode table policy must match the swept config"
        );
    }
    let fmach = reset_or_load(bufs.func.take(), image)?;
    let cmach = reset_or_load(bufs.cycle.take(), image)?;
    let table = match predecoded {
        Some(t) => Arc::clone(t),
        None => Arc::new(PredecodedImage::from_machine(&fmach, cfg.fold_policy)),
    };
    let mut func = FunctionalSim::with_predecoded(fmach, Arc::clone(&table));
    let mut cyc = CycleSim::with_predecoded(
        cmach,
        cfg,
        (CommitLog::default(), EventRing::new(TIMELINE_RING)),
        table,
    );
    let outcome = lockstep_loop(&mut func, &mut cyc, &cfg);
    bufs.func = Some(func.into_machine());
    bufs.cycle = Some(cyc.into_machine());
    Ok(outcome)
}

fn lockstep_loop(
    func: &mut FunctionalSim,
    cyc: &mut CycleSim<(CommitLog, EventRing)>,
    cfg: &SimConfig,
) -> LockstepOutcome {
    let mut flog = CommitLog::default();
    let mut compared = 0usize;
    let mut func_halted = false;

    loop {
        if cyc.stats.cycles >= cfg.max_cycles
            || cfg
                .max_insns
                .is_some_and(|limit| cyc.stats.program_instrs >= limit)
        {
            let at = cyc.stats.cycles;
            return diverge(
                cyc,
                compared,
                at,
                DivergenceKind::Watchdog {
                    commits: compared as u64,
                },
            );
        }
        let step_result = cyc.step();

        // Drain the cycle engine's newly retired commits, co-stepping
        // the functional reference one commit per record.
        while compared < cyc.observer().0.records.len() {
            let crec = cyc.observer().0.records[compared];
            let at = cyc.observer().0.cycles[compared];
            if func_halted {
                return diverge(
                    cyc,
                    compared,
                    at,
                    DivergenceKind::ExtraCommit { cycle: crec },
                );
            }
            let frec = match func.step_observed(compared as u64, &mut flog) {
                Ok(_) => *flog.records.last().expect("step_observed emits a commit"),
                Err(e) => {
                    return diverge(
                        cyc,
                        compared,
                        at,
                        DivergenceKind::Error {
                            functional: Some(e),
                            cycle: None,
                        },
                    );
                }
            };
            if frec != crec {
                return diverge(
                    cyc,
                    compared,
                    at,
                    DivergenceKind::Mismatch {
                        functional: frec,
                        cycle: crec,
                    },
                );
            }
            func_halted = frec.halted;
            compared += 1;
        }

        match step_result {
            Ok(snap) => {
                if snap.halted {
                    break;
                }
            }
            Err(cycle_err) => {
                // Agreement requires the functional engine to reach the
                // same error within the in-flight window (the cycle
                // engine aborted before the slots behind the error
                // retired, so the reference may owe a few commits).
                let mut func_err = None;
                if !func_halted {
                    for chase in 0..ERROR_CHASE {
                        match func.step_observed((compared + chase) as u64, &mut flog) {
                            Ok(step) => {
                                if step.halted {
                                    break;
                                }
                            }
                            Err(e) => {
                                func_err = Some(e);
                                break;
                            }
                        }
                    }
                }
                if func_err.as_ref() == Some(&cycle_err) {
                    return LockstepOutcome::Agree {
                        commits: compared as u64,
                        cycles: cyc.stats.cycles,
                    };
                }
                let at = cyc.stats.cycles;
                return diverge(
                    cyc,
                    compared,
                    at,
                    DivergenceKind::Error {
                        functional: func_err,
                        cycle: Some(cycle_err),
                    },
                );
            }
        }
    }

    // Streams matched all the way to halt (the final records carried
    // halted = true on both sides, so the functional engine stopped at
    // the same commit). Belt and braces: the complete architectural
    // state must agree too, catching any write neither engine reported.
    let (fm, cm) = (func.machine(), cyc.machine());
    if fm.accum != cm.accum
        || fm.sp != cm.sp
        || fm.psw.flag != cm.psw.flag
        || fm.halted != cm.halted
        || fm.mem != cm.mem
    {
        let at = cyc.stats.cycles;
        return diverge(cyc, compared, at, DivergenceKind::FinalState);
    }
    LockstepOutcome::Agree {
        commits: compared as u64,
        cycles: cyc.stats.cycles,
    }
}

/// An online commit-stream comparator: checks each commit a cycle
/// engine retires against a precomputed reference [`CommitLog`], in
/// retirement order, without storing the stream.
///
/// This is the batched campaign kernels' observer. Where the scalar
/// harnesses either co-step a live functional engine
/// ([`run_lockstep`]) or buffer the whole faulted stream for a
/// post-hoc comparison ([`crate::classify_fault`]), batched lanes
/// share one reference log per (image, fold policy) and each lane
/// carries only a cursor into it — no per-lane log allocation — and
/// the driver polls [`PrefixCheck::decided`] between waves to eject a
/// lane whose verdict is already fixed.
#[derive(Debug, Clone)]
pub struct PrefixCheck {
    reference: Arc<CommitLog>,
    /// Leading commits that matched the reference.
    matched: usize,
    /// The first divergent (reference, observed) pair, if any.
    mismatch: Option<(CommitRecord, CommitRecord)>,
    /// Commits observed beyond the end of the reference stream.
    extra: u64,
}

impl PrefixCheck {
    /// A fresh cursor over `reference`.
    pub fn new(reference: Arc<CommitLog>) -> PrefixCheck {
        PrefixCheck {
            reference,
            matched: 0,
            mismatch: None,
            extra: 0,
        }
    }

    /// Leading commits that matched the reference stream.
    pub fn matched(&self) -> usize {
        self.matched
    }

    /// The first divergent (reference, observed) record pair, if the
    /// prefix has diverged.
    pub fn mismatch(&self) -> Option<&(CommitRecord, CommitRecord)> {
        self.mismatch.as_ref()
    }

    /// Commits retired past the end of the reference stream (with the
    /// whole reference matched).
    pub fn extra(&self) -> u64 {
        self.extra
    }

    /// Whether the verdict is already fixed no matter how the run
    /// ends: the prefix has diverged, so later commits can only follow
    /// the wrong path. Length differences do *not* decide — a short,
    /// long or stalled stream still distinguishes hang from halt by
    /// how the run ends.
    pub fn decided(&self) -> bool {
        self.mismatch.is_some()
    }

    /// Whether the observed stream reproduced the reference exactly:
    /// every reference commit matched, none diverged, none were extra.
    pub fn full_match(&self) -> bool {
        self.mismatch.is_none() && self.extra == 0 && self.matched == self.reference.records.len()
    }
}

impl PipeObserver for PrefixCheck {
    const INTEREST: Interest = Interest::Commits;

    #[inline]
    fn event(&mut self, ev: PipeEvent) {
        let Some((_, rec)) = CommitRecord::from_event(&ev) else {
            return;
        };
        if self.mismatch.is_some() {
            return;
        }
        match self.reference.records.get(self.matched) {
            None => self.extra += 1,
            Some(r) if *r == rec => self.matched += 1,
            Some(r) => self.mismatch = Some((*r, rec)),
        }
    }
}

/// The functional engine's complete run over one (image, fold policy):
/// the commit stream plus — when the run halted cleanly — the final
/// architectural state. One reference serves every configuration of a
/// batched lockstep sweep under that policy, where the scalar harness
/// re-steps the functional engine once per configuration.
#[derive(Debug)]
pub struct DiffReference {
    log: Arc<CommitLog>,
    /// `Some` only when the reference halted within the step budget.
    machine: Option<Machine>,
    /// The table the reference decoded from, which the sweep's lanes
    /// share when the caller has none.
    predecoded: Arc<PredecodedImage>,
}

impl DiffReference {
    /// Whether the reference ran to a clean halt. Batched lanes can
    /// only agree against a clean reference; an unclean one (error or
    /// step-budget expiry) sends every configuration down the scalar
    /// fallback, which reproduces the error-chase and watchdog
    /// reporting exactly.
    pub fn clean(&self) -> bool {
        self.machine.is_some()
    }

    /// The reference commit stream.
    pub fn log(&self) -> &Arc<CommitLog> {
        &self.log
    }
}

/// Precompute the functional side of a lockstep sweep: run the
/// reference once to completion and capture its commit stream.
///
/// `max_steps` bounds the run; pass the sweep's `max_cycles` — the
/// cycle engine retires at most one entry per cycle, so a cycle run
/// inside its watchdog can never need more reference steps than that.
/// A reference that errors or exhausts the budget is still returned,
/// just not [`DiffReference::clean`]. Without `predecoded` the call
/// builds the table, and the reference keeps it for the sweep's lanes.
///
/// # Errors
///
/// Image-load failures only.
pub fn diff_reference(
    image: &Image,
    fold_policy: FoldPolicy,
    max_steps: u64,
    predecoded: Option<&Arc<PredecodedImage>>,
    pool: &mut MachinePool,
) -> Result<DiffReference, SimError> {
    if let Some(t) = predecoded {
        assert_eq!(
            t.policy(),
            fold_policy,
            "predecode table policy must match the reference policy"
        );
    }
    let predecoded = match predecoded {
        Some(t) => Arc::clone(t),
        None => PredecodedImage::shared(image, fold_policy)?,
    };
    let machine = pool.take(image)?;
    let mut log = CommitLog::default();
    let run = FunctionalSim::with_predecoded(machine, Arc::clone(&predecoded))
        .max_steps(max_steps)
        .run_observed(&mut log);
    let machine = match run {
        Ok(run) if run.halt_reason == HaltReason::Halted => Some(run.machine),
        Ok(run) => {
            pool.put(run.machine);
            None
        }
        // The reference died mid-run (its machine is consumed); the
        // scalar fallback will chase the same error per configuration.
        Err(_) => None,
    };
    Ok(DiffReference {
        log: Arc::new(log),
        machine,
        predecoded,
    })
}

/// Batched variant of [`run_lockstep_pooled`]: run `cfgs` (all sharing
/// `reference`'s fold policy) as SoA cycle-engine lanes against one
/// precomputed functional reference, `lanes` at a time, refilling each
/// slot as its lane drains. Without `predecoded`, the lanes share the
/// table the reference decoded from.
///
/// A lane that matches the whole reference stream, halts, and
/// reproduces the reference's final state reports
/// [`LockstepOutcome::Agree`] with exactly the counts the scalar
/// harness computes. Every other lane — a mismatched commit (the lane
/// is ejected the wave the mismatch retires), an engine error, a
/// watchdog expiry, a stream-length difference, a final-state
/// difference, or an unclean reference — is re-run through the scalar
/// [`run_lockstep_pooled`] harness, which reproduces the divergence
/// report (timeline excerpt included) bit-identically to a
/// scalar-only sweep. Campaigns abort on the first divergence, so the
/// double-run costs nothing on the steady-state path.
///
/// # Errors
///
/// Image-load failures only, as in [`run_lockstep`].
///
/// # Panics
///
/// If a config's fold policy differs from the reference table's
/// policy, or a config fails [`SimConfig::validate`].
pub fn run_lockstep_batched(
    image: &Image,
    cfgs: &[SimConfig],
    predecoded: Option<&Arc<PredecodedImage>>,
    reference: &DiffReference,
    lanes: usize,
    pool: &mut MachinePool,
    bufs: &mut LockstepBuffers,
) -> Result<Vec<LockstepOutcome>, SimError> {
    let mut outcomes: Vec<Option<LockstepOutcome>> = (0..cfgs.len()).map(|_| None).collect();
    let mut rerun: Vec<usize> = Vec::new();
    let table = predecoded.unwrap_or(&reference.predecoded);
    match &reference.machine {
        None => rerun.extend(0..cfgs.len()),
        Some(ref_machine) => {
            let mut batch: MachineBatch<PrefixCheck> =
                MachineBatch::new(lanes.clamp(1, cfgs.len().max(1)));
            let mut next = 0usize;
            loop {
                while next < cfgs.len() && batch.free_lane().is_some() {
                    let cfg = cfgs[next];
                    cfg.validate();
                    let sim = CycleSim::with_predecoded(
                        pool.take(image)?,
                        cfg,
                        PrefixCheck::new(Arc::clone(&reference.log)),
                        Arc::clone(table),
                    );
                    batch.admit(next as u64, sim);
                    next += 1;
                }
                if batch.live_lanes() == 0 {
                    break;
                }
                batch.step_wave();
                for lane in 0..batch.lanes() {
                    if batch.is_live(lane) && batch.observer(lane).decided() {
                        batch.eject(lane);
                    }
                }
                for fin in batch.drain_finished() {
                    let idx = fin.tag as usize;
                    let fm = ref_machine;
                    let cm = &fin.machine;
                    let agree = matches!(fin.end, LaneEnd::Halted)
                        && fin.obs.full_match()
                        && fm.accum == cm.accum
                        && fm.sp == cm.sp
                        && fm.psw.flag == cm.psw.flag
                        && fm.halted == cm.halted
                        && fm.mem == cm.mem;
                    if agree {
                        outcomes[idx] = Some(LockstepOutcome::Agree {
                            commits: fin.obs.matched() as u64,
                            cycles: fin.stats.cycles,
                        });
                    } else {
                        rerun.push(idx);
                    }
                    pool.put(fin.machine);
                }
            }
        }
    }
    for idx in rerun {
        outcomes[idx] = Some(run_lockstep_pooled(image, cfgs[idx], Some(table), bufs)?);
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("every config ran as a lane or a scalar fallback"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultInjection;
    use crisp_asm::assemble_text;

    fn image(src: &str) -> Image {
        assemble_text(src).unwrap()
    }

    #[test]
    fn lockstep_agrees_across_the_whole_sweep() {
        let img = image(
            "
                mov 0(sp),$0
                mov 4(sp),$0
            top:
                add 4(sp),0(sp)
                cmp.= Accum,$3
                ifjmpy.nt keep
                mov 8(sp),4(sp)
            keep:
                add 0(sp),$1
                cmp.s< 0(sp),$20
                ifjmpy.t top
                halt
            ",
        );
        for cfg in sweep_configs() {
            let out = run_lockstep(&img, cfg).unwrap();
            match out {
                LockstepOutcome::Agree { commits, cycles } => {
                    assert!(commits > 20, "{commits} commits under {cfg:?}");
                    assert!(cycles >= commits);
                }
                LockstepOutcome::Diverge(d) => panic!("diverged under {cfg:?}:\n{d}"),
            }
        }
    }

    #[test]
    fn pooled_lockstep_matches_fresh_runs() {
        // Shared tables + recycled machine buffers are pure work-savers:
        // the outcome of every swept config must match the unpooled
        // oracle, including across different images through the same
        // buffers.
        let images = [
            image(
                "
                    mov 0(sp),$0
                top:
                    add 0(sp),$1
                    cmp.s< 0(sp),$9
                    ifjmpy.t top
                    halt
                ",
            ),
            image("call f\nhalt\nf: add 0(sp),$3\nret"),
        ];
        let mut bufs = LockstepBuffers::default();
        for img in &images {
            let tables: Vec<Arc<PredecodedImage>> = [
                FoldPolicy::None,
                FoldPolicy::Host1,
                FoldPolicy::Host13,
                FoldPolicy::All,
            ]
            .iter()
            .map(|&p| PredecodedImage::shared(img, p).unwrap())
            .collect();
            for cfg in sweep_configs() {
                let table = tables
                    .iter()
                    .find(|t| t.policy() == cfg.fold_policy)
                    .unwrap();
                let fresh = run_lockstep(img, cfg).unwrap();
                let pooled = run_lockstep_pooled(img, cfg, Some(table), &mut bufs).unwrap();
                match (&fresh, &pooled) {
                    (
                        LockstepOutcome::Agree { commits, cycles },
                        LockstepOutcome::Agree {
                            commits: pc,
                            cycles: py,
                        },
                    ) => {
                        assert_eq!(commits, pc, "{cfg:?}");
                        assert_eq!(cycles, py, "{cfg:?}");
                    }
                    other => panic!("outcomes differ under {cfg:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unaligned_operands_agree_and_record_masked_addresses() {
        // Satellite proof for the Memory alignment contract: unaligned
        // absolute operands round down identically in both engines, and
        // the commit stream records the *aligned* address.
        let img = image(
            "
                mov *0x10001,$5
                mov 0(sp),*0x10002
                halt
            ",
        );
        assert!(run_lockstep(&img, SimConfig::default()).unwrap().is_agree());
        let mut log = CommitLog::default();
        let machine = Machine::load(&img).unwrap();
        let mut f = FunctionalSim::new(machine);
        for i in 0..3 {
            f.step_observed(i, &mut log).unwrap();
        }
        assert_eq!(log.records[0].mem_write, Some((0x1_0000, 5)));
        assert_eq!(f.machine().mem.read_word(0x1_0003).unwrap(), 5);
    }

    #[test]
    fn injected_squash_skip_is_caught() {
        // Folded compare, mispredicted at RR: flag is true (Accum == 0)
        // and ifjmpn branches on false, so the predicted-taken branch
        // falls through. The wrong (taken) path stores 9; recovery must
        // squash it. With the squash skipped, that store commits — and
        // the oracle must report the wrong-path commit, not agreement.
        let src = "
            nop
            cmp.= Accum,$0
            ifjmpn.t over
            mov 0(sp),$7
            halt
        over:
            mov 0(sp),$9
            halt
        ";
        let img = image(src);
        let clean = run_lockstep(&img, SimConfig::default()).unwrap();
        assert!(
            clean.is_agree(),
            "{:?}",
            clean.divergence().map(|d| &d.kind)
        );

        let faulty_cfg = SimConfig {
            fault: Some(FaultInjection::SkipOrSquash),
            ..SimConfig::default()
        };
        let faulty = run_lockstep(&img, faulty_cfg).unwrap();
        let d = faulty.divergence().expect("oracle catches the fault");
        match &d.kind {
            DivergenceKind::Mismatch { functional, cycle } => {
                // The cycle engine committed the wrong-path store.
                assert_eq!(cycle.mem_write.map(|(_, v)| v), Some(9));
                assert_ne!(functional, cycle);
            }
            other => panic!("unexpected divergence kind: {other:?}"),
        }
        assert!(
            !d.timeline.is_empty(),
            "divergence report carries a timeline excerpt"
        );
        let shown = format!("{d}");
        assert!(shown.contains("first divergence at commit #"));
    }

    #[test]
    fn cycle_error_against_running_functional_is_a_divergence() {
        // A program whose true path decodes garbage errors identically
        // in both engines — that is agreement, not divergence.
        let img = image("jmp bad\nbad: .word 0x0000B800");
        let out = run_lockstep(&img, SimConfig::default()).unwrap();
        assert!(out.is_agree(), "{:?}", out.divergence().map(|d| &d.kind));
    }

    #[test]
    fn commit_log_ignores_other_events() {
        let mut log = CommitLog::default();
        log.event(PipeEvent::FetchMiss { cycle: 1, pc: 0 });
        assert!(log.records.is_empty());
        // Commit-only interest: lanes under it never build other events.
        assert_eq!(CommitLog::INTEREST, Interest::Commits);
    }
}
