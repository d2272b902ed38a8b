//! Property tests for the observability layer: on randomized programs,
//! the typed event stream must reconcile *exactly* with the cycle
//! engine's counters, the branch-site profiler must agree with both,
//! and the JSONL trace format must round-trip losslessly.
//!
//! Observer interest (`PipeObserver::INTEREST`) decides only which
//! events get built, never what the machine does: on the campaign
//! corpus (`rand_prog` × `sweep_configs()` plus a fault-armed
//! configuration), every engine gives the same statistics, final
//! machine and halt reason under `NullObserver` (`Off`), `CommitLog`
//! (`Commits`) and `(CommitLog, EventRing)` (`All`), and the
//! commit-only stream is exactly the `Commit` subsequence of the full
//! one.
//!
//! Programs are a bounded counted loop over a random mix of ALU
//! operations and forward conditional skips with random prediction
//! bits — the same shape `prop_equivalence` uses, exercising folds,
//! mispredicts at every resolution stage, cache misses and stalls.

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::{assemble, Image, Item, Module};
use crisp::isa::{BinOp, Cond, FoldPolicy, Instr, Operand};
use crisp::sim::{
    nth_field, parse_jsonl, sweep_configs, write_jsonl, BranchProfiler, CommitLog, CycleSim,
    EventRing, FaultPlan, FaultTarget, FunctionalRun, FunctionalSim, HwPredictor, Machine,
    NullObserver, ParityMode, PipeEvent, PipeObserver, PipelineGeometry, SimConfig, SimError,
    StageHistogram, StallKind, ThreadedSim, FAULT_SPACE,
};
use proptest::prelude::*;

/// One random loop-body element: an ALU op, or a compare-and-skip
/// around one (so the flag and both branch directions get exercised).
#[derive(Debug, Clone)]
enum BodyOp {
    Alu(BinOp, u8, u8),
    Acc(BinOp, u8, u8),
    Skip {
        cond: Cond,
        a: u8,
        b: u8,
        on_true: bool,
        predict: bool,
        then: BinOp,
        slot: u8,
    },
}

fn arb_alu_op() -> impl Strategy<Value = BodyOp> {
    (
        prop::sample::select(vec![
            BinOp::Add,
            BinOp::Sub,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
        ]),
        1u8..8,
        0u8..32,
    )
        .prop_map(|(op, s, i)| BodyOp::Alu(op, s, i))
}

fn arb_body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        3 => arb_alu_op(),
        1 => (
            prop::sample::select(vec![BinOp::Add, BinOp::Xor]),
            1u8..8,
            0u8..32,
        )
            .prop_map(|(op, s, i)| BodyOp::Acc(op, s, i)),
        2 => (
            prop::sample::select(Cond::ALL.to_vec()),
            1u8..8,
            1u8..8,
            any::<bool>(),
            any::<bool>(),
            prop::sample::select(vec![BinOp::Add, BinOp::Sub]),
            1u8..8,
        )
            .prop_map(|(cond, a, b, on_true, predict, then, slot)| BodyOp::Skip {
                cond,
                a,
                b,
                on_true,
                predict,
                then,
                slot,
            }),
    ]
}

fn slot(s: u8) -> Operand {
    Operand::SpOff(4 * s as i32)
}

fn build_program(body: &[BodyOp], iters: u8) -> Module {
    let mut m = Module::new();
    let mut label = 0usize;
    m.push(Item::Instr(Instr::Op2 {
        op: BinOp::Mov,
        dst: slot(0),
        src: Operand::Imm(0),
    }));
    m.push(Item::Label("top".into()));
    for op in body {
        match op {
            BodyOp::Alu(op, s, imm) => {
                m.push(Item::Instr(Instr::Op2 {
                    op: *op,
                    dst: slot(*s),
                    src: Operand::Imm(*imm as i32),
                }));
            }
            BodyOp::Acc(op, s, imm) => {
                m.push(Item::Instr(Instr::Op3 {
                    op: *op,
                    a: slot(*s),
                    b: Operand::Imm(*imm as i32),
                }));
            }
            BodyOp::Skip {
                cond,
                a,
                b,
                on_true,
                predict,
                then,
                slot: s,
            } => {
                label += 1;
                let l = format!("skip{label}");
                m.push(Item::Instr(Instr::Cmp {
                    cond: *cond,
                    a: slot(*a),
                    b: slot(*b),
                }));
                m.push(Item::IfJmpTo {
                    on_true: *on_true,
                    predict_taken: *predict,
                    label: l.clone(),
                });
                m.push(Item::Instr(Instr::Op2 {
                    op: *then,
                    dst: slot(*s),
                    src: Operand::Imm(1),
                }));
                m.push(Item::Label(l));
            }
        }
    }
    m.push(Item::Instr(Instr::Op2 {
        op: BinOp::Add,
        dst: slot(0),
        src: Operand::Imm(1),
    }));
    m.push(Item::Instr(Instr::Cmp {
        cond: Cond::LtS,
        a: slot(0),
        b: Operand::Imm(iters as i32),
    }));
    m.push(Item::IfJmpTo {
        on_true: true,
        predict_taken: true,
        label: "top".into(),
    });
    m.push(Item::Instr(Instr::Halt));
    m
}

/// Event-stream tallies that mirror [`crisp::sim::CycleStats`].
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    issues: u64,
    folded_issues: u64,
    branch_retires: u64,
    resolves_by_stage: StageHistogram,
    mispredicts_by_stage: StageHistogram,
    squashes: u64,
    fetch_hits: u64,
    fetch_misses: u64,
    decodes: u64,
    folds: u64,
    fold_fails: u64,
    miss_stall: u64,
    indirect_stall: u64,
    halts: u64,
    commits: u64,
    cache_fills: u64,
    cache_fills_evicting: u64,
    fault_injects: u64,
    parity_errors: u64,
}

fn tally(events: &[PipeEvent], geo: PipelineGeometry) -> Result<Tally, TestCaseError> {
    let mut t = Tally {
        resolves_by_stage: StageHistogram::for_geometry(geo),
        mispredicts_by_stage: StageHistogram::for_geometry(geo),
        ..Tally::default()
    };
    let mut open: Option<(StallKind, u64)> = None;
    for ev in events {
        match *ev {
            PipeEvent::Issue { folded, .. } => {
                t.issues += 1;
                t.folded_issues += u64::from(folded);
            }
            PipeEvent::BranchRetire { .. } => t.branch_retires += 1,
            PipeEvent::BranchResolve {
                stage,
                mispredicted,
                ..
            } => {
                let s = stage as usize;
                prop_assert!(s <= geo.retire_stage(), "stage out of range: {stage}");
                t.resolves_by_stage.bump(s);
                if mispredicted {
                    t.mispredicts_by_stage.bump(s);
                }
            }
            PipeEvent::Squash { stage, .. } => {
                // Only in-flight EU stages short of retire can be
                // squashed: 1..=depth-1 (IR/OR on the paper's machine).
                let s = stage as usize;
                prop_assert!(s >= 1 && s < geo.depth(), "squash stage {stage}");
                t.squashes += 1;
            }
            PipeEvent::FetchHit { .. } => t.fetch_hits += 1,
            PipeEvent::FetchMiss { .. } => t.fetch_misses += 1,
            PipeEvent::Decode { .. } => t.decodes += 1,
            PipeEvent::Fold { .. } => t.folds += 1,
            PipeEvent::FoldFail { .. } => t.fold_fails += 1,
            PipeEvent::CacheFill { evicted, .. } => {
                t.cache_fills += 1;
                t.cache_fills_evicting += u64::from(evicted.is_some());
            }
            PipeEvent::Commit { .. } => t.commits += 1,
            PipeEvent::StallBegin { cycle, kind } => {
                prop_assert!(open.is_none(), "nested StallBegin at cycle {cycle}");
                open = Some((kind, cycle));
            }
            PipeEvent::StallEnd { cycle, kind } => {
                let (open_kind, begin) = open.take().expect("StallEnd without begin");
                prop_assert_eq!(open_kind, kind, "stall kind mismatch");
                prop_assert!(cycle >= begin);
                match kind {
                    StallKind::Miss => t.miss_stall += cycle - begin,
                    StallKind::Indirect => t.indirect_stall += cycle - begin,
                }
            }
            PipeEvent::FaultInject { .. } => t.fault_injects += 1,
            PipeEvent::ParityError { .. } => t.parity_errors += 1,
            PipeEvent::Halt { .. } => t.halts += 1,
            // Live-predictor lookups; their trace-model equivalence has
            // its own harness (tests/prop_predictor_xval.rs).
            PipeEvent::Predict { .. } => {}
            // Way-disable under a DegradePolicy; none of the configs
            // here set one, so this arm is exercised by the dedicated
            // degradation tests instead.
            PipeEvent::Degrade { .. } => {}
        }
    }
    prop_assert!(open.is_none(), "unterminated stall at end of run");
    Ok(t)
}

fn configs() -> Vec<SimConfig> {
    vec![
        SimConfig::default(),
        SimConfig {
            fold_policy: FoldPolicy::None,
            ..SimConfig::default()
        },
        SimConfig {
            icache_entries: 4,
            mem_latency: 5,
            ..SimConfig::default()
        },
        SimConfig {
            predictor: HwPredictor::Dynamic {
                bits: 2,
                entries: 64,
            },
            fold_policy: FoldPolicy::All,
            ..SimConfig::default()
        },
        // Non-default geometries: the shallowest supported pipe and a
        // deep one, so the reconciliation holds away from D=3 too.
        SimConfig {
            geometry: PipelineGeometry::new(2),
            ..SimConfig::default()
        },
        SimConfig {
            geometry: PipelineGeometry::new(5),
            icache_entries: 8,
            mem_latency: 3,
            ..SimConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_stream_reconciles_with_cycle_stats(
        body in prop::collection::vec(arb_body_op(), 1..10),
        iters in 1u8..24,
    ) {
        let image = assemble(&build_program(&body, iters)).unwrap();
        for cfg in configs() {
            let sim = CycleSim::with_observer(
                Machine::load(&image).unwrap(),
                cfg,
                (
                    EventRing::new(1 << 20),
                    BranchProfiler::with_geometry(cfg.geometry),
                ),
            );
            let (run, (ring, prof)) = sim.run_observed().unwrap();
            prop_assert_eq!(ring.dropped, 0, "ring sized for the whole run");
            let events = ring.into_vec();
            let t = tally(&events, cfg.geometry)?;

            // Every counter in CycleStats is derivable from the stream.
            prop_assert_eq!(t.issues, run.stats.issued);
            prop_assert_eq!(t.issues + t.folded_issues, run.stats.program_instrs);
            prop_assert_eq!(t.branch_retires, run.stats.cond_branches);
            prop_assert_eq!(t.mispredicts_by_stage, run.stats.mispredicts_by_stage);
            prop_assert_eq!(t.resolves_by_stage.get(0), run.stats.resolved_at_fetch);
            prop_assert_eq!(t.squashes, run.stats.flushed_slots);
            prop_assert_eq!(t.fetch_hits, run.stats.icache_hits);
            prop_assert_eq!(t.fetch_misses, run.stats.icache_misses);
            prop_assert_eq!(t.decodes, run.stats.pdu_decodes);
            prop_assert_eq!(t.miss_stall, run.stats.miss_stall_cycles);
            prop_assert_eq!(t.indirect_stall, run.stats.indirect_stall_cycles);
            prop_assert_eq!(t.halts, 1);
            // One architectural commit per issued entry, no more (a
            // squashed wrong-path slot must never reach the commit
            // point).
            prop_assert_eq!(t.commits, run.stats.issued);
            // Cache fills split into first-time inserts vs same-PC
            // refills; every eviction is a fill that displaced a
            // different tag.
            prop_assert_eq!(
                t.cache_fills,
                run.stats.cache_inserts + run.stats.cache_refills
            );
            prop_assert_eq!(t.cache_fills_evicting, run.stats.cache_evictions);
            prop_assert_eq!(t.fault_injects, run.stats.faults_injected);
            prop_assert_eq!(t.parity_errors, run.stats.parity_invalidates);
            // Every retired conditional branch resolved exactly once.
            prop_assert_eq!(t.resolves_by_stage.total(), run.stats.cond_branches);

            // The profiler is an aggregation of the same stream, so its
            // totals must match both.
            prop_assert_eq!(prof.issues, run.stats.issued);
            prop_assert_eq!(prof.branch_retires(), run.stats.cond_branches);
            prop_assert_eq!(prof.mispredicts_by_stage(), run.stats.mispredicts_by_stage);
            prop_assert_eq!(prof.mispredicts(), run.stats.mispredicts());
            prop_assert_eq!(prof.resolved_at_fetch(), run.stats.resolved_at_fetch);
            prop_assert_eq!(prof.folds, t.folds);
            prop_assert_eq!(
                prof.fold_failures.iter().sum::<u64>(),
                t.fold_fails
            );
        }
    }

    #[test]
    fn jsonl_trace_round_trips(
        body in prop::collection::vec(arb_body_op(), 1..8),
        iters in 1u8..12,
    ) {
        let image = assemble(&build_program(&body, iters)).unwrap();
        let sim = CycleSim::with_observer(
            Machine::load(&image).unwrap(),
            SimConfig::default(),
            EventRing::new(1 << 20),
        );
        let (_, ring) = sim.run_observed().unwrap();
        let events = ring.into_vec();
        prop_assert!(!events.is_empty());

        let mut buf = Vec::new();
        write_jsonl(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        prop_assert_eq!(text.lines().count(), events.len());
        let parsed = parse_jsonl(&text).unwrap();
        prop_assert_eq!(parsed, events);
    }
}

/// Step and cycle budget for the interest-invariance runs: generated
/// programs halt well inside it, and a fault that makes one spin ends
/// in the watchdog under every observer alike.
const BUDGET: u64 = 200_000;

/// The full-stream observer: commits into the log, everything into a
/// ring sized for the whole run.
fn full() -> (CommitLog, EventRing) {
    (CommitLog::default(), EventRing::new(1 << 22))
}

/// The `Commit` subsequence of a full event stream, as a commit log.
fn commits_of(ring: &EventRing) -> CommitLog {
    let mut log = CommitLog::default();
    for ev in ring
        .events()
        .filter(|e| matches!(e, PipeEvent::Commit { .. }))
    {
        log.event(*ev);
    }
    log
}

/// `CommitLog` alone saw exactly what the full stream committed, and
/// the tuple's own log agrees with both.
fn same_commits(
    alone: &CommitLog,
    (log, ring): &(CommitLog, EventRing),
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(ring.dropped, 0, "ring sized for the whole run");
    let sub = commits_of(ring);
    prop_assert!(
        alone.records == sub.records && alone.cycles == sub.cycles,
        "{}: commit-only stream differs from the full stream's commits",
        what
    );
    prop_assert!(
        log.records == sub.records && log.cycles == sub.cycles,
        "{}: tuple's commit log differs from its own event stream",
        what
    );
    Ok(())
}

/// One cycle-engine run under observer `obs`.
fn cycle_run<O: PipeObserver>(
    image: &Image,
    cfg: SimConfig,
    obs: O,
) -> Result<(crisp::sim::CycleRun, O), SimError> {
    CycleSim::with_observer(Machine::load(image).unwrap(), cfg, obs).run_observed()
}

/// Whether two cycle runs left identical stats, machine and halt
/// reason (or failed identically).
fn same_cycle<A, B>(
    a: &Result<(crisp::sim::CycleRun, A), SimError>,
    b: &Result<(crisp::sim::CycleRun, B), SimError>,
) -> bool {
    match (a, b) {
        (Ok((a, _)), Ok((b, _))) => {
            a.stats == b.stats
                && a.machine == b.machine
                && a.halted == b.halted
                && a.halt_reason == b.halt_reason
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Whether two functional-tier runs left identical stats, machine and
/// halt reason (or failed identically).
fn same_functional(
    a: &Result<FunctionalRun, SimError>,
    b: &Result<FunctionalRun, SimError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.stats == b.stats
                && a.machine == b.machine
                && a.halted == b.halted
                && a.halt_reason == b.halt_reason
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn observer_interest_never_changes_simulation(
        seed in 0u64..10_000,
        max_blocks in 1usize..10,
        fault_cycle in 0u64..800,
        fault_slot in 0u32..32,
        fault_field in 0u64..FAULT_SPACE,
    ) {
        let image = GenProgram::generate(seed, max_blocks).image().unwrap();
        let armed = SimConfig {
            parity: ParityMode::DetectInvalidate,
            fault_plan: Some(FaultPlan {
                cycle: fault_cycle,
                slot: fault_slot,
                field: nth_field(fault_field),
                target: FaultTarget::Cache,
            }),
            ..SimConfig::default()
        };
        for cfg in sweep_configs().into_iter().chain([armed]) {
            let cfg = SimConfig { max_cycles: BUDGET, ..cfg };
            let what = format!("cycle engine, seed {seed}, {cfg:?}");
            let off = cycle_run(&image, cfg, NullObserver);
            let commits = cycle_run(&image, cfg, CommitLog::default());
            let all = cycle_run(&image, cfg, full());
            prop_assert!(same_cycle(&off, &commits), "{}: Off vs Commits", what);
            prop_assert!(same_cycle(&off, &all), "{}: Off vs All", what);
            if let (Ok((_, alone)), Ok((_, tuple))) = (&commits, &all) {
                same_commits(alone, tuple, &what)?;
            }
        }

        for policy in [FoldPolicy::None, FoldPolicy::Host1, FoldPolicy::Host13, FoldPolicy::All] {
            let load = || Machine::load(&image).unwrap();
            let interp = || FunctionalSim::with_policy(load(), policy).max_steps(BUDGET);
            let threaded = || ThreadedSim::with_policy(load(), policy).max_steps(BUDGET);
            let (mut alone, mut tuple) = (CommitLog::default(), full());
            let off = interp().run_observed(&mut NullObserver);
            let commits = interp().run_observed(&mut alone);
            let all = interp().run_observed(&mut tuple);
            let what = format!("functional engine, seed {seed}, {policy:?}");
            prop_assert!(same_functional(&off, &commits), "{}: Off vs Commits", what);
            prop_assert!(same_functional(&off, &all), "{}: Off vs All", what);
            same_commits(&alone, &tuple, &what)?;

            let (mut alone, mut tuple) = (CommitLog::default(), full());
            let off = threaded().run_observed(&mut NullObserver);
            let commits = threaded().run_observed(&mut alone);
            let all = threaded().run_observed(&mut tuple);
            let what = format!("threaded engine, seed {seed}, {policy:?}");
            prop_assert!(same_functional(&off, &commits), "{}: Off vs Commits", what);
            prop_assert!(same_functional(&off, &all), "{}: Off vs All", what);
            same_commits(&alone, &tuple, &what)?;
        }
    }
}
