//! The campaign kernels' early stops and shared references never
//! change a result.
//!
//! Campaign cases run one at a time on their own `CycleSim`, through
//! `CycleSim::run_until` with a stop predicate. The claims that make
//! that safe, checked over randomized programs here:
//!
//! 1. `run_until(|_| false)` is the engine's plain run: it produces
//!    exactly the machine state, counters, halt reason and commit
//!    stream of `CycleSim::run_observed` and of a hand-stepped
//!    `CycleSim::step` loop, across fold policies, execution-unit
//!    depths 2/3/8, cache sizes and all four predictors — and a run
//!    that dies on a simulator error keeps its observer and counters;
//! 2. fault-armed cases classify identically: `classify_batch` over a
//!    mixed block of protected/unprotected fault cases returns the
//!    same verdict vector as the scalar per-case classifier;
//! 3. the campaign lockstep sweep (`run_lockstep_batched` against one
//!    shared functional reference) returns the same outcome per
//!    configuration as the scalar lockstep oracle;
//! 4. stopping a fault case early — at its first divergent commit, or
//!    once a protected run's fault is caught by parity — gives the
//!    verdict the same case gets when run to its end, protected and
//!    unprotected, on cache, BTB and PDU strikes. The one documented
//!    exception is a protected run whose caught fault pushes it past
//!    the watchdog: stopped early it is `Masked`, run out it is `Hang`.

use crisp::asm::rand_prog::GenProgram;
use crisp::asm::{assemble_text, Image};
use crisp::sim::{
    classify_batch, classify_fault_pooled, fault_reference, nth_field, nth_pdu_field,
    nth_predictor_field, predictor_fault_space, run_lockstep_batched, run_lockstep_pooled,
    sweep_configs, ClassifyBuffers, CommitLog, CycleRun, CycleSim, CycleStats, FaultOutcome,
    FaultPlan, FaultReference, FaultTarget, HaltReason, HwPredictor, LaneEnd, LockstepBuffers,
    LockstepOutcome, Machine, MachinePool, ParityMode, PipelineGeometry, PrefixCheck, SimConfig,
    SimError, FAULT_SPACE, PDU_FAULT_SPACE,
};
use proptest::prelude::*;

/// Scalar oracle: one observed cycle-engine run.
fn scalar_run(image: &Image, cfg: SimConfig) -> (CycleRun, CommitLog) {
    CycleSim::with_observer(Machine::load(image).unwrap(), cfg, CommitLog::default())
        .run_observed()
        .unwrap()
}

/// A fresh simulator under `cfg` recording commits.
fn logged_sim(image: &Image, cfg: SimConfig) -> CycleSim<CommitLog> {
    CycleSim::with_observer(Machine::load(image).unwrap(), cfg, CommitLog::default())
}

/// The slow path: step one cycle at a time through the public
/// snapshot API, checking the watchdog by hand before each cycle.
fn stepped_run(image: &Image, cfg: SimConfig) -> (CycleSim<CommitLog>, HaltReason) {
    let mut sim = logged_sim(image, cfg);
    loop {
        let expired = sim.stats.cycles >= cfg.max_cycles
            || cfg
                .max_insns
                .is_some_and(|limit| sim.stats.program_instrs >= limit);
        if expired {
            return (sim, HaltReason::Watchdog);
        }
        if sim.step().expect("generated programs do not error").halted {
            return (sim, HaltReason::Halted);
        }
    }
}

/// A config matrix spanning the dimensions the campaign drivers sweep:
/// every fold policy and predictor from the sweep (subsampled), at
/// execution-unit depths 2, 3 and 8, plus one tiny watchdog budget so
/// a run that ends on the watchdog (not `halt`) is always present.
fn config_matrix() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for (i, base) in sweep_configs().into_iter().enumerate() {
        // Every 3rd sweep point keeps all policies and predictors in
        // play while bounding the matrix.
        if i % 3 != 0 {
            continue;
        }
        let depth = [2, 3, 8][(i / 3) % 3];
        cfgs.push(SimConfig {
            geometry: PipelineGeometry::new(depth),
            max_cycles: 100_000,
            ..base
        });
    }
    // A run that hits the watchdog mid-program.
    cfgs.push(SimConfig {
        max_cycles: 50,
        ..SimConfig::default()
    });
    cfgs
}

/// Run one fault case under `stop` and classify it.
fn classify_with(
    image: &Image,
    cfg: SimConfig,
    reference: &FaultReference,
    stop: impl FnMut(&CycleSim<PrefixCheck>) -> bool,
) -> (FaultOutcome, CycleSim<PrefixCheck>) {
    let mut sim = CycleSim::with_observer(
        Machine::load(image).unwrap(),
        cfg,
        PrefixCheck::new(reference.log().clone()),
    );
    let end = sim.run_until(stop);
    (reference.verdict(&sim, &end), sim)
}

/// Claim 4's exception, spelled out: a protected case whose fault
/// struck and was caught, which the early stop settles as masked and
/// the full-length run sees expire on the watchdog with a clean
/// commit prefix.
fn is_near_watchdog_settle(
    cfg: &SimConfig,
    early: FaultOutcome,
    full: FaultOutcome,
    full_sim: &CycleSim<PrefixCheck>,
) -> bool {
    cfg.parity == ParityMode::DetectInvalidate
        && early == FaultOutcome::Masked
        && full == FaultOutcome::Hang
        && full_sim.stats.watchdog
        && full_sim.parity_settled()
        && full_sim.observer().mismatch().is_none()
}

/// The fault plan for case `k` of a generated block: strikes rotate
/// through the decoded cache, the BTB and the PDU fold slots.
fn fault_case(seed: u64, k: u64, predictor: HwPredictor) -> FaultPlan {
    let cycle = seed.wrapping_mul(31).wrapping_add(k * 97) % 400;
    let site = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9));
    match k % 3 {
        0 => FaultPlan {
            cycle,
            slot: (k % 8) as u32,
            field: nth_field(site % FAULT_SPACE),
            target: FaultTarget::Cache,
        },
        1 => FaultPlan {
            cycle,
            slot: (site % 1024) as u32,
            field: nth_predictor_field(predictor, site % predictor_fault_space(predictor))
                .expect("the BTB has state"),
            target: FaultTarget::Predictor,
        },
        _ => FaultPlan {
            cycle,
            slot: (k % 8) as u32,
            field: nth_pdu_field(site % PDU_FAULT_SPACE),
            target: FaultTarget::Pdu,
        },
    }
}

fn assert_same_run(
    a: (&Machine, &CycleStats, HaltReason, &CommitLog),
    b: (&Machine, &CycleStats, HaltReason, &CommitLog),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.0, b.0);
    prop_assert_eq!(a.1, b.1);
    prop_assert_eq!(a.2, b.2);
    prop_assert_eq!(&a.3.records, &b.3.records);
    prop_assert_eq!(&a.3.cycles, &b.3.cycles);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Claim 1: `run_until(|_| false)` ≡ `run_observed` ≡ a
    /// hand-stepped `step` loop.
    #[test]
    fn run_until_matches_run_observed(seed in 0u64..5000) {
        for (k, cfg) in config_matrix().into_iter().enumerate() {
            let image = GenProgram::generate(seed.wrapping_add(k as u64 / 4), 6)
                .image()
                .unwrap();
            let (srun, slog) = scalar_run(&image, cfg);
            let mut sim = logged_sim(&image, cfg);
            let reason = match sim.run_until(|_| false) {
                LaneEnd::Halted => HaltReason::Halted,
                LaneEnd::Watchdog => HaltReason::Watchdog,
                other => {
                    return Err(TestCaseError::fail(format!("unexpected end {other:?}")));
                }
            };
            prop_assert_eq!(srun.halted, reason == HaltReason::Halted);
            let expected = (&srun.machine, &srun.stats, srun.halt_reason, &slog);
            assert_same_run(expected, (sim.machine(), &sim.stats, reason, sim.observer()))?;
            let (stepped, reason) = stepped_run(&image, cfg);
            // The hand loop does not raise the watchdog flag itself.
            let stats = CycleStats {
                watchdog: reason == HaltReason::Watchdog,
                ..stepped.stats.clone()
            };
            assert_same_run(
                expected,
                (stepped.machine(), &stats, reason, stepped.observer()),
            )?;
        }
    }

    /// Claim 2: fault-armed cases classify identically to the scalar
    /// per-case classifier, protected and unprotected alike.
    #[test]
    fn classify_batch_matches_scalar_classifier(seed in 0u64..5000, lanes in 1usize..5) {
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let base = SimConfig { max_cycles: 20_000, ..SimConfig::default() };
        let cfgs: Vec<SimConfig> = (0..10u64)
            .map(|k| {
                let plan = FaultPlan {
                    cycle: (seed.wrapping_mul(31).wrapping_add(k * 97)) % 500,
                    slot: (k % 8) as u32,
                    field: nth_field(k % FAULT_SPACE),
                    target: FaultTarget::Cache,
                };
                SimConfig {
                    parity: if k % 3 == 0 { ParityMode::DetectInvalidate } else { ParityMode::Off },
                    fault_plan: Some(plan),
                    ..base
                }
            })
            .collect();
        let scalar: Vec<_> = cfgs
            .iter()
            .map(|cfg| {
                classify_fault_pooled(&image, *cfg, None, &mut ClassifyBuffers::default()).unwrap()
            })
            .collect();
        let mut pool = MachinePool::default();
        let reference = fault_reference(&image, base, None, None, &mut pool).unwrap();
        let batched = classify_batch(&image, &cfgs, None, &reference, lanes, &mut pool).unwrap();
        prop_assert_eq!(scalar, batched);
    }

    /// Claim 3: the campaign lockstep sweep agrees with the scalar
    /// lockstep oracle on every sweep configuration.
    #[test]
    fn lockstep_batched_matches_scalar_oracle(seed in 0u64..5000) {
        let image = GenProgram::generate(seed, 6).image().unwrap();
        let mut bufs = LockstepBuffers::default();
        let mut pool = MachinePool::default();
        let configs = sweep_configs();
        let mut idx = 0;
        while idx < configs.len() {
            let policy = configs[idx].fold_policy;
            let mut end = idx + 1;
            while end < configs.len() && configs[end].fold_policy == policy {
                end += 1;
            }
            let group = &configs[idx..end];
            idx = end;
            let reference = crisp::sim::diff_reference(
                &image,
                policy,
                group[0].max_cycles,
                None,
                &mut pool,
            )
            .unwrap();
            let batched =
                run_lockstep_batched(&image, group, None, &reference, 3, &mut pool, &mut bufs)
                    .unwrap();
            for (cfg, b) in group.iter().zip(batched) {
                let s = run_lockstep_pooled(&image, *cfg, None, &mut bufs).unwrap();
                match (s, b) {
                    (
                        LockstepOutcome::Agree { commits: sc, cycles: scy },
                        LockstepOutcome::Agree { commits: bc, cycles: bcy },
                    ) => {
                        prop_assert_eq!(sc, bc);
                        prop_assert_eq!(scy, bcy);
                    }
                    (s, b) => {
                        return Err(TestCaseError::fail(format!(
                            "outcome mismatch under {cfg:?}: scalar {s:?} vs batched {b:?}"
                        )))
                    }
                }
            }
        }
    }

    /// Claim 4: the early stop (`decided() || parity_settled()`) gives
    /// the full-length verdict, on protected and unprotected cache,
    /// BTB and PDU strikes, with generous and barely-sufficient
    /// watchdog budgets.
    #[test]
    fn early_stop_verdict_matches_full_length_run(seed in 0u64..5000, slack in 0u64..4) {
        let image = GenProgram::generate(seed, 8).image().unwrap();
        let predictor = HwPredictor::parse("btb16x2").unwrap();
        let base = SimConfig { max_cycles: 20_000, predictor, ..SimConfig::default() };
        let mut pool = MachinePool::default();
        let reference = fault_reference(&image, base, None, None, &mut pool).unwrap();
        // A budget the fault-free run just fits in: a caught fault's
        // refetch can push a protected run past it.
        let fault_free = CycleSim::new(Machine::load(&image).unwrap(), base).run().unwrap();
        let tight = fault_free.stats.cycles + slack;
        let cfgs: Vec<SimConfig> = (0..12u64)
            .map(|k| SimConfig {
                parity: if k % 2 == 0 { ParityMode::DetectInvalidate } else { ParityMode::Off },
                fault_plan: Some(fault_case(seed, k, predictor)),
                max_cycles: if k % 4 < 2 { base.max_cycles } else { tight },
                ..base
            })
            .collect();
        let kernel = classify_batch(&image, &cfgs, None, &reference, 1, &mut pool).unwrap();
        for (cfg, &kernel_verdict) in cfgs.iter().zip(&kernel) {
            let (early, _) = classify_with(&image, *cfg, &reference, |s| {
                s.observer().decided() || s.parity_settled()
            });
            prop_assert_eq!(early, kernel_verdict, "classify_batch under {:?}", cfg);
            let (full, full_sim) = classify_with(&image, *cfg, &reference, |_| false);
            prop_assert!(
                early == full || is_near_watchdog_settle(cfg, early, full, &full_sim),
                "early stop says {:?}, full-length run says {:?} under {:?}",
                early,
                full,
                cfg
            );
        }
    }
}

/// Claim 1 pinned without proptest, so the equivalence holds even if
/// the randomized corpus shifts.
#[test]
fn run_until_is_run_observed_on_a_fixed_program() {
    let image = GenProgram::generate(7, 8).image().unwrap();
    let cfg = SimConfig::default();
    let (srun, slog) = scalar_run(&image, cfg);
    let mut sim = logged_sim(&image, cfg);
    assert!(matches!(sim.run_until(|_| false), LaneEnd::Halted));
    assert_eq!(&srun.machine, sim.machine());
    assert_eq!(srun.stats, sim.stats);
    assert_eq!(slog.records, sim.observer().records);
    assert_eq!(slog.cycles, sim.observer().cycles);
    // A halted simulator stays halted without stepping.
    assert!(matches!(sim.run_until(|_| false), LaneEnd::Halted));
    assert_eq!(srun.stats, sim.stats);
}

/// Claim 1, error path: a run that faults on a wild data access still
/// hands back the commits and cycles that preceded the fault, exactly
/// as far as the hand-stepped run got.
#[test]
fn erroring_run_keeps_observer_and_counters() {
    let image = assemble_text(
        "
            mov 0(sp),$1
            add 0(sp),$2
            mov 4(sp),*0x7ffffff0
            halt
        ",
    )
    .unwrap();
    let cfg = SimConfig::default();
    let mut sim = logged_sim(&image, cfg);
    let LaneEnd::Error(err) = sim.run_until(|_| false) else {
        panic!("the wild load must fault");
    };
    assert!(matches!(err, SimError::MemOutOfBounds { .. }), "{err:?}");
    assert!(
        sim.observer().records.len() >= 2,
        "the leading commits are kept"
    );
    assert!(sim.stats.cycles > 0);

    let mut stepped = logged_sim(&image, cfg);
    let step_err = loop {
        if let Err(e) = stepped.step() {
            break e;
        }
    };
    assert_eq!(err, step_err);
    assert_eq!(sim.stats, stepped.stats);
    assert_eq!(sim.observer().records, stepped.observer().records);
    assert!(matches!(
        logged_sim(&image, cfg).run_observed(),
        Err(e) if e == err
    ));
}

/// Claim 4's exception, exercised: with the budget set to exactly the
/// fault-free cycle count, some protected cache strike is caught, the
/// early stop settles it as masked, and the full-length run — paying
/// the refetch — expires on the watchdog.
#[test]
fn near_watchdog_settle_is_masked_early_and_hang_full_length() {
    let image = GenProgram::generate(11, 8).image().unwrap();
    let base = SimConfig::default();
    let mut pool = MachinePool::default();
    let reference = fault_reference(&image, base, None, None, &mut pool).unwrap();
    let fault_free = CycleSim::new(Machine::load(&image).unwrap(), base)
        .run()
        .unwrap();
    let seen = (0..FAULT_SPACE * 4).any(|k| {
        let cfg = SimConfig {
            parity: ParityMode::DetectInvalidate,
            fault_plan: Some(FaultPlan {
                cycle: 20 + k % 40,
                slot: (k % 8) as u32,
                field: nth_field(k),
                target: FaultTarget::Cache,
            }),
            max_cycles: fault_free.stats.cycles,
            ..base
        };
        let (early, _) = classify_with(&image, cfg, &reference, |s| {
            s.observer().decided() || s.parity_settled()
        });
        let (full, full_sim) = classify_with(&image, cfg, &reference, |_| false);
        assert!(early == full || is_near_watchdog_settle(&cfg, early, full, &full_sim));
        early != full
    });
    assert!(seen, "no protected strike pushed the run past its watchdog");
}
