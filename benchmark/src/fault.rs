//! `fault_campaign`: the `crisp-fault` AVF campaign on the paper's
//! machine, in process.
//!
//! One item is one fault case: a single-bit strike into a decoded-cache
//! entry (static-bit predictor, default geometry), run once under
//! parity `DetectInvalidate`, which must mask it, and once with parity
//! off, which is classified. Images, predecode tables and translations
//! are hoisted into set-up as in `crisp-fault`; each program's
//! fault-free threaded reference is computed once per pass and shared
//! by all of its cases. Cases run through `classify_batch` on
//! [`CAMPAIGN_JOBS`] `run_campaign` workers, [`CAMPAIGN_LANES`] lanes
//! each.
//!
//! Quarantined cases (a worker panicked on the case twice) count as
//! failed items; they are reported, never skipped around.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crisp_asm::rand_prog::{GenProgram, Rng};
use crisp_asm::{assemble, Image};
use crisp_cli::campaign::{run_campaign, CampaignSpec, CaseResult};
use crisp_cli::Checkpoint;
use crisp_sim::{
    classify_batch, fault_reference, nth_field, FaultOutcome, FaultPlan, FaultReference,
    FaultTarget, MachinePool, ParityMode, PredecodedImage, SimConfig, TranslatedImage, FAULT_SPACE,
};

use crate::trace::{span, supervise};
use crate::{measure, pins, Pass, Workload, CAMPAIGN_JOBS, CAMPAIGN_LANES};

/// Generated programs per campaign.
pub const PROGRAMS: u64 = 64;
/// Faults injected per program: many, so that sharing one reference
/// per program matters.
pub const FAULTS: u64 = 128;
/// Block budget per generated program (the CLI default).
const MAX_BLOCKS: usize = 10;
/// Watchdog budget per run (the CLI default).
const MAX_CYCLES: u64 = 200_000;

/// One hoisted campaign program.
struct Prepared {
    image: Image,
    table: Arc<PredecodedImage>,
    translated: Arc<TranslatedImage>,
}

/// The prepared fault campaign.
pub struct FaultCampaign {
    seed: u64,
    faults: u64,
    programs: Vec<Prepared>,
    setup_counts: BTreeMap<&'static str, f64>,
}

/// `crisp-fault`'s plan for campaign case `case` with `--target cache`.
fn plan_for(seed: u64, case: u64) -> FaultPlan {
    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(case));
    // The CLI draws the target from the target list even when it has
    // one entry; the draw keeps the stream aligned.
    let _target = rng.below(1);
    let cycle = rng.below(400);
    FaultPlan {
        cycle,
        slot: rng.below(SimConfig::default().icache_entries as u64) as u32,
        field: nth_field(rng.below(FAULT_SPACE)),
        target: FaultTarget::Cache,
    }
}

/// What a finished campaign hands back.
pub struct FaultRun {
    /// Tallies: `verified`, `skipped`, `<field>.<outcome>`,
    /// `<outcome>`, and the supervisor's `retries`/`quarantined`.
    pub checkpoint: Checkpoint,
    /// A case whose protected run was not masked, if any.
    pub failure: Option<String>,
    /// Quarantined cases: `(case, detail)`.
    pub quarantined: Vec<(u64, String)>,
    /// Host latency per completed case: `(case, nanoseconds)`.
    pub latencies: Vec<(u64, u64)>,
}

impl FaultCampaign {
    /// Build the `crisp-fault --seed seed --programs programs --faults
    /// faults` work list, hoisting assemble, predecode and translate.
    pub fn new(seed: u64, programs: u64, faults: u64) -> FaultCampaign {
        let mut setup_counts = BTreeMap::new();
        let policy = SimConfig::default().fold_policy;
        let programs = (0..programs)
            .map(|p| {
                let module = span("asm.generate", p, || {
                    GenProgram::generate(seed.wrapping_add(p), MAX_BLOCKS).module()
                });
                let image = span("asm.assemble", p, || assemble(&module))
                    .expect("generated programs assemble");
                let table = span("predecode.build", p, || {
                    PredecodedImage::shared(&image, policy)
                })
                .expect("generated programs predecode");
                let translated = span("threaded.translate", p, || {
                    Arc::new(TranslatedImage::from_predecoded(Arc::clone(&table)))
                });
                *setup_counts.entry("asm.text_parcels").or_insert(0.0) +=
                    image.parcels.len() as f64;
                *setup_counts.entry("predecode.entries").or_insert(0.0) += table.len() as f64;
                *setup_counts.entry("threaded.blocks").or_insert(0.0) +=
                    translated.block_count() as f64;
                Prepared {
                    image,
                    table,
                    translated,
                }
            })
            .collect();
        FaultCampaign {
            seed,
            faults,
            programs,
            setup_counts,
        }
    }

    /// Run the campaign once.
    ///
    /// # Errors
    ///
    /// Harness failures from the supervisor.
    pub fn run(&self) -> Result<FaultRun, String> {
        let cfg = SimConfig {
            max_cycles: MAX_CYCLES,
            ..SimConfig::default()
        };
        let references: Vec<OnceLock<Option<Arc<FaultReference>>>> =
            self.programs.iter().map(|_| OnceLock::new()).collect();
        let latencies = Mutex::new(Vec::new());
        let faults = self.faults;
        type Verdict = CaseResult<Option<(&'static str, FaultOutcome)>, String>;
        let run_block = |cases: &[u64], pool: &mut MachinePool| -> Vec<(u64, Verdict)> {
            let start = Instant::now();
            let out = span("campaign.block", cases[0], || {
                let mut out: Vec<(u64, Verdict)> = Vec::with_capacity(cases.len());
                let mut k = 0;
                while k < cases.len() {
                    let p = cases[k] / faults;
                    let mut end = k + 1;
                    while end < cases.len() && cases[end] / faults == p {
                        end += 1;
                    }
                    let group = &cases[k..end];
                    k = end;
                    let prog = &self.programs[p as usize];
                    let reference = references[p as usize].get_or_init(|| {
                        span("soft_error.reference", group[0], || {
                            fault_reference(
                                &prog.image,
                                cfg,
                                Some(&prog.table),
                                Some(&prog.translated),
                                pool,
                            )
                        })
                        .ok()
                        .map(Arc::new)
                    });
                    let Some(reference) = reference else {
                        out.extend(group.iter().map(|&i| (i, CaseResult::Done(None))));
                        continue;
                    };
                    let mut cfgs = Vec::with_capacity(group.len() * 2);
                    let mut plans = Vec::with_capacity(group.len());
                    for &i in group {
                        let plan = plan_for(self.seed, i);
                        let protected = SimConfig {
                            parity: ParityMode::DetectInvalidate,
                            fault_plan: Some(plan),
                            ..cfg
                        };
                        cfgs.push(protected);
                        cfgs.push(SimConfig {
                            parity: ParityMode::Off,
                            ..protected
                        });
                        plans.push(plan);
                    }
                    let classified = span("soft_error.classify", group[0], || {
                        classify_batch(
                            &prog.image,
                            &cfgs,
                            Some(&prog.table),
                            reference,
                            CAMPAIGN_LANES,
                            pool,
                        )
                    });
                    match classified {
                        Err(_) => out.extend(group.iter().map(|&i| (i, CaseResult::Done(None)))),
                        Ok(outcomes) => {
                            for (j, &i) in group.iter().enumerate() {
                                let (protected, unprotected) =
                                    (outcomes[2 * j], outcomes[2 * j + 1]);
                                let verdict = if protected != FaultOutcome::Masked {
                                    CaseResult::Fail(format!(
                                        "case {i}: DetectInvalidate failed to mask {:?} (outcome {})",
                                        plans[j],
                                        protected.name()
                                    ))
                                } else {
                                    CaseResult::Done(Some((plans[j].field.name(), unprotected)))
                                };
                                out.push((i, verdict));
                            }
                        }
                    }
                }
                out
            });
            // Like the campaign monitor: a block's time is shared by
            // its cases.
            let each = start.elapsed().as_nanos() as u64 / cases.len() as u64;
            latencies
                .lock()
                .expect("latency log lock")
                .extend(cases.iter().map(|&i| (i, each)));
            out
        };
        let report = supervise("campaign.supervisor", 0, || {
            run_campaign(
                CampaignSpec {
                    total: self.programs.len() as u64 * faults,
                    jobs: CAMPAIGN_JOBS,
                    block: CAMPAIGN_LANES as u64,
                    save_every: 64,
                    resume_path: None,
                    heartbeat_secs: None,
                    checkpoint: Checkpoint::default(),
                },
                MachinePool::default,
                run_block,
                |cp, key: Option<(&'static str, FaultOutcome)>| match key {
                    Some((field, outcome)) => {
                        cp.tally("verified", 1);
                        cp.tally(&format!("{field}.{}", outcome.name()), 1);
                        cp.tally(outcome.name(), 1);
                    }
                    None => cp.tally("skipped", 1),
                },
                |i, detail| (i, detail),
            )
        })?;
        Ok(FaultRun {
            checkpoint: report.checkpoint,
            failure: report.failure,
            quarantined: report.quarantined,
            latencies: latencies.into_inner().expect("latency log lock"),
        })
    }
}

/// The tallies pinned per seed, in [`pins::FAULT`] column order.
pub const PINNED: [&str; 7] = [
    "masked",
    "sdc",
    "control-divergence",
    "hang",
    "verified",
    "skipped",
    "quarantined",
];

impl Workload for FaultCampaign {
    const WORKERS: usize = CAMPAIGN_JOBS;
    const CALIBRATION: measure::Calibration = measure::DISPATCH;

    fn setup(seed: u64) -> FaultCampaign {
        FaultCampaign::new(seed, PROGRAMS, FAULTS)
    }

    fn setup_counts(&self) -> BTreeMap<&'static str, f64> {
        self.setup_counts.clone()
    }

    fn pass(&self) -> Pass {
        let mut pass = Pass {
            attempted: self.programs.len() as u64 * self.faults,
            ..Pass::default()
        };
        match self.run() {
            Err(msg) => {
                pass.failed = pass.attempted;
                pass.wrong.push(format!("campaign aborted: {msg}"));
            }
            Ok(run) => {
                let cp = &run.checkpoint;
                pass.failed = run.quarantined.len() as u64 + (pass.attempted - cp.completed);
                if let Some(f) = run.failure {
                    pass.wrong.push(f);
                }
                pass.latencies = run.latencies;
                for (metric, key) in [
                    ("soft_error.masked", "masked"),
                    ("soft_error.sdc", "sdc"),
                    ("soft_error.control_divergence", "control-divergence"),
                    ("soft_error.hang", "hang"),
                    ("campaign.retries", "retries"),
                    ("campaign.quarantined", "quarantined"),
                ] {
                    pass.count(metric, cp.get(key) as f64);
                }
                pass.pinned = PINNED
                    .iter()
                    .map(|&key| (key.to_owned(), cp.get(key)))
                    .collect();
            }
        }
        pass
    }

    fn expected(&self) -> Option<Vec<(String, u64)>> {
        let (_, row) = pins::FAULT.iter().find(|row| row.0 == self.seed)?;
        Some(
            PINNED
                .iter()
                .zip(row)
                .map(|(&key, &n)| (key.to_owned(), n))
                .collect(),
        )
    }
}
