//! `diff_campaign`: the `crisp-diff` sweep, in process.
//!
//! One item is one program's full `sweep_configs` sweep (fold policy ×
//! decoded-cache size × predictor): per fold policy a predecode table,
//! a functional reference, 8-lane batched lockstep on the cycle engine
//! and a threaded-vs-interpreter verify. The programs are seeded
//! `rand_prog` assembly programs plus seeded `rand_c` programs, each
//! under two compile option sets, exactly as `crisp-diff` builds its
//! work list; the sweep runs on [`CAMPAIGN_JOBS`] `run_campaign`
//! workers. Every program must agree on every configuration.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crisp_asm::rand_prog::GenProgram;
use crisp_asm::{assemble, Image};
use crisp_cc::{compile_crisp_module, generate_c, CompileOptions, PredictionMode};
use crisp_cli::campaign::{run_campaign, CampaignSpec, CaseResult};
use crisp_cli::Checkpoint;
use crisp_sim::{
    diff_reference, run_lockstep_batched, sweep_configs, verify_threaded_pooled, LockstepBuffers,
    LockstepOutcome, MachinePool, PredecodedImage, SimConfig, TranslatedImage,
};

use crate::trace::{span, supervise};
use crate::{measure, pins, timed, Pass, Workload, CAMPAIGN_JOBS, CAMPAIGN_LANES};

/// Generated assembly programs per campaign (the `crisp-diff`
/// default).
pub const ASM_PROGRAMS: u64 = 1000;
/// Generated mini-C programs per campaign, each compiled twice (the
/// `crisp-diff` default).
pub const C_PROGRAMS: u64 = 50;
/// Block budget per generated assembly program (the CLI default).
const MAX_BLOCKS: usize = 10;

/// One campaign program, as `crisp-diff` builds it.
enum Program {
    Asm(GenProgram),
    C {
        source: String,
        opts: CompileOptions,
    },
}

/// What one program's sweep adds to the campaign checkpoint, by
/// checkpoint key (the per-layer metric names, plus `diff.cycles`).
#[derive(Default)]
struct Tally {
    commits: u64,
    cycles: u64,
    module_items: u64,
    text_parcels: u64,
    predecode_entries: u64,
    threaded_blocks: u64,
}

impl Tally {
    fn keyed(&self) -> [(&'static str, u64); 6] {
        [
            ("diff.commits", self.commits),
            ("diff.cycles", self.cycles),
            ("cc.module_items", self.module_items),
            ("asm.text_parcels", self.text_parcels),
            ("predecode.entries", self.predecode_entries),
            ("threaded.blocks", self.threaded_blocks),
        ]
    }
}

/// The prepared diff campaign.
pub struct DiffCampaign {
    seed: u64,
    work: Vec<Program>,
    configs: Vec<SimConfig>,
}

impl DiffCampaign {
    /// Build the `crisp-diff --seed seed --programs asm --c-programs c`
    /// work list.
    pub fn new(seed: u64, asm: u64, c: u64) -> DiffCampaign {
        let mut work: Vec<Program> = (0..asm)
            .map(|i| {
                span("asm.generate", i, || {
                    Program::Asm(GenProgram::generate(seed.wrapping_add(i), MAX_BLOCKS))
                })
            })
            .collect();
        for i in 0..c {
            let generated = span("cc.generate", asm + i, || generate_c(seed.wrapping_add(i)));
            for opts in [
                CompileOptions::default(),
                CompileOptions {
                    spread: false,
                    prediction: PredictionMode::NotTaken,
                },
            ] {
                work.push(Program::C {
                    source: generated.source.clone(),
                    opts,
                });
            }
        }
        DiffCampaign {
            seed,
            work,
            configs: sweep_configs(),
        }
    }

    /// Run the campaign once. Returns the final checkpoint (tallies
    /// `diff.commits`, `diff.cycles` and the per-layer counts), the
    /// first failure, the quarantined programs and the `(item, ns)`
    /// latencies.
    #[allow(clippy::type_complexity)]
    pub fn run(
        &self,
    ) -> Result<(Checkpoint, Option<String>, Vec<String>, Vec<(u64, u64)>), String> {
        let latencies = Mutex::new(Vec::with_capacity(self.work.len()));
        let run_block = |cases: &[u64], state: &mut (LockstepBuffers, MachinePool)| {
            span("campaign.block", cases[0], || {
                cases
                    .iter()
                    .map(|&i| {
                        let (result, t) = timed(|| match self.check(i, state) {
                            Ok(tally) => CaseResult::Done(tally),
                            Err(Fail::Load(msg)) => CaseResult::Abort(msg),
                            Err(Fail::Wrong(msg)) => CaseResult::Fail(msg),
                        });
                        let ns = t.as_nanos() as u64;
                        latencies.lock().expect("latency log lock").push((i, ns));
                        (i, result)
                    })
                    .collect()
            })
        };
        let report = supervise("campaign.supervisor", 0, || {
            run_campaign(
                CampaignSpec {
                    total: self.work.len() as u64,
                    jobs: CAMPAIGN_JOBS,
                    block: 1,
                    save_every: 64,
                    resume_path: None,
                    heartbeat_secs: None,
                    checkpoint: Checkpoint::default(),
                },
                || (LockstepBuffers::default(), MachinePool::default()),
                run_block,
                |cp, tally: Tally| {
                    for (key, n) in tally.keyed() {
                        cp.tally(key, n);
                    }
                },
                |i, what| format!("program {i}: {what}"),
            )
        })?;
        let latencies = latencies.into_inner().expect("latency log lock");
        Ok((
            report.checkpoint,
            report.failure,
            report.quarantined,
            latencies,
        ))
    }

    /// `crisp-diff`'s `check_program` for work item `i`, with spans
    /// around each layer call.
    fn check(
        &self,
        i: u64,
        (bufs, pool): &mut (LockstepBuffers, MachinePool),
    ) -> Result<Tally, Fail> {
        let mut tally = Tally::default();
        let image: Image = match &self.work[i as usize] {
            Program::Asm(p) => {
                let module = span("asm.generate", i, || p.module());
                span("asm.assemble", i, || assemble(&module))
                    .map_err(|e| Fail::Load(format!("program {i}: assembling: {e}")))?
            }
            Program::C { source, opts } => {
                let module = span("cc.compile", i, || compile_crisp_module(source, opts))
                    .map_err(|e| Fail::Load(format!("program {i}: compiling: {e}")))?;
                tally.module_items += module.items.len() as u64;
                span("asm.assemble", i, || assemble(&module))
                    .map_err(|e| Fail::Load(format!("program {i}: assembling: {e}")))?
            }
        };
        tally.text_parcels += image.parcels.len() as u64;
        let mut verified: Vec<Arc<TranslatedImage>> = Vec::with_capacity(4);
        let mut idx = 0;
        while idx < self.configs.len() {
            let policy = self.configs[idx].fold_policy;
            let mut end = idx + 1;
            while end < self.configs.len() && self.configs[end].fold_policy == policy {
                end += 1;
            }
            let group = &self.configs[idx..end];
            idx = end;
            let max_steps = group[0].max_cycles;
            let load = |e: crisp_sim::SimError| Fail::Load(format!("program {i}: {e}"));
            let table = span("predecode.build", i, || {
                PredecodedImage::shared(&image, policy)
            })
            .map_err(load)?;
            tally.predecode_entries += table.len() as u64;
            let reference = span("diff.reference", i, || {
                diff_reference(&image, policy, max_steps, Some(&table), pool)
            })
            .map_err(load)?;
            let outcomes = span("diff.lockstep", i, || {
                run_lockstep_batched(
                    &image,
                    group,
                    Some(&table),
                    &reference,
                    CAMPAIGN_LANES,
                    pool,
                    bufs,
                )
            })
            .map_err(load)?;
            for (cfg, out) in group.iter().zip(outcomes) {
                match out {
                    LockstepOutcome::Agree { commits, cycles } => {
                        tally.commits += commits;
                        tally.cycles += cycles;
                    }
                    LockstepOutcome::Diverge(d) => {
                        return Err(Fail::Wrong(format!(
                            "program {i} diverged under {cfg:?}: {:?}",
                            d.kind
                        )))
                    }
                }
            }
            if !verified.iter().any(|t| t.policy() == policy) {
                let t = span("threaded.translate", i, || {
                    Arc::new(TranslatedImage::from_predecoded(table))
                });
                tally.threaded_blocks += t.block_count() as u64;
                verified.push(Arc::clone(&t));
                match span("threaded.verify", i, || {
                    verify_threaded_pooled(&image, &t, max_steps, bufs)
                }) {
                    Ok(None) => {}
                    Ok(Some(detail)) => {
                        return Err(Fail::Wrong(format!(
                            "program {i}: threaded tier != interpreter under {policy:?}: {detail}"
                        )))
                    }
                    Err(e) => return Err(load(e)),
                }
            }
        }
        Ok(tally)
    }
}

/// Why one program's sweep stopped.
enum Fail {
    /// The program would not assemble, compile or load.
    Load(String),
    /// The engines disagreed.
    Wrong(String),
}

impl Workload for DiffCampaign {
    const WORKERS: usize = CAMPAIGN_JOBS;
    const CALIBRATION: measure::Calibration = measure::DISPATCH;

    fn setup(seed: u64) -> DiffCampaign {
        DiffCampaign::new(seed, ASM_PROGRAMS, C_PROGRAMS)
    }

    fn setup_counts(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }

    fn pass(&self) -> Pass {
        let mut pass = Pass {
            attempted: self.work.len() as u64,
            ..Pass::default()
        };
        match self.run() {
            Err(msg) => {
                pass.failed = pass.attempted;
                pass.wrong.push(format!("campaign aborted: {msg}"));
            }
            Ok((cp, failure, quarantined, latencies)) => {
                pass.failed = quarantined.len() as u64 + (pass.attempted - cp.completed);
                if let Some(f) = failure {
                    pass.wrong.push(f);
                }
                pass.latencies = latencies;
                for (key, _) in Tally::default().keyed() {
                    pass.count(key, cp.get(key) as f64);
                }
                pass.count("campaign.retries", cp.get("retries") as f64);
                pass.count("campaign.quarantined", cp.get("quarantined") as f64);
                pass.pinned = vec![
                    ("commits".into(), cp.get("diff.commits")),
                    ("cycles".into(), cp.get("diff.cycles")),
                    ("quarantined".into(), cp.get("quarantined")),
                ];
            }
        }
        pass
    }

    fn expected(&self) -> Option<Vec<(String, u64)>> {
        let &(_, commits, cycles, quarantined) =
            pins::DIFF.iter().find(|row| row.0 == self.seed)?;
        Some(vec![
            ("commits".into(), commits),
            ("cycles".into(), cycles),
            ("quarantined".into(), quarantined),
        ])
    }
}
