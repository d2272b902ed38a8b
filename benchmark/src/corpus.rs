//! `corpus_run`: every corpus program on every engine, from the
//! compiled image through the stats JSON report, on one thread.
//!
//! One item is one (program, engine) pair; a pass runs all of them in
//! a seeded order. Each run starts from a freshly loaded machine and
//! an empty decoded cache. The three engines of one program must agree
//! on the final architectural state and on `program_instrs`, and the
//! cycle engine's accounts must conserve.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crisp_asm::{assemble, Image};
use crisp_cc::{compile_crisp_module, CompileOptions};
use crisp_sim::{
    CycleSim, FunctionalSim, HaltReason, Machine, PredecodedImage, SimConfig, ThreadedSim,
    TranslatedImage,
};
use crisp_workloads::{
    dispatch_workload, figure3_large, fsm_workload, prediction_workloads, sort_workload,
};

use crate::trace::span;
use crate::{measure, pins, shuffled, timed, Pass, Workload};

/// The engines every corpus program runs on.
pub const ENGINES: [&str; 3] = ["interp", "threaded", "cycle"];

/// The corpus: the six Table 1 proxies, `dispatch`, `sort`, `fsm` and
/// the 4096-iteration Figure 3 program.
pub fn sources() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = prediction_workloads()
        .into_iter()
        .chain([dispatch_workload(), sort_workload(), fsm_workload()])
        .map(|w| (w.name, w.source.to_owned()))
        .collect();
    out.push(("figure3_large", figure3_large()));
    out
}

/// The prepared corpus workload.
pub struct Corpus {
    programs: Vec<(&'static str, Image)>,
    /// Item order: index into `programs` × [`ENGINES`].
    order: Vec<(usize, usize)>,
    setup_counts: BTreeMap<&'static str, f64>,
}

/// What one engine run left behind for the cross-engine check.
struct Finished {
    machine: Machine,
    program_instrs: u64,
    halt: HaltReason,
}

impl Workload for Corpus {
    const WORKERS: usize = 1;
    const CALIBRATION: measure::Calibration = measure::HEAP;

    fn setup(seed: u64) -> Corpus {
        let mut setup_counts = BTreeMap::new();
        let programs: Vec<(&'static str, Image)> = sources()
            .into_iter()
            .enumerate()
            .map(|(i, (name, source))| {
                let module = span("cc.compile", i as u64, || {
                    compile_crisp_module(&source, &CompileOptions::default())
                })
                .expect("corpus program compiles");
                let image =
                    span("asm.assemble", i as u64, || assemble(&module)).expect("assembles");
                *setup_counts.entry("cc.module_items").or_insert(0.0) += module.items.len() as f64;
                *setup_counts.entry("asm.text_parcels").or_insert(0.0) +=
                    image.parcels.len() as f64;
                (name, image)
            })
            .collect();
        let n = programs.len() * ENGINES.len();
        let order = shuffled(n, seed)
            .into_iter()
            .map(|k| (k / ENGINES.len(), k % ENGINES.len()))
            .collect();
        Corpus {
            programs,
            order,
            setup_counts,
        }
    }

    fn setup_counts(&self) -> BTreeMap<&'static str, f64> {
        self.setup_counts.clone()
    }

    fn pass(&self) -> Pass {
        let mut pass = Pass::default();
        let mut finished: Vec<[Option<Finished>; 3]> = (0..self.programs.len())
            .map(|_| [None, None, None])
            .collect();
        let mut cycles = vec![0u64; self.programs.len()];
        let mut deopts = vec![0u64; self.programs.len()];
        let mut engine_time = [Duration::ZERO; 3];
        let mut engine_instrs = [0u64; 3];
        for (k, &(p, e)) in self.order.iter().enumerate() {
            pass.attempted += 1;
            let item = k as u64;
            let (name, image) = &self.programs[p];
            let (result, took) = timed(|| -> Result<(Finished, String), String> {
                let machine = span("machine.load", item, || Machine::load(image))
                    .map_err(|err| format!("{name}: load: {err}"))?;
                let (done, json) = match ENGINES[e] {
                    "cycle" => {
                        let (run, t) = span("pipeline.run", item, || {
                            timed(|| CycleSim::new(machine, SimConfig::default()).run())
                        });
                        let run = run.map_err(|err| format!("{name} on cycle: {err}"))?;
                        engine_time[e] += t;
                        let s = &run.stats;
                        if s.accounts.total() != s.cycles {
                            pass.wrong.push(format!(
                                "{name}: cycle accounts total {} != {} cycles",
                                s.accounts.total(),
                                s.cycles
                            ));
                        }
                        pass.count_cycle_run(s);
                        cycles[p] = s.cycles;
                        let json = span("report.render", item, || s.to_json());
                        let done = Finished {
                            machine: run.machine,
                            program_instrs: s.program_instrs,
                            halt: run.halt_reason,
                        };
                        (done, json)
                    }
                    engine => {
                        let table = span("predecode.build", item, || {
                            PredecodedImage::shared(image, SimConfig::default().fold_policy)
                        })
                        .map_err(|err| format!("{name}: predecode: {err}"))?;
                        pass.count("predecode.entries", table.len() as f64);
                        let (run, t) = if engine == "threaded" {
                            let translated = span("threaded.translate", item, || {
                                Arc::new(TranslatedImage::from_predecoded(table))
                            });
                            pass.count("threaded.blocks", translated.block_count() as f64);
                            span("threaded.run", item, || {
                                timed(|| ThreadedSim::with_translated(machine, translated).run())
                            })
                        } else {
                            span("functional.run", item, || {
                                timed(|| FunctionalSim::with_predecoded(machine, table).run())
                            })
                        };
                        let run = run.map_err(|err| format!("{name} on {engine}: {err}"))?;
                        engine_time[e] += t;
                        let s = &run.stats;
                        if engine == "threaded" {
                            pass.count("threaded.instrs", s.program_instrs as f64);
                            pass.count("threaded.deopt_falls", s.deopt_falls as f64);
                            pass.count(
                                "threaded.superinstr_dispatches",
                                s.superinstr_dispatches as f64,
                            );
                            deopts[p] = s.deopt_falls;
                        } else {
                            pass.count("functional.instrs", s.program_instrs as f64);
                        }
                        let json = span("report.render", item, || s.to_json());
                        let done = Finished {
                            machine: run.machine,
                            program_instrs: s.program_instrs,
                            halt: run.halt_reason,
                        };
                        (done, json)
                    }
                };
                Ok((done, json))
            });
            match result {
                Ok((done, json)) => {
                    pass.latencies.push((item, took.as_nanos() as u64));
                    pass.count("report.bytes", json.len() as f64);
                    engine_instrs[e] += done.program_instrs;
                    finished[p][e] = Some(done);
                }
                Err(msg) => {
                    pass.failed += 1;
                    pass.wrong.push(msg);
                }
            }
        }
        span("bench.check", 0, || {
            for (p, runs) in finished.iter().enumerate() {
                let name = self.programs[p].0;
                let [Some(interp), Some(threaded), Some(cycle)] = runs else {
                    continue;
                };
                for (engine, run) in ENGINES.iter().zip([interp, threaded, cycle]) {
                    let wrong = pass.wrong.len();
                    if run.halt != HaltReason::Halted {
                        pass.wrong
                            .push(format!("{name} on {engine}: ended by {:?}", run.halt));
                    }
                    if run.machine != interp.machine {
                        pass.wrong
                            .push(format!("{name}: {engine} final state != interp"));
                    }
                    if run.program_instrs != interp.program_instrs {
                        pass.wrong.push(format!(
                            "{name}: {engine} ran {} program instrs, interp {}",
                            run.program_instrs, interp.program_instrs
                        ));
                    }
                    if pass.wrong.len() > wrong {
                        pass.failed += 1;
                    }
                }
                pass.pinned
                    .push((format!("{name}.instrs"), interp.program_instrs));
                pass.pinned.push((format!("{name}.cycles"), cycles[p]));
                pass.pinned.push((format!("{name}.deopt_falls"), deopts[p]));
            }
        });
        pass.engines = ENGINES
            .iter()
            .enumerate()
            .map(|(e, &name)| (name, engine_instrs[e], engine_time[e]))
            .collect();
        pass
    }

    fn expected(&self) -> Option<Vec<(String, u64)>> {
        Some(
            pins::CORPUS
                .iter()
                .flat_map(|&(name, instrs, cycles, deopts)| {
                    [
                        (format!("{name}.instrs"), instrs),
                        (format!("{name}.cycles"), cycles),
                        (format!("{name}.deopt_falls"), deopts),
                    ]
                })
                .collect(),
        )
    }
}
