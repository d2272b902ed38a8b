//! `paper_tables`: regenerate the paper's tables and the repository's
//! ablations, on one thread.
//!
//! One item is one table driver; a pass runs all of them in a seeded
//! order. Untraced, every driver is its `crisp_bench` function, so the
//! end-to-end metrics time the program's own code. Traced, the drivers
//! that loop over the Table 1 programs (`table1`, `btb_compare`,
//! `ablation_predictor`, `ablation_finite_dynamic`, together most of
//! the workload's time) are composed here from the same public calls
//! their `crisp_bench` functions make, so that each compile, traced
//! functional run, predictor evaluation and cycle run carries a span;
//! the fidelity test checks that they render exactly what
//! `crisp_bench` renders. The other drivers are `crisp_bench` calls
//! timed whole. Every driver's output must match its pinned digest,
//! and the counts the repository's own tests pin for Tables 2 and 4
//! are checked directly.

use std::collections::BTreeMap;

use crisp_asm::{assemble, Image};
use crisp_bench::{BtbRow, Table1Row};
use crisp_cc::{compile_crisp_module, CompileOptions};
use crisp_predict::{
    evaluate_dynamic, evaluate_predictor, evaluate_static_optimal, Btb, BtbConfig, FinitePredictor,
    JumpTrace,
};
use crisp_sim::{CycleRun, CycleSim, FunctionalSim, HwPredictor, Machine, SimConfig, Trace};
use crisp_workloads::prediction_workloads;

use crate::trace::{self, span};
use crate::{fnv64, measure, pins, shuffled, timed, Pass, Workload};

/// The table drivers, named by their spans, in canonical order.
pub const DRIVERS: [&str; 12] = [
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
];

/// The prepared table workload: the driver order. The drivers hoist
/// nothing, so set-up is only this work-list build.
pub struct PaperTables {
    order: Vec<usize>,
}

/// One driver's run within a pass: spans its layer calls and counts
/// their work.
struct Run<'a> {
    pass: &'a mut Pass,
    item: u64,
}

impl Run<'_> {
    /// Run `f` inside span `name`.
    fn step<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        span(name, self.item, f)
    }

    /// `crisp_cc::compile_crisp` in its two layers.
    fn compile(&mut self, source: &str) -> Image {
        let module = self
            .step("cc.compile", || {
                compile_crisp_module(source, &CompileOptions::default())
            })
            .expect("table program compiles");
        let image = self
            .step("asm.assemble", || assemble(&module))
            .expect("table program assembles");
        self.pass
            .count("cc.module_items", module.items.len() as f64);
        self.pass
            .count("asm.text_parcels", image.parcels.len() as f64);
        image
    }

    /// `crisp_bench::trace_of` from a compiled image.
    fn trace(&mut self, image: &Image) -> Trace {
        let machine = self
            .step("machine.load", || Machine::load(image))
            .expect("table program loads");
        self.step("functional.trace_run", || {
            FunctionalSim::new(machine).record_trace(true).run()
        })
        .expect("table program halts")
        .trace
    }

    /// `crisp_bench::cycles_of` under the default configuration with
    /// `predictor`.
    fn live(&mut self, image: &Image, predictor: HwPredictor) -> CycleRun {
        let machine = self
            .step("machine.load", || Machine::load(image))
            .expect("table program loads");
        let cfg = SimConfig {
            predictor,
            ..SimConfig::default()
        };
        let run = self
            .step("pipeline.run", || CycleSim::new(machine, cfg).run())
            .expect("cycle run halts");
        self.pass.count_cycle_run(&run.stats);
        run
    }
}

/// Retired conditional branches not charged a mispredict, as
/// `crisp_bench::btb_compare` rates a live run.
fn live_correct_rate(run: &CycleRun) -> f64 {
    let branches = run.stats.cond_branches;
    if branches == 0 {
        return 1.0;
    }
    branches.saturating_sub(run.stats.mispredicts()) as f64 / branches as f64
}

impl PaperTables {
    /// `crisp_bench::table1`: one traced functional run per program,
    /// then the optimal static bit and 1/2/3-bit counters.
    fn table1(run: &mut Run) -> Vec<Table1Row> {
        prediction_workloads()
            .into_iter()
            .map(|w| {
                let image = run.compile(w.source);
                let trace = run.trace(&image);
                let (st, dynamic) = run.step("predict.evaluate", || {
                    (
                        evaluate_static_optimal(&trace),
                        [1u8, 2, 3].map(|bits| evaluate_dynamic(&trace, bits).ratio()),
                    )
                });
                run.pass.count("predict.branches", st.accuracy.total as f64);
                Table1Row {
                    program: w.name.to_owned(),
                    static_acc: st.accuracy.ratio(),
                    dynamic,
                    branches: st.accuracy.total,
                }
            })
            .collect()
    }

    /// `crisp_bench::btb_compare`: trace-driven and live BTB and jump
    /// trace per program.
    fn btb_compare(run: &mut Run) -> Vec<BtbRow> {
        prediction_workloads()
            .into_iter()
            .map(|w| {
                let image = run.compile(w.source);
                let trace = run.trace(&image);
                let (st, btb, jt) = run.step("predict.evaluate", || {
                    (
                        evaluate_static_optimal(&trace),
                        Btb::new(BtbConfig::default()).evaluate(&trace),
                        JumpTrace::new(JumpTrace::MU5_ENTRIES).evaluate(&trace),
                    )
                });
                let image = run.compile(w.source);
                let st_run = run.live(&image, HwPredictor::StaticBit);
                let btb_run = run.live(
                    &image,
                    HwPredictor::Btb {
                        entries: 128,
                        ways: 4,
                    },
                );
                let jt_run = run.live(
                    &image,
                    HwPredictor::JumpTrace {
                        entries: JumpTrace::MU5_ENTRIES,
                    },
                );
                BtbRow {
                    program: w.name.to_owned(),
                    static_acc: st.accuracy.ratio(),
                    btb: btb.effectiveness(),
                    jump_trace: jt.ratio(),
                    transfers: btb.total,
                    btb_live: live_correct_rate(&btb_run),
                    jump_trace_live: live_correct_rate(&jt_run),
                    live_cycles: [
                        st_run.stats.cycles,
                        btb_run.stats.cycles,
                        jt_run.stats.cycles,
                    ],
                }
            })
            .collect()
    }

    /// `crisp_bench::ablation_predictor`: static bit vs 1- and 2-bit
    /// counter tables, in cycles.
    fn ablation_predictor(run: &mut Run) -> Vec<(String, u64, u64, u64)> {
        prediction_workloads()
            .into_iter()
            .map(|w| {
                let image = run.compile(w.source);
                let mut cycles = |predictor| run.live(&image, predictor).stats.cycles;
                (
                    w.name.to_owned(),
                    cycles(HwPredictor::StaticBit),
                    cycles(HwPredictor::Dynamic {
                        bits: 1,
                        entries: 512,
                    }),
                    cycles(HwPredictor::Dynamic {
                        bits: 2,
                        entries: 512,
                    }),
                )
            })
            .collect()
    }

    /// `crisp_bench::ablation_finite_dynamic`: 2-bit finite tables of
    /// each size against the infinite table.
    fn ablation_finite_dynamic(run: &mut Run, sizes: &[usize]) -> Vec<(String, f64, Vec<f64>)> {
        prediction_workloads()
            .into_iter()
            .map(|w| {
                let image = run.compile(w.source);
                let trace = run.trace(&image);
                run.step("predict.evaluate", || {
                    let infinite = evaluate_dynamic(&trace, 2).ratio();
                    let by_size = sizes
                        .iter()
                        .map(|&n| {
                            evaluate_predictor(&trace, &mut FinitePredictor::new(2, n)).ratio()
                        })
                        .collect();
                    (w.name.to_owned(), infinite, by_size)
                })
            })
            .collect()
    }

    /// Run one driver (named as in [`DRIVERS`]) and render its result
    /// for the digest. `composed` runs the four drivers composed here
    /// instead of their `crisp_bench` functions.
    pub fn driver(name: &str, pass: &mut Pass, composed: bool) -> String {
        let item = DRIVERS
            .iter()
            .position(|d| *d == name)
            .expect("a known table driver") as u64;
        let mut run = Run { pass, item };
        let finite_sizes = [8, 32, 128, 512];
        match name {
            "tables.table1" if composed => format!("{:?}", Self::table1(&mut run)),
            "tables.table1" => format!("{:?}", crisp_bench::table1()),
            "tables.btb_compare" if composed => format!("{:?}", Self::btb_compare(&mut run)),
            "tables.btb_compare" => format!("{:?}", crisp_bench::btb_compare()),
            "tables.ablation_predictor" if composed => {
                format!("{:?}", Self::ablation_predictor(&mut run))
            }
            "tables.ablation_predictor" => format!("{:?}", crisp_bench::ablation_predictor()),
            "tables.ablation_finite_dynamic" if composed => format!(
                "{:?}",
                Self::ablation_finite_dynamic(&mut run, &finite_sizes)
            ),
            "tables.ablation_finite_dynamic" => {
                format!("{:?}", crisp_bench::ablation_finite_dynamic(&finite_sizes))
            }
            "tables.table2" => {
                let t = crisp_bench::table2();
                // The counts tests/paper_tables.rs pins.
                let pinned = [
                    t.crisp.get("add") == 3072,
                    t.crisp.get("if-jump") == 2048,
                    t.crisp.get("cmp") == 2048,
                    t.crisp_total == 9737,
                    t.vax.get("incl") == 2048,
                    t.vax_total == 9737,
                ];
                if pinned.contains(&false) {
                    run.pass
                        .wrong
                        .push("table2: counts differ from the repository's pins".into());
                }
                format!("{t:?}")
            }
            "tables.table3" => format!("{:?}", crisp_bench::table3()),
            "tables.table4" => {
                let rows = crisp_bench::table4();
                let issued: Vec<u64> = rows.iter().map(|r| r.issued).collect();
                if issued != [9737, 9737, 7177, 7177, 9737] {
                    run.pass.wrong.push(format!(
                        "table4: issued {issued:?} differs from the repository's pins"
                    ));
                }
                format!("{rows:?}")
            }
            "tables.ablation_icache" => format!(
                "{:?}",
                crisp_bench::ablation_icache(&[4, 8, 16, 32, 64, 128], 1024)
            ),
            "tables.ablation_fold_policy" => {
                format!("{:?}", crisp_bench::ablation_fold_policy(1024))
            }
            "tables.ablation_mem_latency" => format!(
                "{:?}",
                crisp_bench::ablation_mem_latency(&[1, 2, 4, 8, 16, 32], 1024)
            ),
            "tables.ablation_bbsize" => {
                format!("{:?}", crisp_bench::ablation_bbsize(&[0, 1, 2, 3, 4, 6, 8]))
            }
            _ => format!("{:?}", crisp_bench::depth_sweep(&[2, 3, 4, 5, 6], 1024)),
        }
    }
}

impl Workload for PaperTables {
    const WORKERS: usize = 1;
    const CALIBRATION: measure::Calibration = measure::HEAP;

    fn setup(seed: u64) -> PaperTables {
        PaperTables {
            order: shuffled(DRIVERS.len(), seed),
        }
    }

    fn setup_counts(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }

    fn pass(&self) -> Pass {
        let mut pass = Pass::default();
        let mut digests = [0u64; DRIVERS.len()];
        let composed = trace::enabled();
        for &d in &self.order {
            let name = DRIVERS[d];
            pass.attempted += 1;
            let (rendered, t) =
                timed(|| span(name, d as u64, || Self::driver(name, &mut pass, composed)));
            pass.latencies.push((d as u64, t.as_nanos() as u64));
            digests[d] = fnv64(&rendered);
            let pinned = pins::TABLES
                .iter()
                .find(|row| row.0 == name)
                .map(|row| row.1);
            if pinned != Some(digests[d]) {
                pass.failed += 1;
                pass.wrong.push(format!(
                    "{name}: output digest {:#018x} != pinned {pinned:#x?}",
                    digests[d]
                ));
            }
        }
        pass.pinned = DRIVERS
            .iter()
            .zip(digests)
            .map(|(name, h)| ((*name).to_owned(), h))
            .collect();
        pass
    }

    fn expected(&self) -> Option<Vec<(String, u64)>> {
        Some(
            pins::TABLES
                .iter()
                .map(|&(name, h)| (name.to_owned(), h))
                .collect(),
        )
    }
}
