//! Simulator throughput: functional vs cycle engine on the Figure 3
//! program, the batched (predecoded + pooled-machine) kernel the
//! campaign drivers use, and cycle-engine sensitivity to cache
//! geometry.

use std::sync::Arc;

use crisp_cc::{compile_crisp, CompileOptions};
use crisp_sim::{
    BranchProfiler, CycleSim, EventRing, FunctionalSim, Machine, PredecodedImage, SimConfig,
};
use crisp_workloads::{figure3_large, figure3_with_count, FIGURE3_LARGE_ITERS};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn bench_engines(c: &mut Criterion) {
    let src = figure3_with_count(256);
    let image = compile_crisp(&src, &CompileOptions::default()).expect("compiles");
    // Program instructions per run, for throughput units.
    let instrs = FunctionalSim::new(Machine::load(&image).unwrap())
        .run()
        .unwrap()
        .stats
        .program_instrs;

    let mut g = c.benchmark_group("sim");
    g.throughput(Throughput::Elements(instrs));
    g.bench_function("functional_figure3_256", |b| {
        b.iter_batched(
            || Machine::load(&image).unwrap(),
            |m| FunctionalSim::new(m).run().unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("cycle_figure3_256", |b| {
        b.iter_batched(
            || Machine::load(&image).unwrap(),
            |m| CycleSim::new(m, SimConfig::default()).run().unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("cycle_figure3_256_nofold", |b| {
        b.iter_batched(
            || Machine::load(&image).unwrap(),
            |m| {
                CycleSim::new(m, SimConfig::without_folding())
                    .run()
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Observability overhead guard. `cycle_nullobs` is the default engine —
/// the `NullObserver` path, which must stay within noise (≤2 %) of
/// `cycle_figure3_256` above since `O::INTEREST` guards compile away.
/// `cycle_ring_profiler` measures the real cost of full tracing plus
/// branch-site profiling, for calibrating `--trace`/`--profile` runs.
fn bench_observer_overhead(c: &mut Criterion) {
    let src = figure3_with_count(256);
    let image = compile_crisp(&src, &CompileOptions::default()).expect("compiles");
    let instrs = FunctionalSim::new(Machine::load(&image).unwrap())
        .run()
        .unwrap()
        .stats
        .program_instrs;

    let mut g = c.benchmark_group("observer");
    g.throughput(Throughput::Elements(instrs));
    g.bench_function("cycle_nullobs", |b| {
        b.iter_batched(
            || Machine::load(&image).unwrap(),
            |m| CycleSim::new(m, SimConfig::default()).run().unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("cycle_ring_profiler", |b| {
        b.iter_batched(
            || Machine::load(&image).unwrap(),
            |m| {
                let obs = (EventRing::new(1 << 20), BranchProfiler::new());
                CycleSim::with_observer(m, SimConfig::default(), obs)
                    .run_observed()
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The batched campaign kernel: a shared [`PredecodedImage`] replaces
/// per-run demand decode, and a pooled [`Machine`] recycled with
/// `reset_from` replaces a fresh `Machine::load` per case. The
/// `*_fresh` entries are the per-case costs the campaign drivers used
/// to pay; the `*_pooled` entries are what they pay now.
fn bench_batch_kernel(c: &mut Criterion) {
    let src = figure3_large();
    let image = compile_crisp(&src, &CompileOptions::default()).expect("compiles");
    let instrs = FunctionalSim::new(Machine::load(&image).unwrap())
        .run()
        .unwrap()
        .stats
        .program_instrs;
    let policy = SimConfig::default().fold_policy;
    let table = PredecodedImage::shared(&image, policy).expect("predecodes");

    let mut g = c.benchmark_group("batch");
    g.throughput(Throughput::Elements(instrs));
    g.sample_size(20);
    let iters = FIGURE3_LARGE_ITERS;
    g.bench_function(format!("functional_figure3_{iters}_fresh"), |b| {
        b.iter_batched(
            || Machine::load(&image).unwrap(),
            |m| FunctionalSim::with_policy(m, policy).run().unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function(format!("functional_figure3_{iters}_pooled"), |b| {
        let mut pool: Option<Machine> = None;
        b.iter(|| {
            let mut m = pool
                .take()
                .unwrap_or_else(|| Machine::load(&image).unwrap());
            m.reset_from(&image).unwrap();
            let run = FunctionalSim::with_predecoded(m, Arc::clone(&table))
                .run()
                .unwrap();
            let commits = run.stats.program_instrs;
            pool = Some(run.machine);
            commits
        })
    });
    g.bench_function(format!("cycle_figure3_{iters}_fresh"), |b| {
        b.iter_batched(
            || Machine::load(&image).unwrap(),
            |m| CycleSim::new(m, SimConfig::default()).run().unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function(format!("cycle_figure3_{iters}_pooled"), |b| {
        let mut pool: Option<Machine> = None;
        b.iter(|| {
            let mut m = pool
                .take()
                .unwrap_or_else(|| Machine::load(&image).unwrap());
            m.reset_from(&image).unwrap();
            let mut sim = CycleSim::new(m, SimConfig::default());
            sim.set_predecoded(Arc::clone(&table));
            let run = sim.run().unwrap();
            let cycles = run.stats.cycles;
            pool = Some(run.machine);
            cycles
        })
    });
    g.finish();
}

fn bench_cache_sizes(c: &mut Criterion) {
    let src = figure3_with_count(128);
    let image = compile_crisp(&src, &CompileOptions::default()).expect("compiles");
    let mut g = c.benchmark_group("cycle_cache");
    for entries in [8usize, 32, 128] {
        g.bench_function(format!("icache_{entries}"), |b| {
            b.iter_batched(
                || Machine::load(&image).unwrap(),
                |m| {
                    CycleSim::new(
                        m,
                        SimConfig {
                            icache_entries: entries,
                            ..Default::default()
                        },
                    )
                    .run()
                    .unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_engines,
    bench_observer_overhead,
    bench_batch_kernel,
    bench_cache_sizes
);
criterion_main!(benches);
