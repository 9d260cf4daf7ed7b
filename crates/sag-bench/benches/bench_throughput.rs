//! Criterion bench for the batched end-to-end replay path: whole test days
//! replayed through `AuditCycleEngine::replay` at the default shard count,
//! plus the isolated warm vs cold SSE comparison on the 5-type game.
//! This is the throughput counterpart of `bench_runtime.rs` (which measures
//! one alert at a time).

use criterion::{criterion_group, criterion_main, Criterion};
use sag_bench::setup;
use sag_core::engine::{recommended_shards, AuditCycleEngine, EngineConfig, ReplayJob};
use sag_core::sse::{SseCache, SseSolver};
use sag_sim::{AlertLog, StreamConfig, StreamGenerator};
use std::hint::black_box;

fn replay_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_throughput");

    // Batched multi-day replay of the paper's 7-type game.
    let mut generator = StreamGenerator::new(StreamConfig::paper_multi_type(7));
    let log = AlertLog::new(generator.generate_days(9));
    let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
    group.bench_function("replay/7_types_3_days", |b| {
        let jobs: Vec<ReplayJob<'_>> = log
            .rolling_groups(6)
            .into_iter()
            .map(|(history, test_day)| ReplayJob::new(history, test_day))
            .collect();
        let shards = recommended_shards(jobs.len());
        b.iter(|| black_box(engine.replay(black_box(&jobs), shards).unwrap().len()));
    });

    // Warm vs cold SSE on the 5-type scaling game (the acceptance metric).
    let (payoffs, costs, estimates) = setup::synthetic_game(5);
    let solver = SseSolver::new();
    group.bench_function("sse_5type/cold", |b| {
        b.iter(|| {
            let input = setup::sse_input(&payoffs, &costs, &estimates, black_box(30.0));
            black_box(solver.solve(&input).unwrap().auditor_utility)
        });
    });
    group.bench_function("sse_5type/warm", |b| {
        let mut cache = SseCache::new();
        // Pre-warm so the measured loop is the steady state.
        let input = setup::sse_input(&payoffs, &costs, &estimates, 30.0);
        solver.solve_cached(&input, &mut cache).unwrap();
        b.iter(|| {
            let input = setup::sse_input(&payoffs, &costs, &estimates, black_box(30.0));
            black_box(
                solver
                    .solve_cached(&input, &mut cache)
                    .unwrap()
                    .auditor_utility,
            )
        });
    });

    group.finish();
}

criterion_group!(benches, replay_throughput);
criterion_main!(benches);
