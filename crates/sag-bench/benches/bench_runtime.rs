//! Criterion bench for Experiment E5: the per-alert SAG optimization cost
//! (online SSE via the multiple-LP method + OSSP closed form), which is the
//! latency a user would experience before the warning dialog can be shown.
//! The paper reports ≈ 0.02 s per alert on 2017 laptop hardware.
//!
//! Game setups are shared with the `BENCH_1` throughput experiment through
//! `sag_bench::setup`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sag_bench::setup;
use sag_core::signaling::ossp_closed_form;
use sag_core::sse::{SseCache, SseSolver};
use sag_sim::AlertTypeId;
use std::hint::black_box;

fn per_alert_optimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_alert_optimization");

    // Single-type game (Figure 2 setting) — answered by the closed form.
    let single = setup::single_type_game();
    let single_estimates = setup::single_type_estimates();
    group.bench_function("sse_plus_ossp/1_type", |b| {
        let solver = SseSolver::new();
        b.iter(|| {
            let input = setup::sse_input(
                &single.payoffs,
                &single.audit_costs,
                black_box(&single_estimates),
                black_box(setup::SINGLE_TYPE_BUDGET),
            );
            let sse = solver.solve(&input).unwrap();
            let ossp = ossp_closed_form(
                single.payoffs.get(AlertTypeId(0)),
                sse.coverage_of(AlertTypeId(0)),
            );
            black_box((sse.auditor_utility, ossp.auditor_utility))
        });
    });

    // Multi-type game (Figure 3 setting), cold and warm.
    let multi = setup::multi_type_game();
    let multi_estimates = setup::multi_type_estimates();
    group.bench_function("sse_plus_ossp/7_types_cold", |b| {
        let solver = SseSolver::new();
        b.iter(|| {
            let input = setup::sse_input(
                &multi.payoffs,
                &multi.audit_costs,
                black_box(&multi_estimates),
                black_box(setup::MULTI_TYPE_BUDGET),
            );
            let sse = solver.solve(&input).unwrap();
            let t = sse.best_response;
            let ossp = ossp_closed_form(multi.payoffs.get(t), sse.coverage_of(t));
            black_box((sse.auditor_utility, ossp.auditor_utility))
        });
    });
    group.bench_function("sse_plus_ossp/7_types_warm", |b| {
        let solver = SseSolver::new();
        let mut cache = SseCache::new();
        b.iter(|| {
            let input = setup::sse_input(
                &multi.payoffs,
                &multi.audit_costs,
                black_box(&multi_estimates),
                black_box(setup::MULTI_TYPE_BUDGET),
            );
            let sse = solver.solve_cached(&input, &mut cache).unwrap();
            let t = sse.best_response;
            let ossp = ossp_closed_form(multi.payoffs.get(t), sse.coverage_of(t));
            black_box((sse.auditor_utility, ossp.auditor_utility))
        });
    });

    // The acceptance workload: warm vs cold on the synthetic 5-type game.
    let (payoffs5, costs5, estimates5) = setup::synthetic_game(5);
    group.bench_function("sse_5type/cold", |b| {
        let solver = SseSolver::new();
        b.iter(|| {
            let input =
                setup::sse_input(&payoffs5, &costs5, black_box(&estimates5), black_box(30.0));
            black_box(solver.solve(&input).unwrap().auditor_utility)
        });
    });
    group.bench_function("sse_5type/warm", |b| {
        let solver = SseSolver::new();
        let mut cache = SseCache::new();
        b.iter(|| {
            let input =
                setup::sse_input(&payoffs5, &costs5, black_box(&estimates5), black_box(30.0));
            black_box(
                solver
                    .solve_cached(&input, &mut cache)
                    .unwrap()
                    .auditor_utility,
            )
        });
    });

    // Scaling with the number of types (synthetic payoff tables).
    for &n in &[2usize, 4, 8, 16] {
        let (payoffs, costs, estimates) = setup::synthetic_game(n);
        group.bench_with_input(BenchmarkId::new("sse_scaling_types", n), &n, |b, _| {
            let solver = SseSolver::new();
            let mut cache = SseCache::new();
            b.iter(|| {
                let input =
                    setup::sse_input(&payoffs, &costs, black_box(&estimates), black_box(30.0));
                black_box(
                    solver
                        .solve_cached(&input, &mut cache)
                        .unwrap()
                        .auditor_utility,
                )
            });
        });
    }

    group.finish();
}

criterion_group!(benches, per_alert_optimization);
criterion_main!(benches);
