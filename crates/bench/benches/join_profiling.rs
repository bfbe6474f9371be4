//! Criterion bench for Figure 5: the join micro-benchmarks across engine
//! configurations.  Use the `fig5_join_profiling` binary for the full
//! paper-style table with counters.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hique_bench::runner::measure;
use hique_bench::workload::{join_query_sql, join_workload};
use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};
use hique_server::Engine;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_join_profiling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    for (name, outer, inner, matches, algo) in [
        (
            "join_query_1_merge",
            1_000usize,
            1_000usize,
            100usize,
            JoinAlgorithm::Merge,
        ),
        (
            "join_query_2_hybrid",
            10_000,
            10_000,
            10,
            JoinAlgorithm::HybridHashSortMerge,
        ),
    ] {
        let catalog = join_workload(outer, inner, matches).unwrap();
        let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
        let config = PlannerConfig::default().with_join_algorithm(algo);
        let plan = plan_sql(join_query_sql(), &catalog, &config).unwrap();
        for engine in [Engine::IterGeneric, Engine::IterOptimized, Engine::Holistic] {
            group.bench_with_input(
                BenchmarkId::new(name, engine.label()),
                &engine,
                |b, &engine| b.iter(|| measure(engine, &plan, &catalog, &dsm, false).unwrap().rows),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
