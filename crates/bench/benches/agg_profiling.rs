//! Criterion bench for Figure 6: the aggregation micro-benchmarks across
//! engine configurations.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hique_bench::runner::measure;
use hique_bench::workload::{agg_query_sql, agg_workload};
use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, AggAlgorithm, PlannerConfig};
use hique_server::Engine;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_agg_profiling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    for (name, rows, groups, algo) in [
        (
            "agg_query_1_hybrid",
            50_000usize,
            5_000usize,
            AggAlgorithm::HybridHashSort,
        ),
        ("agg_query_2_map", 50_000, 10, AggAlgorithm::Map),
    ] {
        let catalog = agg_workload(rows, groups).unwrap();
        let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
        let config = PlannerConfig::default().with_agg_algorithm(algo);
        let plan = plan_sql(agg_query_sql(), &catalog, &config).unwrap();
        for engine in [Engine::IterGeneric, Engine::IterOptimized, Engine::Holistic] {
            group.bench_with_input(
                BenchmarkId::new(name, engine.label()),
                &engine,
                |b, &engine| b.iter(|| measure(engine, &plan, &catalog, &dsm, true).unwrap().rows),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
