//! Criterion bench for Figure 7(c): join predicate selectivity.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hique_bench::runner::measure;
use hique_bench::workload::{join_query_sql, join_workload};
use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};
use hique_server::Engine;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7c_join_selectivity");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let rows = 10_000usize;
    for matches in [1usize, 10, 100] {
        let catalog = join_workload(rows, rows, matches).unwrap();
        let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
        for (label, engine, algo) in [
            (
                "merge_iterators",
                Engine::IterOptimized,
                JoinAlgorithm::Merge,
            ),
            ("merge_hique", Engine::Holistic, JoinAlgorithm::Merge),
            (
                "hybrid_hique",
                Engine::Holistic,
                JoinAlgorithm::HybridHashSortMerge,
            ),
        ] {
            let config = PlannerConfig::default().with_join_algorithm(algo);
            let plan = plan_sql(join_query_sql(), &catalog, &config).unwrap();
            group.bench_with_input(BenchmarkId::new(label, matches), &engine, |b, &engine| {
                b.iter(|| measure(engine, &plan, &catalog, &dsm, false).unwrap().rows)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
