//! Criterion bench for Figure 7(d): grouping attribute cardinality and the
//! map/hybrid aggregation crossover.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hique_bench::runner::measure;
use hique_bench::workload::{agg_query_sql, agg_workload};
use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, AggAlgorithm, PlannerConfig};
use hique_server::Engine;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7d_group_cardinality");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let rows = 50_000usize;
    for groups in [10usize, 1_000, 20_000] {
        let catalog = agg_workload(rows, groups).unwrap();
        let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
        for algo in [
            AggAlgorithm::Sort,
            AggAlgorithm::HybridHashSort,
            AggAlgorithm::Map,
        ] {
            let config = PlannerConfig::default().with_agg_algorithm(algo);
            let plan = plan_sql(agg_query_sql(), &catalog, &config).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("hique_{}", algo.name().replace(' ', "_")), groups),
                &groups,
                |b, _| {
                    b.iter(|| {
                        measure(Engine::Holistic, &plan, &catalog, &dsm, true)
                            .unwrap()
                            .rows
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
