//! Ablation benches for the design choices called out in `DESIGN.md` §7:
//! staging partition fan-out, and fine vs coarse partitioning for joins.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hique_bench::runner::measure;
use hique_bench::workload::{join_query_sql, join_workload};
use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};
use hique_server::Engine;

fn partition_fanout(c: &mut Criterion) {
    // The hybrid join's partition count is derived from the L2 size; sweep
    // the assumed cache size to show the sensitivity of the choice.
    let mut group = c.benchmark_group("ablation_partition_fanout");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let catalog = join_workload(20_000, 20_000, 10).unwrap();
    let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
    for l2_kb in [256usize, 1024, 2048, 8192] {
        let mut config =
            PlannerConfig::default().with_join_algorithm(JoinAlgorithm::HybridHashSortMerge);
        config.l2_cache_bytes = l2_kb * 1024;
        let plan = plan_sql(join_query_sql(), &catalog, &config).unwrap();
        group.bench_with_input(
            BenchmarkId::new("hique_hybrid_join", l2_kb),
            &l2_kb,
            |b, _| {
                b.iter(|| {
                    measure(Engine::Holistic, &plan, &catalog, &dsm, false)
                        .unwrap()
                        .rows
                })
            },
        );
    }
    group.finish();
}

fn fine_vs_coarse(c: &mut Criterion) {
    // Fine partitioning (value directory) vs hybrid hash-sort for a join
    // whose key domain is small enough for a directory.
    let mut group = c.benchmark_group("ablation_fine_vs_coarse_partitioning");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let catalog = join_workload(20_000, 20_000, 40).unwrap(); // 500 distinct keys
    let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
    for (label, algo) in [
        ("fine_partition_join", JoinAlgorithm::Partition),
        ("hybrid_hash_sort_merge", JoinAlgorithm::HybridHashSortMerge),
        ("merge_join", JoinAlgorithm::Merge),
    ] {
        let config = PlannerConfig::default().with_join_algorithm(algo);
        let plan = plan_sql(join_query_sql(), &catalog, &config).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                measure(Engine::Holistic, &plan, &catalog, &dsm, false)
                    .unwrap()
                    .rows
            })
        });
    }
    group.finish();
}

criterion_group!(benches, partition_fanout, fine_vs_coarse);
criterion_main!(benches);
