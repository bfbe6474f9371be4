//! Criterion bench for Figure 7(b): multi-way joins and join teams.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hique_bench::runner::measure;
use hique_bench::workload::{multiway_query_sql, multiway_workload};
use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, JoinAlgorithm, PlannerConfig};
use hique_server::Engine;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7b_multiway_joins");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    for num_dims in [2usize, 4, 8] {
        let catalog = multiway_workload(20_000, 2_000, num_dims).unwrap();
        let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
        let sql = multiway_query_sql(num_dims);
        let cascade_cfg = PlannerConfig::default()
            .with_join_algorithm(JoinAlgorithm::Merge)
            .with_join_teams(false);
        let cascade_plan = plan_sql(&sql, &catalog, &cascade_cfg).unwrap();
        let team_cfg = PlannerConfig::default().with_join_algorithm(JoinAlgorithm::Merge);
        let team_plan = plan_sql(&sql, &catalog, &team_cfg).unwrap();

        group.bench_with_input(
            BenchmarkId::new("merge_iterators_cascade", num_dims),
            &num_dims,
            |b, _| {
                b.iter(|| {
                    measure(Engine::IterOptimized, &cascade_plan, &catalog, &dsm, false)
                        .unwrap()
                        .rows
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("merge_hique_binary", num_dims),
            &num_dims,
            |b, _| {
                b.iter(|| {
                    measure(Engine::Holistic, &cascade_plan, &catalog, &dsm, false)
                        .unwrap()
                        .rows
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("merge_hique_team", num_dims),
            &num_dims,
            |b, _| {
                b.iter(|| {
                    measure(Engine::Holistic, &team_plan, &catalog, &dsm, false)
                        .unwrap()
                        .rows
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
