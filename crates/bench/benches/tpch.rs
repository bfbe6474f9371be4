//! Criterion bench for Figure 8: TPC-H Q1/Q3/Q10 across the four system
//! classes (SF 0.01 for bench runtime; see the `fig8_tpch` binary for
//! configurable scale factors).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hique_bench::runner::measure;
use hique_dsm::DsmDatabase;
use hique_plan::{plan_sql, PlannerConfig};
use hique_server::Engine;
use hique_tpch::queries::all_queries;

fn bench(c: &mut Criterion) {
    let catalog = hique_tpch::generate_into_catalog(0.01).unwrap();
    let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
    let mut group = c.benchmark_group("fig8_tpch_sf0.01");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    for (name, sql) in all_queries() {
        let plan = plan_sql(sql, &catalog, &PlannerConfig::default()).unwrap();
        for engine in [
            Engine::IterGeneric,
            Engine::IterOptimized,
            Engine::Dsm,
            Engine::Holistic,
        ] {
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
