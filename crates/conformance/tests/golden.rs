//! Golden-file pinning of TPC-H Q1/Q3/Q10 results.
//!
//! The canonical text of each query's result at a fixed scale factor is
//! checked into `tests/golden/`. Every engine must reproduce those bytes
//! exactly, so a regression in any layer — parser, optimizer, staging,
//! joins, aggregation, ordering — of any engine fails immediately with a
//! diff against a known-good answer.
//!
//! Regenerate after an intentional change with:
//! `HIQUE_BLESS=1 cargo test -p hique-conformance --test golden`

use std::path::PathBuf;

use hique_conformance::{canonicalize, compare, Fixture};
use hique_holistic::ExecOptions;
use hique_plan::{plan_sql, PlannerConfig};
use hique_server::{Compiled, Engine};

const SF: f64 = 0.004;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check_query(fixture: &Fixture, name: &str, sql: &str) {
    let plan = plan_sql(sql, &fixture.catalog, &PlannerConfig::default()).unwrap();
    let compiled = Compiled::new(&plan, &fixture.catalog).unwrap();
    let run = |engine| {
        canonicalize(
            &fixture
                .execute(engine, &compiled, &ExecOptions::default())
                .unwrap(),
        )
    };
    let path = golden_path(name);

    if std::env::var_os("HIQUE_BLESS").is_some() {
        std::fs::write(&path, run(Engine::Holistic).to_text()).unwrap();
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{name}: missing golden file {path:?} ({e}); run with HIQUE_BLESS=1 to create it")
    });
    // The holistic engine is pinned byte-for-byte (the goldens were blessed
    // from it). The other engines may legally differ in float accumulation
    // order, which near a {:.4} rounding boundary could flip a printed
    // digit — so they are held to the harness's tolerant comparison against
    // the holistic result instead of to the exact bytes.
    let holistic = run(Engine::Holistic);
    assert_eq!(
        holistic.to_text(),
        golden,
        "{name} on holistic no longer matches {path:?}"
    );
    for engine in Engine::ALL {
        if engine == Engine::Holistic {
            continue;
        }
        if let Err(mismatch) = compare(&run(engine), &holistic) {
            panic!(
                "{name} on {} diverges from golden: {mismatch}",
                engine.name()
            );
        }
    }
}

#[test]
fn tpch_results_match_golden_files() {
    let fixture = Fixture::generate(SF).unwrap();
    for (name, sql) in hique_tpch::queries::all_queries() {
        check_query(&fixture, &name.to_ascii_lowercase(), sql);
    }
    // The golden results must not be vacuous: Q1 always has the full
    // flag/status groups at this scale factor.
    let q1 = std::fs::read_to_string(golden_path("q1")).unwrap();
    assert!(
        q1.lines().count() >= 4,
        "q1 golden file is suspiciously small"
    );
}
