//! Experiment B1 — buffer-pool hit rate and response time vs memory budget
//! (not in the paper: the original HIQUE runs memory-resident; this
//! measures the reproduction's pool-backed execution mode).
//!
//! Sweeps `memory_budget_pages` over a paged TPC-H catalog, running TPC-H
//! Q1 (scan-heavy single table) and Q3 (three-way join whose staged
//! intermediates spill under the budget) through the holistic engine.  For
//! every budget the row counts must match the memory-resident baseline —
//! the budget may only change *where* pages live, never the answer.
//!
//! ```bash
//! cargo run --release -p hique-bench --bin fig_buffer_scaling -- --sf 0.01
//! cargo run --release -p hique-bench --bin fig_buffer_scaling -- \
//!     --sf 0.01 --budgets 4096,1024,256,64
//! ```

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use hique_holistic::ExecOptions;
use hique_plan::{plan_sql, PlannerConfig};
use hique_storage::Catalog;
use hique_types::IoStats;

struct Args {
    sf: f64,
    budgets: Vec<usize>,
    repeats: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sf: 0.01,
        budgets: vec![4096, 1024, 256, 64],
        repeats: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sf" => args.sf = value("--sf")?.parse().map_err(|e| format!("--sf: {e}"))?,
            "--budgets" => {
                args.budgets = value("--budgets")?
                    .split(',')
                    .map(|b| b.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--budgets: {e}"))?
            }
            "--repeats" => {
                args.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: fig_buffer_scaling [--sf F] [--budgets 4096,1024,256,64] [--repeats N]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        repeats: args.repeats.max(1),
        ..args
    })
}

/// Best-of-`repeats` holistic run; returns (best time, rows, io of best).
fn measure(
    sql: &str,
    catalog: &Catalog,
    config: &PlannerConfig,
    repeats: usize,
) -> (Duration, u64, IoStats) {
    let plan = plan_sql(sql, catalog, config).expect("plan");
    let generated = hique_holistic::generate(&plan).expect("generate");
    let options = ExecOptions {
        collect_rows: false,
        ..ExecOptions::default()
    };
    let mut best = Duration::MAX;
    let mut rows = 0;
    let mut io = IoStats::default();
    for _ in 0..repeats {
        let t = Instant::now();
        let result = generated.execute_with(catalog, &options).expect("execute");
        let elapsed = t.elapsed();
        if elapsed < best {
            best = elapsed;
            io = result.stats.io;
        }
        rows = result.stats.rows_out.max(result.num_rows() as u64);
    }
    (best, rows, io)
}

fn hit_rate(io: &IoStats) -> f64 {
    let total = io.pool_hits + io.pool_misses;
    if total == 0 {
        return 1.0;
    }
    io.pool_hits as f64 / total as f64
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let queries = [
        ("Q1", hique_tpch::queries::Q1_SQL),
        ("Q3", hique_tpch::queries::Q3_SQL),
    ];

    println!(
        "buffer scaling at SF {} ({} repeats per cell)",
        args.sf, args.repeats
    );
    let baseline_catalog = hique_tpch::generate_into_catalog(args.sf).expect("catalog");
    let working_set: usize = ["lineitem", "orders", "customer", "nation"]
        .iter()
        .filter_map(|t| baseline_catalog.table(t).ok())
        .map(|t| t.heap.num_pages())
        .sum();
    println!("working set of the queried tables: ~{working_set} pages");

    let mut baseline_rows = Vec::new();
    println!(
        "{:<12} {:>6} {:>12} {:>8} {:>12} {:>12}",
        "budget", "query", "time (ms)", "hit %", "evictions", "pages_read"
    );
    for (name, sql) in queries {
        let (time, rows, _) = measure(
            sql,
            &baseline_catalog,
            &PlannerConfig::default(),
            args.repeats,
        );
        println!(
            "{:<12} {name:>6} {:>12.2} {:>8} {:>12} {:>12}",
            "unbounded",
            time.as_secs_f64() * 1000.0,
            "-",
            "-",
            "-"
        );
        baseline_rows.push(rows);
    }

    for &budget in &args.budgets {
        let mut catalog = hique_tpch::generate_into_catalog(args.sf).expect("catalog");
        catalog
            .spill_to_disk(budget)
            .expect("spill catalog to disk");
        let config = PlannerConfig::default().with_memory_budget_pages(budget);
        for (i, (name, sql)) in queries.iter().enumerate() {
            let (time, rows, io) = measure(sql, &catalog, &config, args.repeats);
            assert_eq!(
                rows, baseline_rows[i],
                "{name}: budget {budget} changed the row count"
            );
            println!(
                "{budget:<12} {name:>6} {:>12.2} {:>8.1} {:>12} {:>12}",
                time.as_secs_f64() * 1000.0,
                100.0 * hit_rate(&io),
                io.pool_evictions,
                io.pages_read
            );
        }
        let stats = catalog.pool_stats();
        if budget < working_set && stats.evictions == 0 {
            eprintln!("budget {budget} below the working set produced no evictions");
            std::process::exit(1);
        }
    }
    println!("all budgets returned the unbounded row counts");
}
