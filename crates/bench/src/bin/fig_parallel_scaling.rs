//! Experiment P1 — partition-parallel scaling (not in the paper: the
//! original HIQUE is single-threaded; this measures the reproduction's
//! partition-parallel execution mode).
//!
//! Sweeps the worker-thread count over the two micro-benchmarks whose hot
//! phases parallelize across staged partitions:
//!
//! * **partitioned join** — the paper's binary join micro-benchmark forced
//!   onto the fine partition join, so staging scatter and the per-key
//!   partition-pair cross products divide across the pool; and
//! * **map aggregation** — the grouped aggregation micro-benchmark forced
//!   onto map aggregation, so the directory pre-pass and the accumulation
//!   pass run on thread-local arrays merged at the end.
//!
//! ```bash
//! cargo run --release -p hique-bench --bin fig_parallel_scaling -- --sf 0.1
//! # CI gate (only enforced when the machine has >= --at-threads cores):
//! cargo run --release -p hique-bench --bin fig_parallel_scaling -- \
//!     --sf 0.1 --min-speedup 2.0 --at-threads 4
//! ```

#![forbid(unsafe_code)]

use std::time::Duration;

use hique_bench::workload::{agg_query_sql, agg_workload, join_query_sql, join_workload};
use hique_holistic::ExecOptions;
use hique_par::available_threads;
use hique_plan::{plan_sql, AggAlgorithm, JoinAlgorithm, PlannerConfig};
use hique_storage::Catalog;

struct Args {
    sf: f64,
    threads: Vec<usize>,
    repeats: usize,
    min_speedup: Option<f64>,
    at_threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sf: 0.1,
        threads: vec![1, 2, 4],
        repeats: 3,
        min_speedup: None,
        at_threads: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sf" => args.sf = value("--sf")?.parse().map_err(|e| format!("--sf: {e}"))?,
            "--threads" => {
                args.threads = value("--threads")?
                    .split(',')
                    .map(|t| t.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--threads: {e}"))?;
                if args.threads.first() != Some(&1) {
                    return Err(
                        "--threads must start with 1 (the serial baseline is measured first)"
                            .into(),
                    );
                }
            }
            "--repeats" => {
                args.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?
            }
            "--min-speedup" => {
                args.min_speedup = Some(
                    value("--min-speedup")?
                        .parse()
                        .map_err(|e| format!("--min-speedup: {e}"))?,
                )
            }
            "--at-threads" => {
                args.at_threads = value("--at-threads")?
                    .parse()
                    .map_err(|e| format!("--at-threads: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: fig_parallel_scaling [--sf F] [--threads 1,2,4] \
                            [--repeats N] [--min-speedup X] [--at-threads N]"
                    .into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.min_speedup.is_some() && !args.threads.contains(&args.at_threads) {
        return Err(format!(
            "--min-speedup gates at {} threads, but --threads does not include {}",
            args.at_threads, args.at_threads
        ));
    }
    Ok(Args {
        repeats: args.repeats.max(1),
        ..args
    })
}

/// Best-of-`repeats` holistic execution time for one (query, thread count),
/// with planning and code generation outside the timed region.  Returns the
/// best time and the output row count so the sweep can assert the thread
/// count does not change the answer.
fn measure(
    sql: &str,
    catalog: &Catalog,
    config: &PlannerConfig,
    repeats: usize,
) -> (Duration, u64) {
    let plan = plan_sql(sql, catalog, config).expect("plan");
    let generated = hique_holistic::generate(&plan).expect("generate");
    let options = ExecOptions {
        collect_rows: false,
        ..ExecOptions::default()
    };
    let mut best = Duration::MAX;
    let mut rows = None;
    for _ in 0..repeats {
        let t = std::time::Instant::now();
        let result = generated.execute_with(catalog, &options).expect("execute");
        best = best.min(t.elapsed());
        let n = result.stats.rows_out.max(result.num_rows() as u64);
        if let Some(prev) = rows {
            assert_eq!(prev, n, "row count changed between repeats");
        }
        rows = Some(n);
    }
    (best, rows.unwrap_or(0))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let cores = available_threads();

    // The paper's micro-benchmark tables, sized in TPC-H proportions
    // (lineitem : orders = 4 : 1 at 6M : 1.5M rows per SF unit).
    let join_inner = (6_000_000.0 * args.sf) as usize;
    let join_outer = (1_500_000.0 * args.sf) as usize;
    let agg_rows = (6_000_000.0 * args.sf) as usize;
    println!(
        "parallel scaling at SF {} ({join_outer}x{join_inner} join, {agg_rows}-row aggregation), \
         {} repeats, {cores} cores",
        args.sf, args.repeats
    );

    let join_catalog = join_workload(join_outer.max(1), join_inner.max(1), 50).expect("workload");
    let join_config = PlannerConfig::default().with_join_algorithm(JoinAlgorithm::Partition);
    let agg_catalog = agg_workload(agg_rows.max(1), 1000).expect("workload");
    let agg_config = PlannerConfig::default().with_agg_algorithm(AggAlgorithm::Map);

    println!(
        "{:<10} {:>20} {:>10} {:>20} {:>10}",
        "threads", "part-join (ms)", "speedup", "map-agg (ms)", "speedup"
    );
    let mut join_base = Duration::ZERO;
    let mut agg_base = Duration::ZERO;
    let mut baseline_rows: Option<(u64, u64)> = None;
    let mut gate_failures: Vec<String> = Vec::new();
    for &threads in &args.threads {
        let (join_time, join_rows) = measure(
            join_query_sql(),
            &join_catalog,
            &join_config.clone().with_threads(threads),
            args.repeats,
        );
        let (agg_time, agg_rows) = measure(
            agg_query_sql(),
            &agg_catalog,
            &agg_config.clone().with_threads(threads),
            args.repeats,
        );
        // The thread sweep must not change the answers (threads = 1 runs
        // first: parse_args requires it to lead the list).
        match baseline_rows {
            None => baseline_rows = Some((join_rows, agg_rows)),
            Some(expected) => assert_eq!(
                (join_rows, agg_rows),
                expected,
                "row counts diverged from the serial baseline at {threads} threads"
            ),
        }
        if threads == 1 {
            join_base = join_time;
            agg_base = agg_time;
        }
        let join_speedup = join_base.as_secs_f64() / join_time.as_secs_f64().max(1e-9);
        let agg_speedup = agg_base.as_secs_f64() / agg_time.as_secs_f64().max(1e-9);
        println!(
            "{threads:<10} {:>20.2} {join_speedup:>9.2}x {:>20.2} {agg_speedup:>9.2}x",
            join_time.as_secs_f64() * 1000.0,
            agg_time.as_secs_f64() * 1000.0
        );
        if let Some(min) = args.min_speedup {
            if threads == args.at_threads {
                for (name, speedup) in [
                    ("partitioned join", join_speedup),
                    ("map aggregation", agg_speedup),
                ] {
                    if speedup < min {
                        gate_failures.push(format!(
                            "{name}: {speedup:.2}x at {threads} threads < {min}x"
                        ));
                    }
                }
            }
        }
    }

    if let Some(min) = args.min_speedup {
        if cores < args.at_threads {
            println!(
                "speedup gate skipped: machine has {cores} cores, gate needs {} threads",
                args.at_threads
            );
        } else if gate_failures.is_empty() {
            println!(
                "speedup gate passed: >= {min}x at {} threads",
                args.at_threads
            );
        } else {
            for failure in &gate_failures {
                eprintln!("speedup gate FAILED: {failure}");
            }
            std::process::exit(1);
        }
    }
}
