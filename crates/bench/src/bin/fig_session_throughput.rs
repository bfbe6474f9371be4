//! Experiment S1 — multi-session throughput (not in the paper: the
//! original HIQUE is a single-session prototype; this measures the
//! reproduction's `hique-server` serving concurrent sessions).
//!
//! One shared [`hique_server::Server`] (one catalog, one buffer pool, one
//! plan cache) serves S concurrent sessions, each replaying the paper's
//! TPC-H battery (Q1/Q3/Q10).  The sweep reports aggregate queries/sec per
//! session count.  The plan cache is warmed before the timed region, so
//! the sweep measures execution concurrency — the regime the paper's
//! Table III amortization argument assumes, where preparation cost has
//! already been paid.
//!
//! Every result is checked against the single-session baseline row for
//! row; any divergence is a hard failure (concurrent sessions sharing the
//! pool and spill namespaces must not change answers).
//!
//! ```bash
//! cargo run --release -p hique-bench --bin fig_session_throughput -- --sf 0.01
//! # CI gate (only enforced when the machine has >= --at-sessions cores):
//! cargo run --release -p hique-bench --bin fig_session_throughput -- \
//!     --sf 0.01 --min-scaling 1.0 --at-sessions 4
//! ```

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use hique_par::available_threads;
use hique_server::{Server, ServerConfig};
use hique_types::Row;

struct Args {
    sf: f64,
    budget_pages: usize,
    sessions: Vec<usize>,
    queries: usize,
    min_scaling: Option<f64>,
    at_sessions: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sf: 0.01,
        budget_pages: 64,
        sessions: vec![1, 2, 4],
        queries: 12,
        min_scaling: None,
        at_sessions: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sf" => args.sf = value("--sf")?.parse().map_err(|e| format!("--sf: {e}"))?,
            "--budget-pages" => {
                args.budget_pages = value("--budget-pages")?
                    .parse()
                    .map_err(|e| format!("--budget-pages: {e}"))?
            }
            "--sessions" => {
                args.sessions = value("--sessions")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--sessions: {e}"))?;
                if args.sessions.first() != Some(&1) {
                    return Err(
                        "--sessions must start with 1 (the serial baseline is measured first)"
                            .into(),
                    );
                }
            }
            "--queries" => {
                args.queries = value("--queries")?
                    .parse()
                    .map_err(|e| format!("--queries: {e}"))?
            }
            "--min-scaling" => {
                args.min_scaling = Some(
                    value("--min-scaling")?
                        .parse()
                        .map_err(|e| format!("--min-scaling: {e}"))?,
                )
            }
            "--at-sessions" => {
                args.at_sessions = value("--at-sessions")?
                    .parse()
                    .map_err(|e| format!("--at-sessions: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: fig_session_throughput [--sf F] [--budget-pages N] \
                            [--sessions 1,2,4] [--queries N] [--min-scaling X] \
                            [--at-sessions N]"
                    .into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.min_scaling.is_some() && !args.sessions.contains(&args.at_sessions) {
        return Err(format!(
            "--min-scaling gates at {} sessions, but --sessions does not include {}",
            args.at_sessions, args.at_sessions
        ));
    }
    Ok(Args {
        queries: args.queries.max(1),
        ..args
    })
}

/// Run `queries` battery queries on each of `sessions` concurrent sessions
/// of `server`; returns the wall time of the whole burst and every
/// result's rows keyed by battery index, for the divergence check.
fn run_burst(
    server: &Server,
    sessions: usize,
    queries: usize,
) -> (Duration, Vec<(usize, Vec<Row>)>) {
    let battery = hique_tpch::queries::all_queries();
    let start = Instant::now();
    let outputs: Vec<Vec<(usize, Vec<Row>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|t| {
                let battery = &battery;
                scope.spawn(move || {
                    let mut session = server.session();
                    let mut out = Vec::with_capacity(queries);
                    for q in 0..queries {
                        // Offset by the thread index so sessions are not in
                        // lock-step on the same query shape.
                        let idx = (t + q) % battery.len();
                        let (name, sql) = battery[idx];
                        let result = session
                            .execute(sql)
                            .unwrap_or_else(|e| panic!("session {t}: {name} failed: {e}"));
                        assert_eq!(
                            result.stats.spill_claim_denied, 0,
                            "session {t}: {name} queued for a spill claim"
                        );
                        out.push((idx, result.rows));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (start.elapsed(), outputs.into_iter().flatten().collect())
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
    let max_sessions = args.sessions.iter().copied().max().unwrap_or(1);

    let mut catalog = hique_tpch::generate_into_catalog(args.sf).expect("fixture");
    if args.budget_pages > 0 {
        catalog.spill_to_disk(args.budget_pages).expect("spill");
    }
    let server = Server::new(
        catalog,
        ServerConfig {
            max_sessions,
            threads: 1,
            memory_budget_pages: 0,
            plan_cache_capacity: 64,
        },
    )
    .expect("server");

    // Warm the plan cache: pay each shape's Table III preparation once,
    // outside every timed region, and record the baseline answers.
    let battery = hique_tpch::queries::all_queries();
    let mut session = server.session();
    let baseline: Vec<Vec<Row>> = battery
        .iter()
        .map(|(name, sql)| {
            session
                .execute(sql)
                .unwrap_or_else(|e| panic!("warmup {name} failed: {e}"))
                .rows
        })
        .collect();
    assert_eq!(server.cache_stats().misses as usize, battery.len());

    println!(
        "session throughput at SF {} ({}-page pool, battery: {}), {} queries/session, \
         {cores} cores",
        args.sf,
        args.budget_pages,
        battery
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("/"),
        args.queries
    );
    println!(
        "{:<10} {:>12} {:>14} {:>10}",
        "sessions", "total (ms)", "queries/sec", "scaling"
    );

    let mut base_qps = 0.0f64;
    let mut gate_failure: Option<String> = None;
    for &sessions in &args.sessions {
        let (elapsed, outputs) = run_burst(&server, sessions, args.queries);
        for (idx, rows) in &outputs {
            assert_eq!(
                rows, &baseline[*idx],
                "{} diverged from the single-session baseline at {sessions} sessions",
                battery[*idx].0
            );
        }
        let total = (sessions * args.queries) as f64;
        let qps = total / elapsed.as_secs_f64().max(1e-9);
        if sessions == 1 {
            base_qps = qps;
        }
        let scaling = qps / base_qps.max(1e-9);
        println!(
            "{sessions:<10} {:>12.2} {qps:>14.1} {scaling:>9.2}x",
            elapsed.as_secs_f64() * 1000.0
        );
        if let Some(min) = args.min_scaling {
            if sessions == args.at_sessions && scaling < min {
                gate_failure = Some(format!(
                    "{scaling:.2}x aggregate throughput at {sessions} sessions < {min}x"
                ));
            }
        }
    }

    let stats = server.cache_stats();
    println!(
        "plan cache: {} hits / {} misses over {} queries served",
        stats.hits,
        stats.misses,
        server.queries_served()
    );
    // Every post-warmup execution must have come from the cache: the sweep
    // measures execution concurrency, not repeated preparation.
    assert_eq!(
        stats.misses as usize,
        battery.len(),
        "sweep re-prepared shapes the warmup already cached"
    );

    if let Some(min) = args.min_scaling {
        if cores < args.at_sessions {
            println!(
                "scaling gate skipped: machine has {cores} cores, gate needs {} sessions",
                args.at_sessions
            );
        } else if let Some(failure) = gate_failure {
            eprintln!("scaling gate FAILED: {failure}");
            std::process::exit(1);
        } else {
            println!(
                "scaling gate passed: >= {min}x at {} sessions",
                args.at_sessions
            );
        }
    }
}
