//! Experiment V2 — interpreter tiers vs the holistic kernels.
//!
//! The paper's thesis is that per-tuple interpretation overhead dominates
//! execution; PR 8's row-at-a-time bytecode VM gave 5–30% back against the
//! generated kernels.  This sweep measures what the vectorized tier (batch
//! dispatch + superinstruction fusion, DESIGN.md §15) recovers: TPC-H Q1
//! and Q3, holistic vs scalar-vm vs vectorized-vm, with the batch counters
//! proving the fast tier actually ran.
//!
//! ```bash
//! cargo run --release -p hique-bench --bin fig_vm_tiers -- --sf 0.1
//! # CI gate (only enforced when the machine has >= --min-cores cores):
//! cargo run --release -p hique-bench --bin fig_vm_tiers -- \
//!     --sf 0.1 --min-vec-speedup 1.15
//! # Local acceptance check: vectorized vm within 5% of holistic:
//! cargo run --release -p hique-bench --bin fig_vm_tiers -- \
//!     --sf 0.1 --max-holistic-gap 0.05
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use hique_holistic::ExecOptions;
use hique_par::available_threads;
use hique_plan::{plan_sql, PlannerConfig};
use hique_storage::Catalog;
use hique_vm::Tier;

struct Args {
    sf: f64,
    repeats: usize,
    min_vec_speedup: Option<f64>,
    max_holistic_gap: Option<f64>,
    min_cores: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sf: 0.1,
        repeats: 3,
        min_vec_speedup: None,
        max_holistic_gap: None,
        min_cores: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sf" => args.sf = value("--sf")?.parse().map_err(|e| format!("--sf: {e}"))?,
            "--repeats" => {
                args.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?
            }
            "--min-vec-speedup" => {
                args.min_vec_speedup = Some(
                    value("--min-vec-speedup")?
                        .parse()
                        .map_err(|e| format!("--min-vec-speedup: {e}"))?,
                )
            }
            "--max-holistic-gap" => {
                args.max_holistic_gap = Some(
                    value("--max-holistic-gap")?
                        .parse()
                        .map_err(|e| format!("--max-holistic-gap: {e}"))?,
                )
            }
            "--min-cores" => {
                args.min_cores = value("--min-cores")?
                    .parse()
                    .map_err(|e| format!("--min-cores: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: fig_vm_tiers [--sf F] [--repeats N] \
                            [--min-vec-speedup X] [--max-holistic-gap G] [--min-cores N]"
                    .into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        repeats: args.repeats.max(1),
        ..args
    })
}

/// Best-of-`repeats` execution milliseconds for one query on one engine
/// (`tier: None` = holistic kernels, `Some(t)` = bytecode VM on tier `t`),
/// plus the run's batch/fusion counters and output row count.  Planning,
/// code generation and bytecode compilation stay outside the timed region.
fn measure(
    sql: &str,
    catalog: &Catalog,
    config: &PlannerConfig,
    repeats: usize,
    tier: Option<Tier>,
) -> (f64, u64, u64, u64) {
    let plan = plan_sql(sql, catalog, config).expect("plan");
    let generated = hique_holistic::generate(&plan).expect("generate");
    let program = tier.map(|_| {
        hique_vm::compile(&generated, catalog, hique_vm::CompileMode::Specialized).expect("compile")
    });
    let options = ExecOptions {
        collect_rows: false,
        ..ExecOptions::default()
    };
    let mut best = f64::INFINITY;
    let mut counters = (0, 0, 0);
    for _ in 0..repeats {
        let t = Instant::now();
        let result = match (&program, tier) {
            (Some(program), Some(tier)) => program
                .execute_with_tier(&generated, catalog, &options, tier)
                .expect("execute"),
            _ => generated.execute_with(catalog, &options).expect("execute"),
        };
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
        counters = (
            result.stats.vm_batches,
            result.stats.vm_fused_ops,
            result.stats.rows_out.max(result.num_rows() as u64),
        );
    }
    (best, counters.0, counters.1, counters.2)
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
    let catalog = hique_tpch::generate_into_catalog(args.sf).expect("catalog");
    let config = PlannerConfig::default();
    println!(
        "vm tiers at SF {}, {} repeats, {cores} cores",
        args.sf, args.repeats
    );
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>9} {:>9} {:>10} {:>10}",
        "query",
        "holistic (ms)",
        "vm-scalar",
        "vm-vec",
        "vec-spdup",
        "vs-holst",
        "batches",
        "fused"
    );

    let mut gate_failures: Vec<String> = Vec::new();
    for (name, sql) in [
        ("Q1", hique_tpch::queries::Q1_SQL),
        ("Q3", hique_tpch::queries::Q3_SQL),
    ] {
        let (holistic, _, _, rows_h) = measure(sql, &catalog, &config, args.repeats, None);
        let (scalar, sb, _, rows_s) =
            measure(sql, &catalog, &config, args.repeats, Some(Tier::Scalar));
        let (vec, vb, vf, rows_v) =
            measure(sql, &catalog, &config, args.repeats, Some(Tier::Vectorized));
        assert_eq!(
            (rows_s, rows_v),
            (rows_h, rows_h),
            "{name}: row counts diverge"
        );
        assert_eq!(sb, 0, "{name}: scalar tier reported batches");
        assert!(vb > 0, "{name}: vectorized tier ran zero batches");
        let speedup = scalar / vec.max(1e-9);
        // > 1.0 means the vectorized vm is slower than holistic by that
        // fraction; negative gap means it won.
        let gap = vec / holistic.max(1e-9) - 1.0;
        println!(
            "{name:<6} {holistic:>14.2} {scalar:>14.2} {vec:>14.2} {speedup:>8.2}x {:>8.1}% {vb:>10} {vf:>10}",
            gap * 100.0
        );
        if let Some(min) = args.min_vec_speedup {
            if name == "Q1" && speedup < min {
                gate_failures.push(format!(
                    "{name}: vectorized {speedup:.2}x over scalar < {min}x"
                ));
            }
        }
        if let Some(max_gap) = args.max_holistic_gap {
            if gap > max_gap {
                gate_failures.push(format!(
                    "{name}: vectorized vm {:.1}% behind holistic > {:.1}%",
                    gap * 100.0,
                    max_gap * 100.0
                ));
            }
        }
    }

    if args.min_vec_speedup.is_some() || args.max_holistic_gap.is_some() {
        if cores < args.min_cores {
            println!(
                "tier gate skipped: machine has {cores} cores, gate needs {}",
                args.min_cores
            );
        } else if gate_failures.is_empty() {
            println!("tier gate passed");
        } else {
            for failure in &gate_failures {
                eprintln!("tier gate FAILED: {failure}");
            }
            std::process::exit(1);
        }
    }
}
