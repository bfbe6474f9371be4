//! `hique-wirebench`: the wire-level benchmark for `hique-server`.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload <tpch_mem|tpch_paged|short_mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! It builds the repository's `hique-server` binary, runs it as a child
//! process on loopback TCP, drives it in a closed loop with the workload's
//! seeded statement stream, checks every answer against the DSM engine,
//! and prints a table followed by one JSON result line.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` replays a fixed prefix of
//! the same stream and reports the per-layer metrics (see README.md).

mod check;
mod client;
mod drive;
mod process;
mod report;
mod stream;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use hique_dsm::DsmDatabase;

use crate::check::Reference;
use crate::drive::{Sample, Stop};
use crate::process::ServerProcess;
use crate::report::{median, percentile, Metric};
use crate::stream::{Kind, Workload};

/// Server starts per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(stream::DEV_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Where a run builds, spills and writes its spans.
pub struct Ctx {
    /// `.wirebench/` under the checkout: spans and scratch space.
    pub out: PathBuf,
    /// Spill directory for the server and the in-process catalogs.
    pub tmp: PathBuf,
    pub server_bin: PathBuf,
}

/// The outcome of one run: what the JSON line reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "hique-wirebench: {e}\nusage: hique-wirebench --workload <tpch_mem|tpch_paged|short_mix> \
                 [--seed N] [--seconds S] [--trace 0|1]\n\
                 (develop on seed {}; check a claim on seed {})",
                stream::DEV_SEED,
                stream::CLAIM_SEED
            );
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the checkout")
        .to_path_buf();
    let out = root.join(".wirebench");
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("hique-wirebench: create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // In-process catalogs spill under the checkout too.
    std::env::set_var("TMPDIR", &tmp);
    let result = process::build_server(&root).and_then(|server_bin| {
        let ctx = Ctx {
            out,
            tmp: tmp.clone(),
            server_bin,
        };
        if args.trace {
            trace::run(&ctx, args.workload, args.seed, args.seconds)
        } else {
            run_untraced(&ctx, args.workload, args.seed, args.seconds)
        }
    });
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(outcome) => {
            let correct = outcome.failed == 0;
            println!(
                "{}",
                report::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("hique-wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Check every sample's reply; return the failures (`ERR`, broken
/// connection or wrong answer), counted per `ERR` layer in `errors`.
pub fn check_samples<'a>(
    reference: &mut Reference,
    samples: impl IntoIterator<Item = &'a Sample>,
    errors: &mut std::collections::BTreeMap<String, usize>,
) -> usize {
    let mut failed = 0;
    for sample in samples {
        let verdict = match &sample.reply {
            Err(e) => Err(format!("connection failed: {e}")),
            Ok(reply) => {
                if let Some(layer) = reply.err_layer() {
                    *errors.entry(layer.to_string()).or_default() += 1;
                }
                reference.check(&sample.sql, reply)
            }
        };
        if let Err(e) = verdict {
            if failed < 5 {
                eprintln!("wrong answer: {e}\n  statement: {}", sample.sql);
            }
            failed += 1;
        }
    }
    failed
}

fn p50_where(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> (f64, usize) {
    let values: Vec<f64> = samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.latency_ms)
        .collect();
    (median(&values).unwrap_or(f64::NAN), values.len())
}

fn run_untraced(ctx: &Ctx, workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let server = ServerProcess::spawn(&ctx.server_bin, workload, &ctx.tmp)?;
        setups.push(server.setup_s);
        server.shutdown()?;
    }
    let server = ServerProcess::spawn(&ctx.server_bin, workload, &ctx.tmp)?;
    setups.push(server.setup_s);
    let warm = drive::warmup(&server, workload.warmup(seed))?;
    let run = drive::run(
        &server,
        drive::workload_lanes(workload, seed, None),
        Stop::After(Duration::from_secs(seconds)),
    )?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.shutdown()?;

    // Answers are checked after the server is gone, outside the timed run.
    let catalog =
        hique_tpch::generate_into_catalog(workload.sf()).map_err(|e| format!("fixture: {e}"))?;
    let dsm = DsmDatabase::from_catalog(&catalog).map_err(|e| format!("dsm: {e}"))?;
    let mut reference = Reference::new(&catalog, &dsm);
    let mut errors = Default::default();
    let failed = check_samples(&mut reference, warm.iter().chain(&run.samples), &mut errors);
    let attempted = warm.len() + run.samples.len();

    let samples = &run.samples;
    let n = samples.len();
    if n == 0 {
        return Err("no statement completed".into());
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let pct = |p| percentile(&latencies, p).expect("samples exist");
    let (holistic, n_holistic) = p50_where(samples, |s| s.client == 0);
    let (vm, n_vm) = p50_where(samples, |s| s.client == 1);
    // The JSON line carries what every workload reports and what stays
    // steady from seed to seed; the rest is printed in the table.
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&setups).expect("setups ran"),
            setups.len(),
        ),
        Metric::new("qps", "1/s", n as f64 / run.elapsed_s, n),
        Metric::new("latency_p50_ms", "ms", pct(50.0), n),
        Metric::new("latency_p90_ms", "ms", pct(90.0), n),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb, 1),
    ];
    let mut extra = vec![
        Metric::new("latency_p95_ms", "ms", pct(95.0), n),
        Metric::new("holistic_p50_ms", "ms", holistic, n_holistic),
        Metric::new("vm_p50_ms", "ms", vm, n_vm),
    ];
    let kinds: &[Kind] = if workload == Workload::ShortMix {
        &[Kind::Exact, Kind::Template, Kind::Miss]
    } else {
        &[Kind::Q1, Kind::Q3, Kind::Q10]
    };
    extra.extend(kinds.iter().map(|&k| {
        let (p50, count) = p50_where(samples, |s| s.kind == k);
        Metric::new(format!("{}_p50_ms", k.name()), "ms", p50, count)
    }));
    extra.push(Metric::new(
        "error_rate",
        "ratio",
        failed as f64 / attempted as f64,
        attempted,
    ));
    report::print_table(
        &format!(
            "{} seed {seed}: {n} statements in {:.2} s ({} warm-up), closed loop",
            workload.name(),
            run.elapsed_s,
            warm.len()
        ),
        &metrics,
    );
    report::print_table("  table only:", &extra);
    for (layer, count) in &errors {
        println!("  server.errors.{layer:<24} {count}");
    }
    if metrics
        .iter()
        .any(|m| !m.value.is_finite() || m.value <= 0.0)
    {
        return Err(format!("a metric could not be measured: {metrics:?}"));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
