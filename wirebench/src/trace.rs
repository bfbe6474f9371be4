//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer.
//!
//! It replays a fixed prefix of the workload's stream three times:
//!
//! 1. **concurrent pass** — against a fresh server, with the workload's own
//!    lanes (the untraced run's concurrency);
//! 2. **solo pass** — against another fresh server, the same statements in
//!    canonical order with one statement outstanding in total;
//! 3. **replica** — in this process, on a `Server` built with the binary's
//!    configuration over the same fixture, in the solo pass's order, so its
//!    plan cache meets the same outcomes.  Each statement is prepared with
//!    `Session::prepare` and executed on its connection's engine exactly as
//!    `Session::execute_on` does; for cache misses and template hits the
//!    front-end steps are re-run one by one to time them.
//!
//! Per statement: wire residual = solo round trip − replica (prepare +
//! execution); queueing = concurrent round trip − solo round trip.  Spans
//! are kept in memory and written to `.wirebench/spans-<workload>-<seed>.jsonl`
//! at the end.
//!
//! Where the fixture is paged, the `storage.*` counters come from a fourth
//! replay instead: the workload's own lanes on two sessions of a fresh
//! replica, one thread each, so they share the pool as the server's two
//! clients do.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hique_dsm::DsmDatabase;
use hique_holistic::ExecOptions;
use hique_plan::{plan_query, CatalogProvider, PlannerConfig};
use hique_server::{Engine, Server, Session};
use hique_storage::{BufferPool, Catalog, DiskManager};
use hique_types::{CancelToken, ExecStats, HiqueError};
use hique_vm::{CompileMode, VmProgram};

use crate::check::{self, Reference};
use crate::drive::{self, Sample, Stop};
use crate::process::ServerProcess;
use crate::report::{self, mean, median, percentile, Metric};
use crate::stream::{canonical_order, Stmt, Workload, CLIENT_ENGINES};
use crate::{check_samples, Ctx, Outcome};

/// Scale factor of the `TableHeap::page_guard` probe's `lineitem`: large
/// enough to overflow the largest probed pool.
const PROBE_SF: f64 = 0.04;
const PROBE_POOLS: [usize; 3] = [256, 1024, 4096];
const PROBE_SWEEPS: usize = 3;
/// Repeats per thread count for `par.speedup_2t`.
const PAR_REPEATS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheOutcome {
    Exact,
    Template,
    Miss,
}

impl CacheOutcome {
    const ALL: [CacheOutcome; 3] = [
        CacheOutcome::Exact,
        CacheOutcome::Template,
        CacheOutcome::Miss,
    ];

    fn name(self) -> &'static str {
        match self {
            CacheOutcome::Exact => "exact",
            CacheOutcome::Template => "template",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// One recorded span.  `trace` is the statement's canonical position.
struct Span {
    trace: usize,
    id: usize,
    parent: Option<usize>,
    name: String,
    start: Instant,
    end: Instant,
}

#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    fn add(
        &mut self,
        trace: usize,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        len: Duration,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start,
            end: start + len,
        });
        id
    }

    fn write(&self, path: &std::path::Path, epoch: Instant) -> Result<(), String> {
        let mut out = String::new();
        let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\": {}, \"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.trace,
                s.id,
                s.name,
                us(s.start),
                us(s.end)
            );
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Front-end steps re-run for a miss or template hit, in order: layer,
/// start and duration.
type FrontEnd = Vec<(&'static str, Instant, Duration)>;

/// What the replica did for one statement.
struct Step {
    outcome: CacheOutcome,
    prepare: (Instant, Duration),
    front: FrontEnd,
    /// Verifier time inside `vm.compile` and `vm.bind`.
    verify: Duration,
    /// `"core"` or `"vm"`: the engine that executed.
    engine: &'static str,
    exec: (Instant, Duration),
    phases: Vec<(String, Duration)>,
    stats: ExecStats,
}

impl Step {
    fn server_ms(&self) -> f64 {
        (self.prepare.1 + self.exec.1).as_secs_f64() * 1e3
    }
}

struct Replica {
    server: Server,
    session: Session,
    /// The timed `DsmDatabase::from_catalog` copy; the answer reference.
    dsm: DsmDatabase,
    planner: PlannerConfig,
    setup: Vec<Metric>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn herr(what: &str) -> impl Fn(HiqueError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Replica {
    fn build(workload: Workload) -> Result<Replica, String> {
        let t = Instant::now();
        let mut catalog =
            hique_tpch::generate_into_catalog(workload.sf()).map_err(herr("fixture"))?;
        let mut setup = vec![Metric::new("tpch.generate_s", "s", secs(t), 1)];
        if workload.budget_pages() > 0 {
            let t = Instant::now();
            catalog
                .spill_to_disk(workload.budget_pages())
                .map_err(herr("spill_to_disk"))?;
            setup.push(Metric::new("storage.spill_to_disk_s", "s", secs(t), 1));
        }
        let t = Instant::now();
        let dsm = DsmDatabase::from_catalog(&catalog).map_err(herr("dsm"))?;
        setup.push(Metric::new("dsm.from_catalog_s", "s", secs(t), 1));
        let config = workload.server_config();
        let budget = catalog.buffer_pool().map_or(0, |p| p.capacity());
        let planner = PlannerConfig::default()
            .with_threads(config.threads)
            .with_memory_budget_pages(budget);
        let t = Instant::now();
        let server = Server::new(catalog, config).map_err(herr("Server::new"))?;
        setup.push(Metric::new("server.new_s", "s", secs(t), 1));
        Ok(Replica {
            session: server.session(),
            server,
            dsm,
            planner,
            setup,
        })
    }

    fn catalog(&self) -> &Catalog {
        self.server.catalog()
    }

    fn step(&mut self, stmt: &Stmt) -> Result<Step, String> {
        let before = self.server.cache_stats();
        let t = Instant::now();
        let (prepared, _) = self.session.prepare(&stmt.sql).map_err(herr("prepare"))?;
        let prepare = (t, t.elapsed());
        let after = self.server.cache_stats();
        let outcome = if after.misses > before.misses {
            CacheOutcome::Miss
        } else if after.template_hits > before.template_hits {
            CacheOutcome::Template
        } else {
            CacheOutcome::Exact
        };
        let (front, verify) = match outcome {
            CacheOutcome::Exact => (Vec::new(), Duration::ZERO),
            CacheOutcome::Template => self.front_end(&stmt.sql, prepared.vm_template.as_ref())?,
            CacheOutcome::Miss => self.front_end(&stmt.sql, None)?,
        };

        let options = ExecOptions {
            cancel: CancelToken::new(),
            ..ExecOptions::default()
        };
        let catalog = self.server.catalog();
        let t = Instant::now();
        // The server's dispatch: bytecode when the plan lowered, else (or on
        // `Unsupported`) the holistic kernels it was rendered from.
        let (engine, result) = match (stmt.client, prepared.vm.as_ref()) {
            (1, Some(program)) => match program.execute(&prepared.generated, catalog, &options) {
                Err(HiqueError::Unsupported(_)) => {
                    ("core", prepared.generated.execute_with(catalog, &options))
                }
                other => ("vm", other),
            },
            _ => ("core", prepared.generated.execute_with(catalog, &options)),
        };
        let exec = (t, t.elapsed());
        let result = result.map_err(herr("execute"))?;
        Ok(Step {
            outcome,
            prepare,
            front,
            verify,
            engine,
            exec,
            phases: result.timings.phases().to_vec(),
            stats: result.stats,
        })
    }

    /// Re-run the preparation steps the server paid for this outcome, one
    /// call per layer, mirroring `Session::prepare`.
    fn front_end(
        &self,
        sql: &str,
        template: Option<&Arc<VmProgram>>,
    ) -> Result<(FrontEnd, Duration), String> {
        let catalog = self.catalog();
        let mut front = Vec::new();
        let mut timed = |name, t: Instant| front.push((name, t, t.elapsed()));
        let t = Instant::now();
        let query = hique_sql::parse_query(sql).map_err(herr("parse"))?;
        timed("sql.parse", t);
        let t = Instant::now();
        let bound =
            hique_sql::analyze(&query, &CatalogProvider::new(catalog)).map_err(herr("analyze"))?;
        timed("sql.analyze", t);
        let t = Instant::now();
        let plan = plan_query(&bound, catalog, &self.planner).map_err(herr("plan"))?;
        timed("plan.plan", t);
        let t = Instant::now();
        let generated = hique_holistic::generate(&plan).map_err(herr("generate"))?;
        timed("core.generate", t);
        let mut verify = Duration::ZERO;
        if let Some(template) = template {
            let t = Instant::now();
            if let Ok(vm) = template.bind(&generated, catalog) {
                timed("vm.bind", t);
                verify += vm.verify_cost();
                return Ok((front, verify));
            }
        }
        let t = Instant::now();
        if let Ok(pooled) = hique_vm::compile(&generated, catalog, CompileMode::Pooled) {
            timed("vm.compile", t);
            verify += pooled.verify_cost();
            let t = Instant::now();
            if let Ok(vm) = pooled.bind(&generated, catalog) {
                timed("vm.bind", t);
                verify += vm.verify_cost();
            }
        }
        Ok((front, verify))
    }
}

/// `Σ t(threads 1) / Σ t(threads 2)` for the holistic engine over the first
/// statement of each kind, medians of [`PAR_REPEATS`] interleaved runs.
fn par_speedup(replica: &Replica, stmts: &[Stmt]) -> Result<(f64, usize), String> {
    let mut firsts: Vec<&Stmt> = Vec::new();
    for s in stmts {
        if !firsts.iter().any(|f| f.kind == s.kind) {
            firsts.push(s);
        }
    }
    let catalog = replica.catalog();
    let (mut one, mut two) = (0.0, 0.0);
    for stmt in &firsts {
        let mut generated = Vec::new();
        for threads in [1, 2] {
            let planner = replica.planner.clone().with_threads(threads);
            let plan = check::plan(&stmt.sql, catalog, &planner)?;
            generated.push(hique_holistic::generate(&plan).map_err(herr("generate"))?);
        }
        let mut times = [Vec::new(), Vec::new()];
        for _ in 0..PAR_REPEATS {
            for (g, out) in generated.iter().zip(&mut times) {
                let t = Instant::now();
                std::hint::black_box(g.execute(catalog).map_err(herr("execute"))?);
                out.push(t.elapsed().as_secs_f64());
            }
        }
        one += median(&times[0]).expect("repeats ran");
        two += median(&times[1]).expect("repeats ran");
    }
    Ok((one / two, firsts.len()))
}

/// Summed `ExecStats` of the workload's lanes run concurrently on a fresh
/// replica, one session and thread per lane, each statement executed with
/// `Session::execute_on` on its connection's engine.  The pool I/O depends
/// on how the lanes interleave, so it varies from run to run.
///
/// A statement's `ExecStats.io` is the pool-wide counter delta over its
/// execution, so under concurrency it includes the other session's I/O
/// and a sum would count that twice.  `io` is the pool's delta over the
/// whole replay instead.
fn concurrent_replay(workload: Workload, seed: u64, per_lane: usize) -> Result<ExecStats, String> {
    let replica = Replica::build(workload)?;
    let server = &replica.server;
    let base = replica.catalog().pool_stats();
    let mut stats: ExecStats = std::thread::scope(|scope| {
        let lanes: Vec<_> = workload
            .lanes(seed)
            .into_iter()
            .map(|lane| {
                scope.spawn(move || {
                    let mut session = server.session();
                    let mut stats = ExecStats::default();
                    for stmt in lane.take(per_lane) {
                        let engine =
                            Engine::parse(CLIENT_ENGINES[stmt.client]).map_err(herr("engine"))?;
                        stats += session
                            .execute_on(&stmt.sql, engine)
                            .map_err(herr("execute"))?
                            .stats;
                    }
                    Ok(stats)
                })
            })
            .collect();
        lanes
            .into_iter()
            .map(|lane| lane.join().expect("replay thread panicked"))
            .sum::<Result<ExecStats, String>>()
    })?;
    stats.io = replica.catalog().pool_stats().since(&base);
    Ok(stats)
}

/// Time per `TableHeap::page_guard` call over sequential sweeps of a paged
/// `lineitem`, per pool size, in µs.
fn page_guard_probe(ctx: &Ctx) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();
    for capacity in PROBE_POOLS {
        let mut generator = hique_tpch::TpchGenerator::new(PROBE_SF);
        let (_, mut lineitem) = generator.orders_and_lineitems().map_err(herr("probe"))?;
        let pool = Arc::new(BufferPool::new(capacity).map_err(herr("probe pool"))?);
        let path = ctx.tmp.join(format!("probe-{capacity}.tbl"));
        let disk = Arc::new(DiskManager::open(&path).map_err(herr("probe file"))?);
        lineitem
            .spill_to_disk(&pool, disk)
            .map_err(herr("probe spill"))?;
        let pages = lineitem.num_pages();
        if pages <= capacity {
            return Err(format!("probe lineitem has {pages} pages, pool {capacity}"));
        }
        let mut sweeps = Vec::new();
        for _ in 0..PROBE_SWEEPS {
            let t = Instant::now();
            for p in 0..pages {
                std::hint::black_box(lineitem.page_guard(p).map_err(herr("page_guard"))?);
            }
            sweeps.push(t.elapsed().as_secs_f64() * 1e6 / pages as f64);
        }
        drop(lineitem);
        let _ = std::fs::remove_file(&path);
        metrics.push(Metric::new(
            format!("storage.page_guard_{capacity}_us"),
            "us",
            median(&sweeps).expect("sweeps ran"),
            PROBE_SWEEPS * pages,
        ));
    }
    Ok(metrics)
}

fn by_key(samples: &[Sample]) -> BTreeMap<usize, &Sample> {
    samples.iter().map(|s| (s.key, s)).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn run(ctx: &Ctx, workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let per_lane = workload.traced_len(seconds);
    let epoch = Instant::now();

    let server = ServerProcess::spawn(&ctx.server_bin, workload, &ctx.tmp)?;
    let warm_a = drive::warmup(&server, workload.warmup(seed))?;
    let pass_a = drive::run(
        &server,
        drive::workload_lanes(workload, seed, Some(per_lane)),
        Stop::Exhausted,
    )?;
    server.shutdown()?;

    let server = ServerProcess::spawn(&ctx.server_bin, workload, &ctx.tmp)?;
    let warm_b = drive::warmup(&server, workload.warmup(seed))?;
    let pass_b = drive::run(
        &server,
        vec![drive::solo_lane(workload, seed, per_lane)],
        Stop::Exhausted,
    )?;
    server.shutdown()?;

    let mut replica = Replica::build(workload)?;
    for stmt in workload.warmup(seed) {
        replica.step(&stmt)?;
    }
    let order = canonical_order(workload, seed, per_lane);
    let steps = order
        .iter()
        .map(|stmt| replica.step(stmt))
        .collect::<Result<Vec<Step>, String>>()?;
    let (speedup, par_stmts) = par_speedup(&replica, &order)?;
    let probe = page_guard_probe(ctx)?;

    let mut errors = BTreeMap::new();
    let mut reference = Reference::new(replica.catalog(), &replica.dsm);
    let all = || {
        warm_a
            .iter()
            .chain(&pass_a.samples)
            .chain(&warm_b)
            .chain(&pass_b.samples)
    };
    let failed = check_samples(&mut reference, all(), &mut errors);
    let attempted = all().count();
    drop(reference);
    let setup = std::mem::take(&mut replica.setup);
    drop(replica);

    // Serial replay counters repeat exactly; the pool's, where there is
    // one, are taken from the concurrent replay.
    let serial: ExecStats = steps.iter().map(|s| s.stats).sum();
    let shared_pool = if workload.budget_pages() > 0 {
        Some(concurrent_replay(workload, seed, per_lane)?)
    } else {
        None
    };

    // Spans: the solo pass's round trip is each statement's root; the
    // replica's prepare and execution spans are its children.
    let mut spans = Spans::default();
    let (a, b) = (by_key(&pass_a.samples), by_key(&pass_b.samples));
    let mut residual = Vec::new();
    let mut wait = Vec::new();
    for (key, step) in steps.iter().enumerate() {
        let solo = b.get(&key).ok_or("solo pass missed a statement")?;
        let concurrent = a.get(&key).ok_or("concurrent pass missed a statement")?;
        residual.push(solo.latency_ms - step.server_ms());
        wait.push(concurrent.latency_ms - solo.latency_ms);
        spans.add(
            key,
            None,
            "client.concurrent",
            concurrent.sent,
            Duration::from_secs_f64(concurrent.latency_ms / 1e3),
        );
        let root = spans.add(
            key,
            None,
            "client.solo",
            solo.sent,
            Duration::from_secs_f64(solo.latency_ms / 1e3),
        );
        let name = format!("server.prepare.{}", step.outcome.name());
        let prepare = spans.add(key, Some(root), &name, step.prepare.0, step.prepare.1);
        for &(name, start, len) in &step.front {
            spans.add(key, Some(prepare), name, start, len);
        }
        let exec = spans.add(
            key,
            Some(root),
            &format!("{}.exec", step.engine),
            step.exec.0,
            step.exec.1,
        );
        // PhaseTimings carry durations only: lay them end to end.
        let mut at = step.exec.0;
        for (phase, len) in &step.phases {
            spans.add(
                key,
                Some(exec),
                &format!("{}.{phase}", step.engine),
                at,
                *len,
            );
            at += *len;
        }
    }
    let path = ctx
        .out
        .join(format!("spans-{}-{seed}.jsonl", workload.name()));
    spans.write(&path, epoch)?;

    let mut metrics = layer_metrics(
        &steps,
        &pass_a.samples,
        &pass_b.samples,
        &residual,
        &wait,
        &errors,
    );
    metrics.extend(storage_metrics(
        "storage",
        shared_pool.as_ref().unwrap_or(&serial),
        steps.len(),
    ));
    metrics.push(Metric::new("par.speedup_2t", "ratio", speedup, par_stmts));
    metrics.extend(probe);
    let (spill, setup): (Vec<Metric>, Vec<Metric>) = setup
        .into_iter()
        .partition(|m| m.name == "storage.spill_to_disk_s");
    metrics.extend(setup);

    print_reconciliation(
        workload,
        seed,
        &steps,
        &residual,
        &pass_a.samples,
        &pass_b.samples,
    );
    report::print_table("per-layer metrics:", &metrics);
    if shared_pool.is_some() {
        report::print_table(
            "paged only: setup, and the serial replay's pool I/O (repeats exactly):",
            &[spill, storage_metrics("serial", &serial, steps.len())].concat(),
        );
    }
    for (layer, count) in &errors {
        println!("  server.errors.{layer:<24} {count}");
    }
    println!("  spans written to {}", path.display());
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn layer_metrics(
    steps: &[Step],
    pass_a: &[Sample],
    pass_b: &[Sample],
    residual: &[f64],
    wait: &[f64],
    errors: &BTreeMap<String, usize>,
) -> Vec<Metric> {
    let n = steps.len();
    let mut m = Vec::new();
    let mean_or_zero = |v: &[f64]| mean(v).unwrap_or(0.0);
    let latencies: Vec<f64> = pass_a.iter().map(|s| s.latency_ms).collect();
    m.push(Metric::new(
        "trace.latency_p50_ms",
        "ms",
        percentile(&latencies, 50.0).unwrap_or(0.0),
        latencies.len(),
    ));
    m.push(Metric::new(
        "server.wire.residual_ms",
        "ms",
        mean_or_zero(residual),
        n,
    ));
    m.push(Metric::new(
        "server.wire.reply_bytes",
        "bytes",
        pass_b
            .iter()
            .filter_map(|s| s.reply.as_ref().ok())
            .map(|r| r.bytes as f64)
            .sum(),
        pass_b.len(),
    ));
    m.push(Metric::new("server.wait_ms", "ms", mean_or_zero(wait), n));
    for o in CacheOutcome::ALL {
        let count = steps.iter().filter(|s| s.outcome == o).count();
        m.push(Metric::new(
            format!("server.cache.{}_ratio", o.name()),
            "ratio",
            count as f64 / n as f64,
            n,
        ));
    }
    for o in CacheOutcome::ALL {
        let v: Vec<f64> = steps
            .iter()
            .filter(|s| s.outcome == o)
            .map(|s| us(s.prepare.1))
            .collect();
        m.push(Metric::new(
            format!("server.prepare.{}_us", o.name()),
            "us",
            mean_or_zero(&v),
            v.len(),
        ));
    }
    for layer in [
        "sql.parse",
        "sql.analyze",
        "plan.plan",
        "core.generate",
        "vm.compile",
    ] {
        let v: Vec<f64> = steps
            .iter()
            .flat_map(|s| &s.front)
            .filter(|f| f.0 == layer)
            .map(|f| us(f.2))
            .collect();
        m.push(Metric::new(
            format!("{layer}_us"),
            "us",
            mean_or_zero(&v),
            v.len(),
        ));
    }
    let verified: Vec<f64> = steps
        .iter()
        .filter(|s| s.outcome != CacheOutcome::Exact)
        .map(|s| us(s.verify))
        .collect();
    m.push(Metric::new(
        "vm.verify_us",
        "us",
        mean_or_zero(&verified),
        verified.len(),
    ));
    let binds: Vec<f64> = steps
        .iter()
        .flat_map(|s| &s.front)
        .filter(|f| f.0 == "vm.bind")
        .map(|f| us(f.2))
        .collect();
    m.push(Metric::new(
        "vm.bind_us",
        "us",
        mean_or_zero(&binds),
        binds.len(),
    ));
    for engine in ["core", "vm"] {
        let ran: Vec<&Step> = steps.iter().filter(|s| s.engine == engine).collect();
        let k = ran.len();
        let exec: Vec<f64> = ran.iter().map(|s| ms(s.exec.1)).collect();
        m.push(Metric::new(
            format!("{engine}.exec_ms"),
            "ms",
            mean_or_zero(&exec),
            k,
        ));
        for phase in ["staging", "join", "aggregation", "output"] {
            let total: Duration = ran
                .iter()
                .flat_map(|s| &s.phases)
                .filter(|(p, _)| p == phase)
                .map(|(_, d)| *d)
                .sum();
            m.push(Metric::new(
                format!("{engine}.{phase}_ms"),
                "ms",
                if k == 0 { 0.0 } else { ms(total) / k as f64 },
                k,
            ));
        }
        let stats: ExecStats = ran.iter().map(|s| s.stats).sum();
        let mut counters = vec![
            ("tuples_processed", stats.tuples_processed),
            ("hash_ops", stats.hash_ops),
            ("bytes_touched", stats.bytes_touched),
        ];
        if engine == "vm" {
            counters.push(("batches", stats.vm_batches));
            counters.push(("fused_ops", stats.vm_fused_ops));
        }
        for (name, value) in counters {
            m.push(Metric::new(
                format!("{engine}.{name}"),
                "count",
                value as f64,
                k,
            ));
        }
    }
    m.push(Metric::new(
        "server.errors",
        "count",
        errors.values().sum::<usize>() as f64,
        pass_a.len() + pass_b.len(),
    ));
    m
}

/// `<prefix>.*` pool I/O metrics from the summed `stats` of `n`
/// statements.
fn storage_metrics(prefix: &str, stats: &ExecStats, n: usize) -> Vec<Metric> {
    let io = stats.io;
    let accesses = io.pool_hits + io.pool_misses;
    let hit_ratio = if accesses == 0 {
        0.0
    } else {
        io.pool_hits as f64 / accesses as f64
    };
    let mut m = vec![Metric::new(
        format!("{prefix}.pool_hit_ratio"),
        "ratio",
        hit_ratio,
        n,
    )];
    for (name, value) in [
        ("pages_read", io.pages_read),
        ("evictions", io.pool_evictions),
        ("pages_written", io.pages_written),
        ("spilled_temporaries", stats.spilled_temporaries),
    ] {
        m.push(Metric::new(
            format!("{prefix}.{name}"),
            "count",
            value as f64,
            n,
        ));
    }
    m
}

/// Print, over the solo pass, each layer's total and self time and the
/// wire residual.  Self times and residual add up to the client total by
/// construction, so the run also counts the statements on which the
/// replica's account cannot be right: a negative residual (the replica
/// took longer than the round trip), front-end re-runs that add up to more
/// than the `prepare` they re-run, and phases that add up to more than
/// their execution span.
fn print_reconciliation(
    workload: Workload,
    seed: u64,
    steps: &[Step],
    residual: &[f64],
    pass_a: &[Sample],
    pass_b: &[Sample],
) {
    let client: f64 = pass_b.iter().map(|s| s.latency_ms).sum();
    let mut rows: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut add = |name: String, total: f64, child: f64| {
        let e = rows.entry(name).or_default();
        e.0 += total;
        e.1 += total - child;
    };
    let mut server = 0.0;
    let (mut front_over, mut phases_over) = (0, 0);
    for s in steps {
        let front: f64 = s.front.iter().map(|f| ms(f.2)).sum();
        front_over += usize::from(front > ms(s.prepare.1));
        add(
            format!("server.prepare.{}", s.outcome.name()),
            ms(s.prepare.1),
            front,
        );
        for f in &s.front {
            add(f.0.to_string(), ms(f.2), 0.0);
        }
        let phases: f64 = s.phases.iter().map(|p| ms(p.1)).sum();
        phases_over += usize::from(phases > ms(s.exec.1));
        add(format!("{}.exec", s.engine), ms(s.exec.1), phases);
        for (p, d) in &s.phases {
            add(format!("{}.{p}", s.engine), ms(*d), 0.0);
        }
        server += s.server_ms();
    }
    let concurrent: f64 = pass_a.iter().map(|s| s.latency_ms).sum();
    println!(
        "{} seed {seed}, traced: {} statements per pass; totals in ms over the solo pass",
        workload.name(),
        steps.len()
    );
    println!("  {:<28} {:>12} {:>12}", "layer", "total", "self");
    println!(
        "  {:<28} {:>12.3} {:>12.3}",
        "client.solo",
        client,
        client - server
    );
    for (name, (total, own)) in &rows {
        println!("  {name:<28} {total:>12.3} {own:>12.3}");
    }
    println!(
        "  wire residual {:.3} ms = {:.1}% of the client total; front-end rows are re-runs",
        client - server,
        100.0 * (client - server) / client
    );
    let n = steps.len();
    let negative = residual.iter().filter(|&&r| r < 0.0).count();
    println!("  statements the replica cannot account for (of {n}):");
    println!("    negative wire residual              {negative}");
    println!("    front-end re-runs exceed prepare    {front_over}");
    println!("    phases exceed their execution span  {phases_over}");
    println!(
        "  queueing: concurrent pass total {concurrent:.3} - solo pass total {client:.3} = {:.3}",
        concurrent - client
    );
}
