//! The closed-loop load generator: each lane sends its next statement only
//! after the previous reply's `.` terminator arrived.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::client::{Client, Reply};
use crate::process::ServerProcess;
use crate::stream::{canonical_order, Kind, Stmt, Workload};

/// One statement sent and its outcome.
#[derive(Debug)]
pub struct Sample {
    /// Position of the statement in the workload's canonical order
    /// (round-robin over lanes), which matches samples across passes.
    pub key: usize,
    pub client: usize,
    pub kind: Kind,
    pub sql: String,
    /// Client-side time from the request write to the `.` terminator.
    pub latency_ms: f64,
    /// When the request was written.
    pub sent: Instant,
    pub reply: Result<Reply, String>,
}

/// A lane to drive: the connections it needs and its keyed statements.
pub struct LaneSpec {
    pub clients: Vec<usize>,
    pub stmts: Box<dyn Iterator<Item = (usize, Stmt)> + Send>,
}

pub enum Stop {
    /// Send no statement after this long.
    After(Duration),
    /// Send every statement of the lanes.
    Exhausted,
}

pub struct Run {
    pub samples: Vec<Sample>,
    /// From the common start to the last reply.
    pub elapsed_s: f64,
}

/// The workload's lanes, each keyed by canonical position; `per_lane`
/// bounds them for a fixed-length replay.
pub fn workload_lanes(workload: Workload, seed: u64, per_lane: Option<usize>) -> Vec<LaneSpec> {
    let lanes = workload.lanes(seed);
    let n = lanes.len();
    lanes
        .into_iter()
        .enumerate()
        .map(|(l, lane)| {
            let clients = if workload.concurrent() {
                vec![l]
            } else {
                vec![0, 1]
            };
            let keyed = lane.enumerate().map(move |(i, s)| (i * n + l, s));
            let stmts: Box<dyn Iterator<Item = (usize, Stmt)> + Send> = match per_lane {
                Some(k) => Box::new(keyed.take(k)),
                None => Box::new(keyed),
            };
            LaneSpec { clients, stmts }
        })
        .collect()
}

/// The first `per_lane` statements of every lane as one lane in canonical
/// order, for a replay with one statement outstanding in total.
pub fn solo_lane(workload: Workload, seed: u64, per_lane: usize) -> LaneSpec {
    LaneSpec {
        clients: vec![0, 1],
        stmts: Box::new(
            canonical_order(workload, seed, per_lane)
                .into_iter()
                .enumerate(),
        ),
    }
}

/// Send `stmts` once, one at a time, before anything is timed.  They are
/// keyed after every lane position.
pub fn warmup(server: &ServerProcess, stmts: Vec<Stmt>) -> Result<Vec<Sample>, String> {
    if stmts.is_empty() {
        return Ok(Vec::new());
    }
    let lane = LaneSpec {
        clients: vec![0, 1],
        stmts: Box::new(
            stmts
                .into_iter()
                .enumerate()
                .map(|(i, s)| (usize::MAX - i, s)),
        ),
    };
    Ok(run(server, vec![lane], Stop::Exhausted)?.samples)
}

/// Drive `lanes` concurrently, one thread each, all starting together.
pub fn run(server: &ServerProcess, lanes: Vec<LaneSpec>, stop: Stop) -> Result<Run, String> {
    let barrier = Barrier::new(lanes.len());
    let results: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                let barrier = &barrier;
                let stop = &stop;
                scope.spawn(move || drive_lane(server, lane, barrier, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    });
    let mut start: Option<Instant> = None;
    let mut lanes = Vec::new();
    for result in results {
        let (lane_start, samples) = result?;
        start = Some(start.map_or(lane_start, |s| s.min(lane_start)));
        lanes.push(samples);
    }
    let start = start.expect("at least one lane");
    let mut end = start;
    let mut samples = Vec::new();
    for sample in lanes.into_iter().flatten() {
        end = end.max(sample.sent + Duration::from_secs_f64(sample.latency_ms / 1e3));
        samples.push(sample);
    }
    samples.sort_by_key(|s| s.key);
    Ok(Run {
        samples,
        elapsed_s: (end - start).as_secs_f64(),
    })
}

type LaneResult = Result<(Instant, Vec<Sample>), String>;

fn drive_lane(
    server: &ServerProcess,
    lane: LaneSpec,
    barrier: &Barrier,
    stop: &Stop,
) -> LaneResult {
    let mut conns: Vec<Option<Client>> = vec![None, None];
    let opened: Result<(), String> = lane.clients.iter().try_for_each(|&c| {
        conns[c] = Some(server.connect(c)?);
        Ok(())
    });
    // Every lane reaches the barrier, even one that failed to connect.
    barrier.wait();
    opened?;
    let start = Instant::now();
    let mut out = Vec::new();
    for (key, stmt) in lane.stmts {
        if let Stop::After(limit) = stop {
            if start.elapsed() >= *limit {
                break;
            }
        }
        let conn = conns[stmt.client]
            .as_mut()
            .expect("lane opened every client it uses");
        let sent = Instant::now();
        let reply = conn.request(&stmt.sql).map_err(|e| e.to_string());
        let done = Instant::now();
        let broken = reply.is_err();
        out.push(Sample {
            key,
            client: stmt.client,
            kind: stmt.kind,
            sql: stmt.sql,
            latency_ms: (done - sent).as_secs_f64() * 1e3,
            sent,
            reply,
        });
        if broken {
            break;
        }
    }
    for conn in conns.iter_mut().flatten() {
        let _ = conn.request(".quit");
    }
    Ok((start, out))
}
