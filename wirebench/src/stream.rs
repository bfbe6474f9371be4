//! Workloads and their seeded statement streams.
//!
//! A stream is a pure function of `(workload, seed)`: the same pair always
//! yields the same statements in the same order, for every lane.  A *lane*
//! is what one driving thread sends, one statement outstanding at a time.
//! `tpch_mem` has one lane that alternates between two connections by
//! seeded draw; `tpch_paged` and `short_mix` have two lanes, one per
//! connection, that run concurrently.  Connection `c` is pinned to engine
//! [`CLIENT_ENGINES`]`[c]` on every workload.

use hique_server::ServerConfig;
use hique_types::value::{format_date, parse_date};

/// The seed used while developing a change.
pub const DEV_SEED: u64 = 1;
/// The seed a performance claim is checked on: one not used while the
/// change was written.
pub const CLAIM_SEED: u64 = 7_919;

/// Engine each connection is pinned to (`.engine` argument), by client
/// index.
pub const CLIENT_ENGINES: [&str; 2] = ["holistic", "vm"];

/// Plan-cache entries of the `hique-server` binary (its
/// `plan_cache_capacity`).
pub const SERVER_PLAN_CACHE: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchMem,
    TpchPaged,
    ShortMix,
}

/// What a statement is, for splitting latencies: the TPC-H query it
/// instantiates, or the plan-cache outcome the `short_mix` grammar built it
/// to meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Q1,
    Q3,
    Q10,
    Exact,
    Template,
    Miss,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Q1 => "q1",
            Kind::Q3 => "q3",
            Kind::Q10 => "q10",
            Kind::Exact => "exact",
            Kind::Template => "template",
            Kind::Miss => "miss",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Connection index (and so engine) the statement is sent on.
    pub client: usize,
    pub kind: Kind,
    pub sql: String,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TpchMem, Workload::TpchPaged, Workload::ShortMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchMem => "tpch_mem",
            Workload::TpchPaged => "tpch_paged",
            Workload::ShortMix => "short_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// TPC-H scale factor of the fixture.
    pub fn sf(self) -> f64 {
        match self {
            Workload::TpchMem => 0.1,
            Workload::TpchPaged => 0.05,
            Workload::ShortMix => 0.01,
        }
    }

    /// Buffer-pool pages (0: memory-resident).
    pub fn budget_pages(self) -> usize {
        match self {
            Workload::TpchPaged => 1024,
            _ => 0,
        }
    }

    /// Planner worker threads per query.
    pub fn threads(self) -> usize {
        match self {
            Workload::TpchMem => 2,
            _ => 1,
        }
    }

    /// Spill admission cap (`--sessions`); the binary's default elsewhere.
    pub fn sessions(self) -> usize {
        match self {
            Workload::TpchPaged => 2,
            _ => 8,
        }
    }

    /// The `hique-server` command line for this workload (without the
    /// port).
    pub fn server_args(self) -> Vec<String> {
        vec![
            "--sf".into(),
            self.sf().to_string(),
            "--budget-pages".into(),
            self.budget_pages().to_string(),
            "--threads".into(),
            self.threads().to_string(),
            "--sessions".into(),
            self.sessions().to_string(),
        ]
    }

    /// The configuration the binary builds its `Server` with for
    /// [`Workload::server_args`], for the traced run's in-process replica.
    pub fn server_config(self) -> ServerConfig {
        ServerConfig {
            max_sessions: self.sessions(),
            threads: self.threads(),
            memory_budget_pages: 0,
            plan_cache_capacity: SERVER_PLAN_CACHE,
            ..ServerConfig::default()
        }
    }

    /// Whether the lanes run concurrently (two statements can be
    /// outstanding at once).
    pub fn concurrent(self) -> bool {
        self != Workload::TpchMem
    }

    /// Statements per lane the traced run replays for a run of `seconds`.
    /// Fixed per `(workload, seconds)` so its counters repeat exactly.
    pub fn traced_len(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::TpchMem => 3,
            Workload::TpchPaged => 1,
            Workload::ShortMix => 10,
        };
        (per_second * seconds.max(1)) as usize
    }

    /// The statement lanes for `seed`.
    pub fn lanes(self, seed: u64) -> Vec<Lane> {
        match self {
            Workload::TpchMem => vec![Lane::tpch(self, seed, 0, None)],
            Workload::TpchPaged => (0..2)
                .map(|c| Lane::tpch(self, seed, c as u64, Some(c)))
                .collect(),
            Workload::ShortMix => (0..2).map(|c| Lane::short(seed, c)).collect(),
        }
    }

    /// Statements sent once, untimed, before the lanes start: the
    /// `short_mix` hot set and one instance of each template class, so that
    /// timed statements meet the cache outcome they were built for.  Empty
    /// for the TPC-H workloads, whose first instances are ordinary misses.
    pub fn warmup(self, seed: u64) -> Vec<Stmt> {
        if self != Workload::ShortMix {
            return Vec::new();
        }
        let mut rng = Rng::new(seed, self as u64, 100);
        let mut out: Vec<Stmt> = hot_set(seed)
            .into_iter()
            .enumerate()
            .map(|(i, sql)| Stmt {
                client: i % 2,
                kind: Kind::Miss,
                sql,
            })
            .collect();
        for (f, family) in FAMILIES.iter().enumerate() {
            out.push(Stmt {
                client: f % 2,
                kind: Kind::Miss,
                sql: family(&mut rng, "t"),
            });
        }
        out
    }
}

/// The order a single client would send the first `per_lane` statements
/// of every lane in: round-robin over lanes.  The traced run's solo pass
/// and its replica both replay this order.
pub fn canonical_order(workload: Workload, seed: u64, per_lane: usize) -> Vec<Stmt> {
    let lanes: Vec<Vec<Stmt>> = workload
        .lanes(seed)
        .into_iter()
        .map(|lane| lane.take(per_lane).collect())
        .collect();
    (0..per_lane)
        .flat_map(|i| lanes.iter().map(move |lane| lane[i].clone()))
        .collect()
}

/// SplitMix64: small, seedable and good enough for drawing statements.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, workload: u64, lane: u64) -> Rng {
        Rng(seed
            ^ workload.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ lane.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Cards dealt in a seeded order, reshuffled after every pass: each pass
/// deals every card once, so the mix of a stream prefix varies little from
/// seed to seed.
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// An endless, seeded statement sequence for one driving thread.
pub struct Lane {
    rng: Rng,
    source: Source,
}

enum Source {
    Tpch {
        /// `(query, connection)` pairs, so that every engine gets the same
        /// query mix.
        deck: Deck<(usize, usize)>,
    },
    Short {
        client: usize,
        kinds: Deck<Kind>,
        families: Deck<usize>,
        hot: Vec<String>,
        misses: u64,
    },
}

/// `short_mix` kinds, one of each per three statements.  No measured
/// traffic backs any other proportion, so the shares are equal by choice.
const SHORT_KINDS: [Kind; 3] = [Kind::Exact, Kind::Template, Kind::Miss];
/// Size of the `short_mix` hot set: an arbitrary choice, large enough that
/// every statement family is in it.
const HOT_SET: usize = 12;

impl Lane {
    fn tpch(workload: Workload, seed: u64, lane: u64, client: Option<usize>) -> Lane {
        Lane {
            rng: Rng::new(seed, workload as u64, lane),
            source: Source::Tpch {
                deck: Deck::new(
                    (0..3)
                        .flat_map(|q| match client {
                            Some(c) => vec![(q, c)],
                            None => vec![(q, 0), (q, 1)],
                        })
                        .collect(),
                ),
            },
        }
    }

    fn short(seed: u64, client: usize) -> Lane {
        Lane {
            rng: Rng::new(seed, Workload::ShortMix as u64, client as u64),
            source: Source::Short {
                client,
                kinds: Deck::new(SHORT_KINDS.to_vec()),
                families: Deck::new((0..FAMILIES.len()).collect()),
                hot: hot_set(seed),
                misses: 0,
            },
        }
    }
}

impl Iterator for Lane {
    type Item = Stmt;

    fn next(&mut self) -> Option<Stmt> {
        let rng = &mut self.rng;
        Some(match &mut self.source {
            Source::Tpch { deck } => {
                let (q, client) = deck.deal(rng);
                Stmt {
                    client,
                    kind: [Kind::Q1, Kind::Q3, Kind::Q10][q],
                    sql: tpch_query(q, rng),
                }
            }
            Source::Short {
                client,
                kinds,
                families,
                hot,
                misses,
            } => {
                let kind = kinds.deal(rng);
                let sql = match kind {
                    Kind::Exact => hot[rng.below(hot.len() as u64) as usize].clone(),
                    Kind::Template => FAMILIES[families.deal(rng)](rng, "t"),
                    _ => {
                        *misses += 1;
                        FAMILIES[families.deal(rng)](rng, &format!("m{client}_{misses}"))
                    }
                };
                Stmt {
                    client: *client,
                    kind,
                    sql,
                }
            }
        })
    }
}

const SEGMENTS: [&str; 5] = [
    "BUILDING",
    "AUTOMOBILE",
    "MACHINERY",
    "HOUSEHOLD",
    "FURNITURE",
];

fn date_plus(date: &str, days: i32) -> String {
    format_date(parse_date(date).expect("literal date") + days)
}

/// Replace `from` in `sql`, insisting it was there.
fn replaced(sql: &str, from: &str, to: &str) -> String {
    assert!(sql.contains(from), "TPC-H text no longer contains {from}");
    sql.replace(from, to)
}

/// A literal-varying instance of TPC-H Q1 (`q = 0`), Q3 (1) or Q10 (2),
/// built from the repository's query text: the Q1 interval, the Q3
/// segment and date, the Q10 quarter.
fn tpch_query(q: usize, rng: &mut Rng) -> String {
    match q {
        0 => {
            let days = 60 + 10 * rng.below(7);
            replaced(
                hique_tpch::Q1_SQL,
                "interval '90' day",
                &format!("interval '{days}' day"),
            )
        }
        1 => {
            let segment = SEGMENTS[rng.below(5) as usize];
            let date = date_plus("1995-03-01", 7 * rng.below(4) as i32);
            let sql = replaced(hique_tpch::Q3_SQL, "'BUILDING'", &format!("'{segment}'"));
            replaced(&sql, "'1995-03-15'", &format!("'{date}'"))
        }
        _ => {
            let quarter = rng.below(8) as i32;
            let (year, month) = (1993 + quarter / 4, 1 + 3 * (quarter % 4));
            let start = format!("{year}-{month:02}-01");
            let (year, month) = if month == 10 {
                (year + 1, 1)
            } else {
                (year, month + 3)
            };
            let end = format!("{year}-{month:02}-01");
            let sql = replaced(
                hique_tpch::Q10_SQL,
                "o_orderdate >= date '1993-10-01'",
                &format!("o_orderdate >= date '{start}'"),
            );
            replaced(
                &sql,
                "o_orderdate < date '1994-01-01'",
                &format!("o_orderdate < date '{end}'"),
            )
        }
    }
}

/// A `short_mix` statement family: draws its literals from `rng` and names
/// its first output column after `tag`, so that distinct tags are distinct
/// plan-cache classes.  Every family orders its result completely, so the
/// reply text is determined by the data.
type Family = fn(&mut Rng, &str) -> String;

const FAMILIES: [Family; 8] = [
    |rng, tag| {
        let key = 1 + rng.below(1500);
        format!(
            "select c_custkey as k_{tag}, c_name, c_acctbal from customer \
             where c_custkey = {key}"
        )
    },
    |rng, tag| {
        let key = 1 + rng.below(1500);
        format!(
            "select o_orderkey as k_{tag}, o_orderdate, o_totalprice from orders \
             where o_custkey = {key} order by k_{tag}"
        )
    },
    |rng, tag| {
        let bal = rng.below(1_000_000) as f64 / 100.0;
        format!(
            "select n.n_name as k_{tag}, count(*) as customers from customer c, nation n \
             where c.c_nationkey = n.n_nationkey and c.c_acctbal > {bal:.2} \
             group by n.n_name order by k_{tag}"
        )
    },
    |rng, tag| {
        let bal = rng.below(1_000_000) as f64 / 100.0;
        format!(
            "select s_suppkey as k_{tag}, s_name, s_acctbal from supplier \
             where s_acctbal > {bal:.2} order by k_{tag} limit 10"
        )
    },
    |rng, tag| {
        let from = date_plus("1992-01-01", rng.below(2300) as i32);
        let to = date_plus(&from, 30);
        format!(
            "select o_orderpriority as k_{tag}, count(*) as n, sum(o_totalprice) as total \
             from orders where o_orderdate >= date '{from}' and o_orderdate < date '{to}' \
             group by o_orderpriority order by k_{tag}"
        )
    },
    |rng, tag| {
        let key = rng.below(25);
        format!(
            "select n.n_name as k_{tag}, r.r_name from nation n, region r \
             where n.n_regionkey = r.r_regionkey and n.n_nationkey >= {key} \
             order by k_{tag}"
        )
    },
    |rng, tag| {
        let key = 1 + rng.below(1500);
        format!(
            "select o.o_orderkey as k_{tag}, c.c_name, o.o_totalprice from customer c, orders o \
             where c.c_custkey = o.o_custkey and c.c_custkey = {key} order by k_{tag}"
        )
    },
    |rng, tag| {
        let bal = rng.below(1_000_000) as f64 / 100.0;
        format!(
            "select c_mktsegment as k_{tag}, count(*) as n, avg(c_acctbal) as avg_bal \
             from customer where c_acctbal < {bal:.2} group by c_mktsegment \
             order by k_{tag}"
        )
    },
];

/// The `short_mix` hot set: one statement per tag `h<i>`, so each is its
/// own plan-cache class and every repeat is an exact hit.
fn hot_set(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, Workload::ShortMix as u64, 99);
    (0..HOT_SET)
        .map(|i| FAMILIES[i % FAMILIES.len()](&mut rng, &format!("h{i}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hique_plan::shape_class_and_consts;
    use std::collections::HashSet;

    fn prefix(workload: Workload, seed: u64) -> Vec<Vec<Stmt>> {
        workload
            .lanes(seed)
            .into_iter()
            .map(|lane| lane.take(500).collect())
            .collect()
    }

    #[test]
    fn streams_are_a_pure_function_of_workload_and_seed() {
        for w in Workload::ALL {
            assert_eq!(prefix(w, DEV_SEED), prefix(w, DEV_SEED), "{}", w.name());
            assert_eq!(w.warmup(DEV_SEED), w.warmup(DEV_SEED), "{}", w.name());
            assert_ne!(prefix(w, DEV_SEED), prefix(w, CLAIM_SEED), "{}", w.name());
        }
        assert_ne!(
            prefix(Workload::TpchPaged, DEV_SEED),
            prefix(Workload::TpchMem, DEV_SEED)
        );
    }

    #[test]
    fn tpch_streams_vary_literals_and_use_both_connections() {
        let lane = &prefix(Workload::TpchMem, DEV_SEED)[0];
        let distinct: HashSet<&str> = lane.iter().map(|s| s.sql.as_str()).collect();
        assert!(distinct.len() > 20, "{}", distinct.len());
        for kind in [Kind::Q1, Kind::Q3, Kind::Q10] {
            assert!(lane.iter().any(|s| s.kind == kind));
        }
        assert!(lane.iter().any(|s| s.client == 0) && lane.iter().any(|s| s.client == 1));
        // Literals are drawn afresh every time; with 7 Q1 intervals and 8
        // Q10 quarters, some texts recur on their own (exact hits).
        assert!(distinct.len() < lane.len(), "{}", distinct.len());
    }

    #[test]
    fn short_mix_kinds_map_to_cache_classes() {
        let lanes = prefix(Workload::ShortMix, DEV_SEED);
        let warm: HashSet<String> = Workload::ShortMix
            .warmup(DEV_SEED)
            .iter()
            .map(|s| shape_class_and_consts(&s.sql).0)
            .collect();
        let mut misses = HashSet::new();
        for stmt in lanes.iter().flatten() {
            let class = shape_class_and_consts(&stmt.sql).0;
            match stmt.kind {
                Kind::Exact | Kind::Template => assert!(warm.contains(&class), "{}", stmt.sql),
                Kind::Miss => {
                    assert!(!warm.contains(&class), "{}", stmt.sql);
                    assert!(misses.insert(class), "repeated miss shape: {}", stmt.sql);
                }
                _ => panic!("TPC-H kind in short_mix"),
            }
        }
        // Over the two lanes' first 500 statements the never-seen shapes
        // alone overflow the server's plan cache.
        assert!(misses.len() > SERVER_PLAN_CACHE, "{}", misses.len());
    }

    #[test]
    fn canonical_order_interleaves_lanes() {
        let order = canonical_order(Workload::ShortMix, DEV_SEED, 5);
        assert_eq!(order.len(), 10);
        assert_eq!(
            order.iter().map(|s| s.client).collect::<Vec<_>>(),
            [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        );
        assert_eq!(canonical_order(Workload::TpchMem, DEV_SEED, 5).len(), 5);
    }
}
