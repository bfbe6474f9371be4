//! Plan explanation: a human-readable rendering of a [`PhysicalPlan`].
//!
//! Mirrors the shape of the paper's operator-descriptor list: staging
//! descriptors first, then joins (or the fused join team), then aggregation
//! and ordering.  Used by the examples and by `EXPERIMENTS.md` to document
//! which plan each benchmark executes.

use std::fmt::Write as _;

use hique_sql::analyze::OutputExpr;
use hique_types::ExecStats;

use crate::physical::{PhysicalPlan, StagingStrategy};
use crate::stats::q_error;

/// Measured per-operator cardinalities of one plan execution, used to render
/// estimated-vs-actual rows (and q-errors) in [`explain_with_actuals`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanActuals {
    /// Actual post-filter row count per staged table, indexed like
    /// [`PhysicalPlan::staged`].
    pub stage_rows: Vec<Option<usize>>,
    /// Actual output row count per join step, indexed like
    /// [`PhysicalPlan::joins`].
    pub join_rows: Vec<Option<usize>>,
}

impl PlanActuals {
    /// An empty actuals set shaped for `plan` (all counts unknown).
    pub fn unknown(plan: &PhysicalPlan) -> Self {
        PlanActuals {
            stage_rows: vec![None; plan.staged.len()],
            join_rows: vec![None; plan.joins.len()],
        }
    }
}

/// Format `~est rows`, extended with the measured count and q-error when the
/// actual cardinality is known.
fn rows_clause(estimated: usize, actual: Option<usize>) -> String {
    match actual {
        Some(actual) => format!(
            "~{estimated} rows, actual {actual}, q-error {:.2}",
            q_error(estimated, actual)
        ),
        None => format!("~{estimated} rows"),
    }
}

/// Render a multi-line explanation of the plan.
pub fn explain(plan: &PhysicalPlan) -> String {
    explain_with_actuals(plan, &PlanActuals::default())
}

/// The executor's size-only spill threshold for a plan's memory budget: a
/// quarter of the budget's page-data capacity (see the pipeline substrate's
/// `SpillContext`).  `None` when the plan carries no budget.
fn spill_threshold_bytes(plan: &PhysicalPlan) -> Option<usize> {
    if plan.memory_budget_pages == 0 {
        return None;
    }
    let page_data = hique_storage::PAGE_SIZE - hique_storage::PAGE_HEADER_SIZE;
    // Same formula as the pipeline substrate's SpillContext: a quarter of
    // the budget's data capacity, clamped to at least one byte.
    Some((plan.memory_budget_pages.saturating_mul(page_data) / 4).max(1))
}

/// ` [spill]` when a temporary of `estimated_bytes` would go to the pool
/// under the plan's budget, empty otherwise.  Mirrors the executor's
/// size-only decision applied to the *estimated* size, so EXPLAIN shows the
/// per-operator spill plan before anything runs.
fn spill_clause(threshold: Option<usize>, estimated_bytes: usize) -> &'static str {
    match threshold {
        Some(t) if estimated_bytes >= t => " [spill]",
        _ => "",
    }
}

/// Render the plan with measured per-operator cardinalities alongside the
/// optimizer's estimates.
pub fn explain_with_actuals(plan: &PhysicalPlan, actuals: &PlanActuals) -> String {
    let mut out = String::new();
    let threshold = spill_threshold_bytes(plan);
    let _ = writeln!(out, "Physical plan");
    let _ = writeln!(out, "=============");
    for (i, &t) in plan.join_order.iter().enumerate() {
        let st = &plan.staged[t];
        let strategy = match &st.strategy {
            StagingStrategy::None => "scan".to_string(),
            StagingStrategy::Sort { key_columns } => format!("scan + sort on {key_columns:?}"),
            StagingStrategy::PartitionFine {
                key_column,
                partitions,
            } => {
                format!("scan + fine partition on #{key_column} into {partitions}")
            }
            StagingStrategy::PartitionCoarse {
                key_column,
                partitions,
            } => {
                format!("scan + coarse partition on #{key_column} into {partitions}")
            }
            StagingStrategy::PartitionThenSort {
                key_column,
                partitions,
            } => {
                format!("scan + partition on #{key_column} into {partitions} + sort partitions")
            }
        };
        let _ = writeln!(
            out,
            "stage[{i}] {} ({} filters, keep {} cols, {}): {strategy}{}",
            st.table_name,
            st.filters.len(),
            st.keep.len(),
            rows_clause(
                st.estimated_rows,
                actuals.stage_rows.get(t).copied().flatten()
            ),
            spill_clause(
                threshold,
                st.estimated_rows.saturating_mul(st.schema.tuple_size())
            )
        );
    }
    if let Some(team) = &plan.join_team {
        let _ = writeln!(
            out,
            "join team over {} inputs using {} (keys {:?})",
            team.members.len(),
            team.algorithm.name(),
            team.key_columns
        );
    }
    // Width of the materialized intermediate after each join step, for the
    // spill marker: the joined record is the concatenation of every staged
    // record joined so far.
    let mut joined_width = plan
        .join_order
        .first()
        .map(|&t| plan.staged[t].schema.tuple_size())
        .unwrap_or(0);
    for (i, j) in plan.joins.iter().enumerate() {
        joined_width += plan.staged[j.right].schema.tuple_size();
        let _ = writeln!(
            out,
            "join[{i}] + {} using {} (left key #{}, right key #{}, {}){}",
            plan.staged[j.right].table_name,
            j.algorithm.name(),
            j.left_key,
            j.right_key,
            rows_clause(
                j.estimated_rows,
                actuals.join_rows.get(i).copied().flatten()
            ),
            spill_clause(threshold, j.estimated_rows.saturating_mul(joined_width))
        );
    }
    if let Some(agg) = &plan.aggregate {
        let _ = writeln!(
            out,
            "aggregate: {} over {} group column(s), {} aggregate(s)",
            agg.algorithm.name(),
            agg.group_columns.len(),
            agg.aggregates.len()
        );
    }
    if !plan.order_by.is_empty() {
        let keys: Vec<String> = plan
            .order_by
            .iter()
            .map(|(i, asc)| {
                format!(
                    "{} {}",
                    plan.output_schema.column(*i).name,
                    if *asc { "asc" } else { "desc" }
                )
            })
            .collect();
        let _ = writeln!(out, "order by: {}", keys.join(", "));
    }
    if let Some(l) = plan.limit {
        let _ = writeln!(out, "limit: {l}");
    }
    if plan.memory_budget_pages > 0 {
        let _ = writeln!(
            out,
            "memory budget: {} pages (temporaries >= {} bytes spill to the pool)",
            plan.memory_budget_pages,
            threshold.unwrap_or(0)
        );
    }
    let outputs: Vec<String> = plan
        .output
        .iter()
        .zip(plan.output_schema.columns())
        .map(|(o, c)| match o {
            OutputExpr::GroupColumn(i) => format!("{} := group #{i}", c.name),
            OutputExpr::Scalar(_) => format!("{} := scalar expr", c.name),
            OutputExpr::Aggregate(i) => format!("{} := aggregate #{i}", c.name),
        })
        .collect();
    let _ = writeln!(out, "output: {}", outputs.join(", "));
    out
}

/// Render the plan together with the execution counters of one run,
/// including the buffer-pool line (hits/misses/evictions and page I/O) that
/// documents how a paged execution behaved under its memory budget.
pub fn explain_with_stats(plan: &PhysicalPlan, actuals: &PlanActuals, stats: &ExecStats) -> String {
    let mut out = explain_with_actuals(plan, actuals);
    let io = &stats.io;
    let _ = writeln!(
        out,
        "buffer pool: hits={} misses={} evictions={} pages_read={} pages_written={} \
         peak_resident={} spilled_temporaries={} spill_claim_denied={}",
        io.pool_hits,
        io.pool_misses,
        io.pool_evictions,
        io.pages_read,
        io.pages_written,
        stats.peak_resident_pages,
        stats.spilled_temporaries,
        stats.spill_claim_denied
    );
    let _ = writeln!(out, "execution: {stats}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlannerConfig;
    use crate::optimizer::{plan_query, plan_sql};
    use crate::provider::CatalogProvider;
    use hique_sql::{analyze, parse_query};
    use hique_storage::Catalog;
    use hique_types::{Column, DataType, Row, Schema, Value};

    #[test]
    fn explain_mentions_every_stage() {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("v", DataType::Float64),
            ]),
        )
        .unwrap();
        cat.create_table(
            "s",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("w", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..100 {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i), Value::Float64(i as f64)]))
                .unwrap();
            cat.table_mut("s")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i % 10), Value::Float64(1.0)]))
                .unwrap();
        }
        cat.analyze_table("r").unwrap();
        cat.analyze_table("s").unwrap();
        let plan = plan_sql(
            "select r.k, sum(s.w) as total from r, s where r.k = s.k and r.v > 5 \
             group by r.k order by total desc limit 3",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        let text = explain(&plan);
        assert!(text.contains("stage[0]"));
        assert!(text.contains("stage[1]"));
        assert!(text.contains("join[0]"));
        assert!(text.contains("aggregate:"));
        assert!(text.contains("order by: total desc"));
        assert!(text.contains("limit: 3"));
        assert!(text.contains("output:"));
        // Without actuals no measured counts are rendered.
        assert!(!text.contains("actual"));

        // With actuals, estimated vs. actual rows and q-errors show up.
        let mut actuals = PlanActuals::unknown(&plan);
        for slot in actuals.stage_rows.iter_mut() {
            *slot = Some(37);
        }
        actuals.join_rows[0] = Some(100);
        let text = explain_with_actuals(&plan, &actuals);
        assert!(text.contains("actual 37"), "{text}");
        assert!(text.contains("actual 100"), "{text}");
        assert!(text.contains("q-error"), "{text}");
    }

    #[test]
    fn explain_with_stats_renders_pool_counters_and_budget() {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("v", DataType::Float64),
            ]),
        )
        .unwrap();
        for i in 0..10 {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i), Value::Float64(i as f64)]))
                .unwrap();
        }
        let q = parse_query("select k from r where v > 1").unwrap();
        let bound = analyze(&q, &CatalogProvider::new(&cat)).unwrap();
        let config = PlannerConfig::default().with_memory_budget_pages(32);
        let plan = plan_query(&bound, &cat, &config).unwrap();
        assert_eq!(plan.memory_budget_pages, 32);

        let mut stats = hique_types::ExecStats::new();
        stats.io.pool_hits = 7;
        stats.io.pool_misses = 3;
        stats.io.pool_evictions = 2;
        stats.io.pages_read = 3;
        stats.io.pages_written = 2;
        stats.peak_resident_pages = 30;
        stats.spilled_temporaries = 4;
        stats.spill_claim_denied = 1;
        stats.cancelled = 1;
        stats.faults_injected = 2;
        let text = explain_with_stats(&plan, &PlanActuals::unknown(&plan), &stats);
        assert!(text.contains("memory budget: 32 pages"), "{text}");
        assert!(
            text.contains(
                "buffer pool: hits=7 misses=3 evictions=2 pages_read=3 pages_written=2 \
                 peak_resident=30 spilled_temporaries=4 spill_claim_denied=1"
            ),
            "{text}"
        );
        assert!(text.contains("execution:"), "{text}");
        // The robustness counters flow through the execution line, so a
        // server-side `.stats` (or a replayed chaos run) shows them.
        assert!(text.contains("cancelled=1"), "{text}");
        assert!(text.contains("faults_injected=2"), "{text}");
        // An unbudgeted plan renders no budget line.
        let unbounded = plan_query(&bound, &cat, &PlannerConfig::default()).unwrap();
        assert!(!explain(&unbounded).contains("memory budget"));
    }

    #[test]
    fn explain_marks_per_operator_spill_decisions_under_a_budget() {
        let mut cat = Catalog::new();
        cat.create_table(
            "big",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("pad", DataType::Char(60)),
            ]),
        )
        .unwrap();
        for i in 0..5000 {
            cat.table_mut("big")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i), Value::Str("x".into())]))
                .unwrap();
        }
        cat.analyze_table("big").unwrap();
        let q = parse_query("select k, pad from big").unwrap();
        let bound = analyze(&q, &CatalogProvider::new(&cat)).unwrap();
        // Tiny budget: the ~320 KB staged input dwarfs the threshold.
        let plan = plan_query(
            &bound,
            &cat,
            &PlannerConfig::default().with_memory_budget_pages(4),
        )
        .unwrap();
        let text = explain(&plan);
        assert!(text.contains("[spill]"), "{text}");
        assert!(text.contains("spill to the pool"), "{text}");
        // The same plan with no budget renders no spill markers.
        let unbounded = plan_query(&bound, &cat, &PlannerConfig::default()).unwrap();
        assert!(!explain(&unbounded).contains("[spill]"));
    }
}
