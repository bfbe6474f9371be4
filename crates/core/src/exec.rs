//! Execution of a generated query program.
//!
//! The executor plays the role of the paper's composed `evaluate_query`
//! function: it calls the instantiated staging kernels, the join kernels in
//! plan order (materializing intermediate results as temporary relations,
//! or streaming the final join straight into the output sink), the
//! aggregation kernel, and finally orders/limits the result.

use std::time::Instant;

use hique_par::chunk_ranges;
use hique_pipeline::ExecFrame;
use hique_plan::{AggAlgorithm, JoinAlgorithm, StagingStrategy};
use hique_storage::Catalog;
use hique_types::{
    result::finalize_rows, ExecOptions, ExecStats, HiqueError, PhaseTimings, QueryResult, Result,
    Row, Value,
};

use crate::generator::{GeneratedQuery, OutputKernel};
use crate::join::{
    fine_partition_join_pooled, hybrid_join_pooled, merge_join_pooled, nested_loops_join,
    team_join, JoinSink,
};
use crate::kernel::CompiledKey;
use crate::relation::StagedRelation;
use crate::spill::StagedSlot;
use crate::staging::{stage_table_cancellable, StagedInput};

/// A sink receiving final (non-aggregated) output tuples.
enum OutputSink<'a> {
    Collect {
        kernels: &'a [OutputKernel],
        rows: Vec<Row>,
    },
    Count(u64),
}

/// Decode one output record through the output kernels (non-aggregate
/// queries).
fn decode_output_row(kernels: &[OutputKernel], record: &[u8]) -> Row {
    let values: Vec<Value> = kernels
        .iter()
        .map(|k| match k {
            OutputKernel::Column(key) => key.value(record),
            OutputKernel::Expr(expr, dtype) => {
                let v = expr.eval(record);
                match dtype {
                    hique_types::DataType::Int32 => Value::Int32(v as i32),
                    hique_types::DataType::Int64 => Value::Int64(v as i64),
                    hique_types::DataType::Date => Value::Date(v as i32),
                    _ => Value::Float64(v),
                }
            }
            OutputKernel::GroupPosition(_) | OutputKernel::AggregatePosition(_) => {
                unreachable!("aggregate kernels in a non-aggregate sink")
            }
        })
        .collect();
    Row::new(values)
}

impl OutputSink<'_> {
    #[inline]
    fn consume(&mut self, record: &[u8]) {
        match self {
            OutputSink::Collect { kernels, rows } => {
                rows.push(decode_output_row(kernels, record));
            }
            OutputSink::Count(n) => *n += 1,
        }
    }
}

/// Execute the generated program.
pub fn execute(
    generated: &GeneratedQuery,
    catalog: &Catalog,
    options: &ExecOptions,
) -> Result<QueryResult> {
    let plan = &generated.plan;
    let mut stats = ExecStats::new();
    let mut timings = PhaseTimings::new();
    // Partition-parallel execution and the memory budget: `options`
    // overrides the plan's configuration.  Staged inputs and join
    // temporaries spill through the catalog's buffer pool once a budget is
    // set and the catalog runs in paged mode.  The spill decision depends
    // only on relation sizes, so results (and work counters) are identical
    // for every budget.
    let frame = ExecFrame::open(
        plan,
        options,
        catalog.storage().map(|s| (s.pool(), s.temp())),
    )?;
    let pool = frame.workers();
    let spill = frame.spill();
    let cancel = &options.cancel;

    // ---- Staging -----------------------------------------------------------
    let t0 = Instant::now();
    let mut staged: Vec<Option<StagedSlot>> = (0..plan.staged.len()).map(|_| None).collect();
    for &t in &plan.join_order {
        cancel.check()?;
        let info = catalog.table(&plan.staged[t].table_name)?;
        let input =
            stage_table_cancellable(&info.heap, &plan.staged[t], &mut stats, &pool, cancel)?;
        staged[t] = Some(StagedSlot::stage(input, spill)?);
    }
    timings.record("staging", t0.elapsed());

    // ---- Joins --------------------------------------------------------------
    let t1 = Instant::now();
    let streams_to_sink = plan.aggregate.is_none();
    let mut sink = if options.collect_rows {
        OutputSink::Collect {
            kernels: &generated.outputs,
            rows: Vec::new(),
        }
    } else {
        OutputSink::Count(0)
    };

    // The staged slot feeding aggregation / output when not streaming.  It
    // stays a slot (possibly spilled) until its consumer runs: streaming
    // consumers read it page-at-a-time, never re-materializing a spilled
    // partition.
    let mut final_slot: Option<StagedSlot> = None;

    if plan.staged.len() == 1 {
        final_slot = Some(
            staged[plan.join_order[0]]
                .take()
                .expect("single input staged"),
        );
    } else if let Some(team) = &plan.join_team {
        // The team join's deeply nested loops cursor over every input at
        // once (random access within key groups), so members materialize.
        let members: Vec<StagedInput> = team
            .members
            .iter()
            .map(|&m| staged[m].take().expect("staged").into_input(spill))
            .collect::<Result<_>>()?;
        let inputs: Vec<&StagedRelation> = members.iter().map(|i| &i.relation).collect();
        let keys: Vec<CompiledKey> = team
            .members
            .iter()
            .zip(&team.key_columns)
            .map(|(&m, &kc)| CompiledKey::compile(&plan.staged[m].schema, kc))
            .collect();
        let joined_width = plan.joined_schema.tuple_size();
        let mut buf = vec![0u8; joined_width];
        if streams_to_sink {
            team_join(&inputs, &keys, &mut stats, &mut |records| {
                concat_records(records, &mut buf);
                sink.consume(&buf);
            });
        } else {
            let mut out = StagedRelation::new(plan.joined_schema.clone());
            team_join(&inputs, &keys, &mut stats, &mut |records| {
                concat_records(records, &mut buf);
                out.push(&buf);
            });
            stats.add_materialized(out.data_bytes());
            final_slot = Some(StagedSlot::stage(StagedInput::unpartitioned(out), spill)?);
        }
    } else {
        // Binary cascade.  The running intermediate is a StagedSlot: each
        // join step materializes it (the merge cursors need random access),
        // joins, and re-stages the output — which spills through the pool
        // under a budget and is consumed page-at-a-time by whatever comes
        // next.
        let mut current_slot = staged[plan.join_order[0]]
            .take()
            .expect("first input staged");
        let mut current_schema = plan.staged[plan.join_order[0]].schema.clone();
        // Which column (if any) the current intermediate is sorted on.
        let mut sorted_on: Option<usize> = match &plan.staged[plan.join_order[0]].strategy {
            StagingStrategy::Sort { key_columns } => key_columns.first().copied(),
            _ => None,
        };

        for (i, step) in plan.joins.iter().enumerate() {
            cancel.check()?;
            let current = current_slot.into_input(spill)?;
            let right_desc = &plan.staged[step.right];
            let right = staged[step.right]
                .take()
                .expect("right input staged")
                .into_input(spill)?;
            let out_schema = current_schema.join(&right_desc.schema);
            let left_key = CompiledKey::compile(&current_schema, step.left_key);
            let right_key = CompiledKey::compile(&right_desc.schema, step.right_key);
            let last = i == plan.joins.len() - 1;
            let stream_this = last && streams_to_sink;

            let mut out = StagedRelation::new(out_schema.clone());
            let mut buf = vec![0u8; out_schema.tuple_size()];
            // When the final join streams into a counting sink, hand the
            // kernels a counting sink directly: workers count locally with
            // nothing materialized or replayed (the paper's micro-benchmark
            // methodology).
            let count_final = stream_this && matches!(sink, OutputSink::Count(_));
            let mut counted: u64 = 0;
            {
                let mut consume = |lrec: &[u8], rrec: &[u8]| {
                    buf[..lrec.len()].copy_from_slice(lrec);
                    buf[lrec.len()..].copy_from_slice(rrec);
                    if stream_this {
                        sink.consume(&buf);
                    } else {
                        out.push(&buf);
                    }
                };
                let mut join_sink = if count_final {
                    JoinSink::Count(&mut counted)
                } else {
                    JoinSink::Pairs(&mut consume)
                };
                match step.algorithm {
                    JoinAlgorithm::Merge => {
                        let mut left_rel = current.relation;
                        if sorted_on != Some(step.left_key) {
                            left_rel.flatten();
                            stats.sort_passes += 1;
                            left_rel.par_sort_all(&[left_key], &pool);
                        }
                        merge_join_pooled(
                            &left_rel,
                            &right.relation,
                            left_key,
                            right_key,
                            &pool,
                            &mut stats,
                            &mut join_sink,
                        );
                    }
                    JoinAlgorithm::Partition => {
                        fine_partition_join_pooled(
                            &current,
                            &right,
                            left_key,
                            right_key,
                            &pool,
                            &mut stats,
                            &mut join_sink,
                        );
                    }
                    JoinAlgorithm::HybridHashSortMerge => {
                        let partitions = match &right_desc.strategy {
                            StagingStrategy::PartitionThenSort { partitions, .. }
                            | StagingStrategy::PartitionCoarse { partitions, .. } => *partitions,
                            _ => 64,
                        };
                        let mut left_rel = current.relation;
                        let mut right_rel = right.relation;
                        hybrid_join_pooled(
                            &mut left_rel,
                            &mut right_rel,
                            left_key,
                            right_key,
                            partitions,
                            &pool,
                            &mut stats,
                            &mut join_sink,
                        );
                    }
                    JoinAlgorithm::NestedLoops => {
                        // Forced degradation only (the optimizer never
                        // picks it): serial blocked nested loops, matching
                        // the kernel text source.rs renders for it.
                        let mut run = |consumer: &mut dyn FnMut(&[u8], &[u8])| {
                            nested_loops_join(
                                &current.relation,
                                &right.relation,
                                left_key,
                                right_key,
                                &mut stats,
                                consumer,
                            )
                        };
                        match &mut join_sink {
                            JoinSink::Pairs(consumer) => run(consumer),
                            JoinSink::Count(total) => {
                                let mut n = 0u64;
                                run(&mut |_, _| n += 1);
                                **total += n;
                            }
                        }
                    }
                }
            }
            if count_final {
                if let OutputSink::Count(n) = &mut sink {
                    *n += counted;
                }
            }
            if !stream_this {
                stats.add_materialized(out.data_bytes());
                sorted_on = match step.algorithm {
                    // Merge-join output is ordered by the join key.
                    JoinAlgorithm::Merge => Some(step.left_key),
                    _ => None,
                };
                // Under a memory budget, a large join temporary goes out as
                // pool pages — the paper's temporary table in the buffer
                // pool, subject to the same LRU pressure as base pages —
                // and stays there until its consumer pulls it back one
                // pinned page (or one partition) at a time.
                current_slot = StagedSlot::stage(StagedInput::unpartitioned(out), spill)?;
                current_schema = out_schema;
            } else {
                current_slot = StagedSlot::Mem(StagedInput::unpartitioned(StagedRelation::new(
                    out_schema.clone(),
                )));
                current_schema = out_schema;
            }
        }
        if !streams_to_sink {
            final_slot = Some(current_slot);
        }
    }
    timings.record("join", t1.elapsed());

    // ---- Aggregation ----------------------------------------------------------
    let mut rows: Vec<Row> = Vec::new();
    if let Some(spec) = &plan.aggregate {
        let t2 = Instant::now();
        cancel.check()?;
        let compiled = generated
            .aggregation
            .as_ref()
            .expect("aggregation kernels generated");
        let slot = final_slot
            .take()
            .ok_or_else(|| HiqueError::Execution("aggregation input missing".into()))?;
        let group_keys: Vec<CompiledKey> = spec
            .group_columns
            .iter()
            .map(|&c| CompiledKey::compile(&plan.joined_schema, c))
            .collect();
        // Did staging already produce exactly the interesting order sort
        // aggregation needs?
        let already_sorted = plan.staged.len() == 1
            && matches!(
                &plan.staged[plan.join_order[0]].strategy,
                StagingStrategy::Sort { key_columns } if *key_columns == spec.group_columns
            );
        // A spilled aggregation input is consumed page-at-a-time through
        // the pipeline substrate — except when sort aggregation must first
        // sort it, which requires random access and therefore an explicit
        // gather.
        let stream_agg = slot.is_spilled()
            && match spec.algorithm {
                AggAlgorithm::Sort => already_sorted,
                _ => true,
            };
        let group_rows = if stream_agg {
            let set = slot.partitions(spill)?;
            match spec.algorithm {
                AggAlgorithm::Map => compiled.map_aggregate_stream(&set, &mut stats)?,
                AggAlgorithm::HybridHashSort => {
                    let partitions = slot
                        .num_partitions()
                        .max((slot.data_bytes() / (1 << 20)).next_power_of_two());
                    let schema = slot.schema().clone();
                    compiled
                        .hybrid_aggregate_stream(&set, &schema, partitions, &pool, &mut stats)?
                }
                AggAlgorithm::Sort => compiled.sort_aggregate_stream(&set, &mut stats)?,
            }
        } else {
            let input = slot.into_input(spill)?;
            match spec.algorithm {
                AggAlgorithm::Map => {
                    compiled.map_aggregate_pooled(&input.relation, &pool, &mut stats)
                }
                AggAlgorithm::HybridHashSort => {
                    let partitions = input
                        .relation
                        .num_partitions()
                        .max((input.relation.data_bytes() / (1 << 20)).next_power_of_two());
                    compiled.hybrid_aggregate_pooled(&input.relation, partitions, &pool, &mut stats)
                }
                AggAlgorithm::Sort => {
                    if already_sorted {
                        compiled.sort_aggregate_pooled(&input.relation, &pool, &mut stats)
                    } else {
                        let mut rel = input.relation;
                        rel.flatten();
                        stats.sort_passes += 1;
                        rel.par_sort_all(&group_keys, &pool);
                        compiled.sort_aggregate_pooled(&rel, &pool, &mut stats)
                    }
                }
            }
        };
        // Map aggregation rows to output columns.
        let group_count = spec.group_columns.len();
        for grow in group_rows {
            let values: Vec<Value> = generated
                .outputs
                .iter()
                .map(|k| match k {
                    OutputKernel::GroupPosition(p) => grow.get(*p).clone(),
                    OutputKernel::AggregatePosition(i) => grow.get(group_count + i).clone(),
                    _ => unreachable!("scalar output in aggregate query"),
                })
                .collect();
            rows.push(Row::new(values));
        }
        timings.record("aggregation", t2.elapsed());
    } else if let Some(slot) = final_slot.take() {
        // Non-aggregate single-table (or materialized) result: run the
        // output kernels over every record.
        let t3 = Instant::now();
        cancel.check()?;
        if slot.is_spilled() {
            // Page-at-a-time: decode straight off pinned pool pages, one
            // page resident at a time — the spilled relation is never
            // re-materialized on its way to the sink.
            let set = slot.partitions(spill)?;
            set.for_each_record(|rec| sink.consume(rec))?;
        } else {
            let input = slot.into_input(spill)?;
            match &mut sink {
                OutputSink::Collect { kernels, rows } if !pool.is_serial() => {
                    // Decode record chunks in parallel, appended in chunk
                    // order (= serial record order).
                    let records: Vec<&[u8]> = input.relation.records().collect();
                    let ranges = chunk_ranges(records.len(), pool.threads());
                    for chunk in pool.map_items(&ranges, |_, range| {
                        records[range.clone()]
                            .iter()
                            .map(|rec| decode_output_row(kernels, rec))
                            .collect::<Vec<Row>>()
                    }) {
                        rows.extend(chunk);
                    }
                }
                _ => {
                    for rec in input.relation.records() {
                        sink.consume(rec);
                    }
                }
            }
        }
        timings.record("output", t3.elapsed());
    }

    // ---- Finalize ---------------------------------------------------------------
    let t4 = Instant::now();
    match sink {
        OutputSink::Collect {
            rows: sink_rows, ..
        } if plan.aggregate.is_none() => {
            rows = sink_rows;
        }
        OutputSink::Count(n) if plan.aggregate.is_none() => {
            stats.rows_out = n;
        }
        _ => {}
    }
    finalize_rows(&mut rows, &plan.order_by, plan.limit);
    if options.collect_rows || plan.aggregate.is_some() {
        stats.rows_out = rows.len() as u64;
    }
    timings.record("output", t4.elapsed());

    Ok(frame.finish(plan, rows, stats, timings))
}

/// Concatenate one record per team member into `buf` (sized to the joined
/// schema's tuple width).
#[inline]
fn concat_records(records: &[&[u8]], buf: &mut [u8]) {
    let mut off = 0usize;
    for r in records {
        buf[off..off + r.len()].copy_from_slice(r);
        off += r.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use hique_pipeline::SpillContext;
    use hique_plan::{plan_sql, PlannerConfig};
    use hique_types::{CancelToken, Column, DataType, Schema};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("v", DataType::Float64),
                Column::new("tag", DataType::Char(4)),
            ]),
        )
        .unwrap();
        cat.create_table(
            "s",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("w", DataType::Int32),
            ]),
        )
        .unwrap();
        cat.create_table(
            "u",
            Schema::new(vec![
                Column::new("k", DataType::Int32),
                Column::new("z", DataType::Int32),
            ]),
        )
        .unwrap();
        for i in 0..200 {
            cat.table_mut("r")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![
                    Value::Int32(i % 20),
                    Value::Float64(i as f64),
                    Value::Str(if i % 2 == 0 { "ev" } else { "od" }.into()),
                ]))
                .unwrap();
        }
        for i in 0..40 {
            cat.table_mut("s")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i % 20), Value::Int32(i)]))
                .unwrap();
        }
        for i in 0..20 {
            cat.table_mut("u")
                .unwrap()
                .heap
                .append_row(&Row::new(vec![Value::Int32(i), Value::Int32(100 + i)]))
                .unwrap();
        }
        for t in ["r", "s", "u"] {
            cat.analyze_table(t).unwrap();
        }
        cat
    }

    fn run(sql: &str, cat: &Catalog, config: &PlannerConfig) -> QueryResult {
        let plan = plan_sql(sql, cat, config).unwrap();
        generate(&plan).unwrap().execute(cat).unwrap()
    }

    fn run_iter(sql: &str, cat: &Catalog, config: &PlannerConfig) -> QueryResult {
        let plan = plan_sql(sql, cat, config).unwrap();
        hique_iter::execute_plan(&plan, cat, hique_iter::ExecMode::Optimized).unwrap()
    }

    #[test]
    fn holistic_matches_iterator_engine_on_filters_and_projection() {
        let cat = catalog();
        let sql = "select v, tag from r where k = 3 and v < 100 order by v";
        let h = run(sql, &cat, &PlannerConfig::default());
        let i = run_iter(sql, &cat, &PlannerConfig::default());
        assert_eq!(h.rows, i.rows);
        assert_eq!(h.num_rows(), 5);
        // The holistic engine makes far fewer "function calls".
        assert!(h.stats.function_calls < i.stats.function_calls / 10);
    }

    #[test]
    fn holistic_matches_iterator_engine_on_joins_and_aggregation() {
        let cat = catalog();
        let sql = "select r.k, sum(r.v) as sv, count(*) as n from r, s \
                   where r.k = s.k group by r.k order by r.k limit 5";
        for algo in [
            JoinAlgorithm::Merge,
            JoinAlgorithm::Partition,
            JoinAlgorithm::HybridHashSortMerge,
        ] {
            let config = PlannerConfig::default().with_join_algorithm(algo);
            let h = run(sql, &cat, &config);
            let i = run_iter(sql, &cat, &config);
            assert_eq!(h.rows, i.rows, "{algo:?}");
        }
    }

    #[test]
    fn aggregation_algorithms_agree_with_iterator_engine() {
        let cat = catalog();
        let sql =
            "select tag, sum(v) as sv, avg(v) as av, min(v) as mn, max(v) as mx, count(*) as n \
             from r group by tag order by tag";
        for algo in [
            AggAlgorithm::Sort,
            AggAlgorithm::HybridHashSort,
            AggAlgorithm::Map,
        ] {
            let config = PlannerConfig::default().with_agg_algorithm(algo);
            let h = run(sql, &cat, &config);
            let i = run_iter(sql, &cat, &config);
            assert_eq!(h.rows, i.rows, "{algo:?}");
            assert_eq!(h.num_rows(), 2);
        }
    }

    #[test]
    fn join_team_streams_and_matches_cascade() {
        let cat = catalog();
        let sql = "select r.v, s.w, u.z from r, s, u \
                   where r.k = s.k and r.k = u.k order by r.v, s.w limit 11";
        let team = run(sql, &cat, &PlannerConfig::default());
        let cascade = run(sql, &cat, &PlannerConfig::default().with_join_teams(false));
        let iter = run_iter(sql, &cat, &PlannerConfig::default().with_join_teams(false));
        assert_eq!(team.rows, cascade.rows);
        assert_eq!(team.rows, iter.rows);
        assert_eq!(team.num_rows(), 11);
    }

    #[test]
    fn count_only_execution_skips_row_materialization() {
        let cat = catalog();
        let plan = plan_sql(
            "select r.v, s.w from r, s where r.k = s.k",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        let generated = generate(&plan).unwrap();
        let counted = generated
            .execute_with(
                &cat,
                &ExecOptions {
                    collect_rows: false,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        let collected = generated.execute(&cat).unwrap();
        assert!(counted.rows.is_empty());
        assert_eq!(counted.stats.rows_out, collected.num_rows() as u64);
        // 200 r-rows, each matching 2 s-rows.
        assert_eq!(counted.stats.rows_out, 400);
    }

    #[test]
    fn parallel_execution_matches_serial_on_every_query_shape() {
        let cat = catalog();
        let queries = [
            // Scan/filter/project with ordered output.
            "select v, tag from r where k = 3 and v < 100 order by v",
            // Sorted staging + merge join + grouped aggregation.
            "select r.k, sum(r.v) as sv, count(*) as n from r, s \
             where r.k = s.k group by r.k order by r.k",
            // Three-way join (team and cascade both covered via config).
            "select r.v, s.w, u.z from r, s, u \
             where r.k = s.k and r.k = u.k order by r.v, s.w limit 11",
            // Global aggregate.
            "select count(*) as n, max(v) as mx from r where tag = 'ev'",
            // Empty result set.
            "select v from r where k > 9999 order by v",
        ];
        let mut configs = vec![PlannerConfig::default().with_join_teams(false)];
        for join in [
            JoinAlgorithm::Merge,
            JoinAlgorithm::Partition,
            JoinAlgorithm::HybridHashSortMerge,
        ] {
            configs.push(PlannerConfig::default().with_join_algorithm(join));
        }
        for agg in [
            AggAlgorithm::Sort,
            AggAlgorithm::HybridHashSort,
            AggAlgorithm::Map,
        ] {
            configs.push(PlannerConfig::default().with_agg_algorithm(agg));
        }
        for sql in queries {
            for config in &configs {
                let serial = run(sql, &cat, config);
                for threads in [2, 4] {
                    let par = run(sql, &cat, &config.clone().with_threads(threads));
                    assert_eq!(par.rows, serial.rows, "{sql} / {config:?} x{threads}");
                    // Per-worker counters sum exactly to the serial counts
                    // (rows_out included).
                    assert_eq!(par.stats, serial.stats, "{sql} / {config:?} x{threads}");
                }
            }
        }
    }

    #[test]
    fn exec_options_threads_override_the_plan() {
        let cat = catalog();
        let plan = plan_sql(
            "select r.v, s.w from r, s where r.k = s.k",
            &cat,
            &PlannerConfig::default().with_threads(4),
        )
        .unwrap();
        assert_eq!(plan.threads, 4);
        let generated = generate(&plan).unwrap();
        // Inherit the plan's 4 workers, then override back down to 1: both
        // must agree with each other.
        let inherited = generated.execute(&cat).unwrap();
        let overridden = generated
            .execute_with(
                &cat,
                &ExecOptions {
                    threads: 1,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        assert_eq!(inherited.rows, overridden.rows);
        assert_eq!(inherited.stats, overridden.stats);
    }

    #[test]
    fn budgeted_execution_streams_spilled_temporaries_and_matches_unbounded() {
        // A paged catalog under a tiny budget: staged inputs and join
        // temporaries spill, their consumers stream them back
        // page-at-a-time, and results match the unbudgeted execution for
        // every thread count.
        const BUDGET: usize = 4;
        let queries = [
            // Single staged input feeding the output kernels (streamed).
            "select v, tag from r where v < 1500 order by v",
            // Join temporary feeding grouped aggregation (all algorithms).
            "select r.k, sum(r.v) as sv, count(*) as n from r, s \
             where r.k = s.k group by r.k order by r.k",
            // Global aggregate over a spilled input.
            "select count(*) as n, max(v) as mx from r",
        ];
        // A working set well past the 8-page budget (the shared test
        // catalog's 200-row tables never cross the spill threshold).
        let big_catalog = || {
            let mut cat = Catalog::new();
            cat.create_table(
                "r",
                Schema::new(vec![
                    Column::new("k", DataType::Int32),
                    Column::new("v", DataType::Float64),
                    Column::new("tag", DataType::Char(4)),
                ]),
            )
            .unwrap();
            cat.create_table(
                "s",
                Schema::new(vec![
                    Column::new("k", DataType::Int32),
                    Column::new("w", DataType::Int32),
                ]),
            )
            .unwrap();
            for i in 0..2000 {
                cat.table_mut("r")
                    .unwrap()
                    .heap
                    .append_row(&Row::new(vec![
                        Value::Int32(i % 20),
                        Value::Float64(i as f64),
                        Value::Str(if i % 2 == 0 { "ev" } else { "od" }.into()),
                    ]))
                    .unwrap();
            }
            for i in 0..200 {
                cat.table_mut("s")
                    .unwrap()
                    .heap
                    .append_row(&Row::new(vec![Value::Int32(i % 20), Value::Int32(i)]))
                    .unwrap();
            }
            for t in ["r", "s"] {
                cat.analyze_table(t).unwrap();
            }
            cat
        };
        let plain = big_catalog();
        let mut paged = big_catalog();
        paged.spill_to_disk(BUDGET).unwrap();
        for sql in queries {
            for algo in [
                AggAlgorithm::Sort,
                AggAlgorithm::HybridHashSort,
                AggAlgorithm::Map,
            ] {
                let config = PlannerConfig::default().with_agg_algorithm(algo);
                let unbounded = run(sql, &plain, &config);
                for threads in [1usize, 4] {
                    let budgeted = run(
                        sql,
                        &paged,
                        &config
                            .clone()
                            .with_threads(threads)
                            .with_memory_budget_pages(BUDGET),
                    );
                    assert_eq!(budgeted.rows, unbounded.rows, "{sql} {algo:?} x{threads}");
                    assert!(
                        budgeted.stats.spilled_temporaries > 0,
                        "{sql} {algo:?} x{threads}: nothing spilled under an {BUDGET}-page budget"
                    );
                    // The pool's high-water mark proves page-at-a-time
                    // consumption never outgrew the budget.
                    assert!(
                        budgeted.stats.peak_resident_pages <= BUDGET as u64,
                        "{sql}: peak {} > budget {BUDGET}",
                        budgeted.stats.peak_resident_pages
                    );
                    assert!(budgeted.stats.io.pool_misses > 0, "{sql}: no pool traffic");
                    if sql == queries[0] {
                        // The non-aggregate output path streams the spilled
                        // staged input: the consumer holds ONE page of the
                        // spilled relation at a time, where whole-partition
                        // reload would have held the full range — which does
                        // not even fit the budget.
                        let spilled_pages =
                            1500_usize.div_ceil(hique_storage::records_per_page(12)) as u64;
                        assert!(
                            spilled_pages > BUDGET as u64,
                            "premise: the spilled input must outsize the budget"
                        );
                        assert_eq!(
                            budgeted.stats.spill_consumer_peak_pages, 1,
                            "{sql} x{threads}: output streaming re-materialized the partition"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn denied_spill_claim_queues_and_is_surfaced_in_stats() {
        // Regression for the silent-unbounded bug: with the admission cap at
        // one claim, a second budgeted execution must QUEUE behind the
        // holder (never proceed without spill capability) and report the
        // wait as spill_claim_denied once it runs.
        const BUDGET: usize = 4;
        let build = || {
            let mut cat = Catalog::new();
            cat.create_table(
                "r",
                Schema::new(vec![
                    Column::new("k", DataType::Int32),
                    Column::new("v", DataType::Float64),
                    Column::new("tag", DataType::Char(4)),
                ]),
            )
            .unwrap();
            for i in 0..2000 {
                cat.table_mut("r")
                    .unwrap()
                    .heap
                    .append_row(&Row::new(vec![
                        Value::Int32(i % 20),
                        Value::Float64(i as f64),
                        Value::Str(if i % 2 == 0 { "ev" } else { "od" }.into()),
                    ]))
                    .unwrap();
            }
            cat.analyze_table("r").unwrap();
            cat
        };
        let plain = build();
        let mut paged = build();
        paged.spill_to_disk(BUDGET).unwrap();
        let temp = Arc::clone(paged.storage().expect("paged").temp());
        temp.set_max_claims(1);
        let sql = "select v, tag from r where v < 1500 order by v";
        let config = PlannerConfig::default().with_memory_budget_pages(BUDGET);
        let unbounded = run(sql, &plain, &PlannerConfig::default());

        // Uncontended execution: the claim is granted without waiting.
        let first = run(sql, &paged, &config);
        assert_eq!(first.stats.spill_claim_denied, 0);
        assert!(first.stats.spilled_temporaries > 0);
        assert_eq!(first.rows, unbounded.rows);

        // Interleaved: another budgeted execution's claim (stood in for by a
        // directly acquired SpillContext) holds the only slot.
        let blocker = SpillContext::acquire(&temp, BUDGET).expect("first claim");
        assert_eq!(blocker.claim_denied(), 0);
        let second = std::thread::scope(|s| {
            let handle = s.spawn(|| run(sql, &paged, &config));
            // Give the execution time to reach the claim; it must block
            // there rather than finish unbudgeted.
            std::thread::sleep(std::time::Duration::from_millis(150));
            assert!(
                !handle.is_finished(),
                "losing execution must queue for admission, not run unbounded"
            );
            drop(blocker);
            handle.join().expect("queued execution completes")
        });
        assert_eq!(
            second.stats.spill_claim_denied, 1,
            "the queued claim must be surfaced in ExecStats"
        );
        assert!(second.stats.spilled_temporaries > 0, "budget still honored");
        assert!(second.stats.peak_resident_pages <= BUDGET as u64);
        assert_eq!(second.rows, unbounded.rows, "results unchanged by the wait");
    }

    #[test]
    fn cancelled_execution_surfaces_a_typed_error_not_a_panic() {
        let cat = catalog();
        let plan = plan_sql(
            "select r.v, s.w from r, s where r.k = s.k",
            &cat,
            &PlannerConfig::default(),
        )
        .unwrap();
        let generated = generate(&plan).unwrap();
        // Pre-cancelled token: the execution stops at the first check point.
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = generated
            .execute_with(
                &cat,
                &ExecOptions {
                    cancel,
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, HiqueError::Cancelled(_)), "{err}");
        assert!(err.is_retryable());
        // An expired deadline behaves the same; a generous one is inert.
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = generated
            .execute_with(
                &cat,
                &ExecOptions {
                    cancel: expired,
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, HiqueError::Cancelled(_)), "{err}");
        let generous = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let ok = generated
            .execute_with(
                &cat,
                &ExecOptions {
                    cancel: generous,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        assert_eq!(ok.stats.cancelled, 0);
        assert_eq!(ok.stats.faults_injected, 0);
    }

    #[test]
    fn global_aggregate_and_phase_timings() {
        let cat = catalog();
        let res = run(
            "select count(*) as n, max(v) as mx from r where tag = 'ev'",
            &cat,
            &PlannerConfig::default(),
        );
        assert_eq!(res.num_rows(), 1);
        assert_eq!(res.rows[0].get(0), &Value::Int64(100));
        assert_eq!(res.rows[0].get(1), &Value::Float64(198.0));
        assert!(res.timings.get("staging").is_some());
        assert!(res.timings.get("aggregation").is_some());
    }
}
