//! Executing a compiled bytecode program.
//!
//! The executor walks the same evaluate-query shape as the holistic
//! engine's composed program (stage every input → join cascade →
//! aggregation → output, DESIGN.md §2) but every per-record kernel —
//! filter, projection, key image, argument expression, output decode — is
//! interpreted bytecode from the [`VmProgram`] instead of a statically
//! compiled Rust kernel.  Join steps and aggregation run as deterministic
//! hash algorithms over the same order-preserving `i64` key images the
//! static kernels use: build the right input in staging order, probe the
//! left input in staging order, emit left-major — one fixed order for
//! every thread count and budget, which is what keeps results
//! bit-identical across the conformance matrix.  A forced nested-loops
//! step runs the holistic engine's nested-loops kernel.
//!
//! The execution contract is the engine contract everywhere else
//! (DESIGN.md §7/§9/§12): [`ExecOptions`] threads/budget/cancel,
//! page-at-a-time heap scans through pin guards, staged inputs spilled
//! through the [`ExecFrame`]'s spill namespace and consumed
//! page-at-a-time when streaming, full [`ExecStats`] with the same merge
//! semantics, and cooperative cancellation checked at page granularity.

use std::collections::HashMap;
use std::time::Instant;

use hique_holistic::join::nested_loops_join;
use hique_holistic::kernel::CompiledKey;
use hique_holistic::spill::StagedSlot;
use hique_holistic::staging::StagedInput;
use hique_holistic::{ExecOptions, GeneratedQuery, StagedRelation};
use hique_par::{chunk_ranges, ScopedPool};
use hique_pipeline::ExecFrame;
use hique_plan::{JoinAlgorithm, StagedTable};
use hique_sql::ast::AggFunc;
use hique_storage::{Catalog, TableHeap};
use hique_types::{
    result::finalize_rows, CancelToken, DataType, ExecStats, HiqueError, PhaseTimings, QueryResult,
    Result, Row, Value,
};

use crate::bytecode::{run_expr, run_filter, run_image, run_project, ConstPool, Frag, Op};
use crate::program::{OutputOp, TableFrags, VmProgram};
use crate::vector::{
    for_each_ref_batch, run_expr_batch, run_filter_batch, run_image_batch, run_project_batch,
    Batch, VecStep, BATCH,
};

/// Probe-side records between cancellation checks in a hash join.
const CANCEL_BATCH: usize = 4096;

/// FxHash-style multiply hasher for the `i64` key-image maps (join tables
/// and group directories).  The images are already order-preserving values,
/// not adversarial input, so the std SipHash default buys nothing here and
/// costs measurably on large build sides; a rotate-xor-multiply over each
/// written word is the standard interner hash for exactly this shape.
#[derive(Default)]
struct ImageHasher(u64);

impl ImageHasher {
    #[inline(always)]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for ImageHasher {
    #[inline(always)]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline(always)]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline(always)]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
    #[inline(always)]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type ImageMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<ImageHasher>>;

/// Which interpreter dispatches the bytecode (DESIGN.md §15).
///
/// Both tiers produce bit-identical results and [`hique_types::ExecStats`]
/// work counters; they differ only in dispatch cost (and in the
/// `vm_batches`/`vm_fused_ops` counters recording which tier ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Batch interpretation: each op dispatched once per batch of tuples,
    /// filters narrowing a selection vector, fused superinstructions
    /// covering hot op pairs.  Fragments without a vectorized lowering
    /// fall back to the scalar loops per fragment, never per row.  The
    /// default tier.
    #[default]
    Vectorized,
    /// The original row-at-a-time reference interpreter.
    Scalar,
}

impl VmProgram {
    /// Execute this program on the default (vectorized) tier; see
    /// [`VmProgram::execute_with_tier`].
    pub fn execute(
        &self,
        generated: &GeneratedQuery,
        catalog: &Catalog,
        options: &ExecOptions,
    ) -> Result<QueryResult> {
        self.execute_with_tier(generated, catalog, options, Tier::default())
    }

    /// Execute this program on an explicit interpreter tier.
    ///
    /// `generated` must be the query the program was compiled for (or
    /// rebound to via [`VmProgram::bind`]): the plan-shape signature is
    /// re-derived and checked, so executing bytecode against a foreign plan
    /// is a typed error instead of garbage decoding.
    pub fn execute_with_tier(
        &self,
        generated: &GeneratedQuery,
        catalog: &Catalog,
        options: &ExecOptions,
        tier: Tier,
    ) -> Result<QueryResult> {
        run(self, generated, catalog, options, tier)
    }
}

fn run(
    program: &VmProgram,
    generated: &GeneratedQuery,
    catalog: &Catalog,
    options: &ExecOptions,
    tier: Tier,
) -> Result<QueryResult> {
    if crate::program::plan_signature(generated, catalog)? != program.signature {
        return Err(HiqueError::Execution(
            "bytecode program does not match the prepared plan shape".into(),
        ));
    }
    let plan = generated.plan();
    let code = &program.code[..];
    let consts = &program.pool;
    let mut stats = ExecStats::new();
    let mut timings = PhaseTimings::new();
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
        let input = stage_table(
            &info.heap,
            &plan.staged[t],
            &program.tables[t],
            program.vec.filters.get(t).and_then(|f| f.as_deref()),
            tier,
            code,
            consts,
            &mut stats,
            &pool,
            cancel,
        )?;
        staged[t] = Some(StagedSlot::stage(input, spill)?);
    }
    timings.record("staging", t0.elapsed());

    // ---- Joins -------------------------------------------------------------
    let t1 = Instant::now();
    let streams_to_sink = plan.aggregate.is_none();
    let mut sink = if options.collect_rows {
        OutputSink::Collect {
            outputs: &program.outputs,
            code,
            consts,
            regs: vec![0.0; program.float_registers],
            rows: Vec::new(),
        }
    } else {
        OutputSink::Count(0)
    };
    let mut final_slot: Option<StagedSlot> = None;

    // The join cascade, unified over binary steps and join teams: a team
    // over a shared key is a cascade of hash joins where the left key is
    // always member 0's key column (its offset is stable — member 0 stays
    // the record prefix as the intermediate grows).
    struct CascadeStep {
        right: usize,
        left_key: usize,
        right_key: usize,
        left_image: Frag,
        right_image: Frag,
        algorithm: JoinAlgorithm,
    }
    let steps: Vec<CascadeStep> = if let Some(team) = &plan.join_team {
        team.members[1..]
            .iter()
            .enumerate()
            .map(|(i, &m)| CascadeStep {
                right: m,
                left_key: team.key_columns[0],
                right_key: team.key_columns[i + 1],
                left_image: program.team_images[0],
                right_image: program.team_images[i + 1],
                algorithm: team.algorithm,
            })
            .collect()
    } else {
        plan.joins
            .iter()
            .zip(&program.joins)
            .map(|(step, frags)| CascadeStep {
                right: step.right,
                left_key: step.left_key,
                right_key: step.right_key,
                left_image: frags.left_image,
                right_image: frags.right_image,
                algorithm: step.algorithm,
            })
            .collect()
    };
    let first = if let Some(team) = &plan.join_team {
        team.members[0]
    } else {
        plan.join_order[0]
    };

    if steps.is_empty() {
        final_slot = Some(staged[first].take().expect("single input staged"));
    } else {
        let mut current_slot = staged[first].take().expect("first input staged");
        let mut current_schema = plan.staged[first].schema.clone();
        for (i, step) in steps.iter().enumerate() {
            cancel.check()?;
            let current = current_slot.into_input(spill)?;
            let right_desc = &plan.staged[step.right];
            let right = staged[step.right]
                .take()
                .expect("right input staged")
                .into_input(spill)?;
            let out_schema = current_schema.join(&right_desc.schema);
            let last = i == steps.len() - 1;
            let stream_this = last && streams_to_sink;

            let mut out = StagedRelation::new(out_schema.clone());
            let mut buf = vec![0u8; out_schema.tuple_size()];
            let mut consume = |lrec: &[u8], rrec: &[u8]| {
                buf[..lrec.len()].copy_from_slice(lrec);
                buf[lrec.len()..].copy_from_slice(rrec);
                if stream_this {
                    sink.consume(&buf);
                } else {
                    out.push(&buf);
                }
            };
            if step.algorithm == JoinAlgorithm::NestedLoops {
                // Forced degradation only (the optimizer never picks it):
                // the holistic engine's serial nested-loops kernel.
                nested_loops_join(
                    &current.relation,
                    &right.relation,
                    CompiledKey::compile(&current_schema, step.left_key),
                    CompiledKey::compile(&right_desc.schema, step.right_key),
                    &mut stats,
                    &mut consume,
                );
            } else {
                hash_join(
                    &current.relation,
                    &right.relation,
                    step.left_image.ops(code),
                    step.right_image.ops(code),
                    tier,
                    &mut stats,
                    cancel,
                    &mut consume,
                )?;
            }
            if !stream_this {
                stats.add_materialized(out.data_bytes());
                current_slot = StagedSlot::stage(StagedInput::unpartitioned(out), spill)?;
            } else {
                current_slot = StagedSlot::Mem(StagedInput::unpartitioned(StagedRelation::new(
                    out_schema.clone(),
                )));
            }
            current_schema = out_schema;
        }
        if !streams_to_sink {
            final_slot = Some(current_slot);
        }
    }
    timings.record("join", t1.elapsed());

    // ---- Aggregation -------------------------------------------------------
    let mut rows: Vec<Row> = Vec::new();
    if let Some(spec) = &plan.aggregate {
        let t2 = Instant::now();
        cancel.check()?;
        let frags = program
            .agg
            .as_ref()
            .expect("aggregation fragments compiled");
        let slot = final_slot
            .take()
            .ok_or_else(|| HiqueError::Execution("aggregation input missing".into()))?;
        let group_keys: Vec<CompiledKey> = spec
            .group_columns
            .iter()
            .map(|&c| CompiledKey::compile(&plan.joined_schema, c))
            .collect();
        let tuple_size = plan.joined_schema.tuple_size();
        let n_aggs = frags.args.len();
        let mut regs = vec![0.0f64; program.float_registers];
        // Hash aggregation in first-occurrence order: group identity is the
        // tuple of key images (the same identity the static kernels use for
        // directories and sort grouping).
        let mut index: ImageMap<Vec<i64>, usize> = ImageMap::default();
        let mut groups: Vec<(Vec<Value>, Vec<Accum>)> = Vec::new();
        if tier == Tier::Vectorized {
            // Page-batched aggregation: the batch is one page's packed
            // record area — for spilled inputs one *pinned* page at a time
            // (through the same guard the scalar consumer uses, so
            // `spill_consumer_peak_pages` stays 1), for in-memory inputs
            // the same page-shaped chunks.  Group-key images and argument
            // expressions evaluate into columnar lanes once per batch;
            // groups then update row-major in input order, reusing one
            // scratch key so only first occurrences allocate.
            let set = slot.partitions(spill)?;
            let n_groups = frags.group_images.len();
            let mut gimgs: Vec<Vec<i64>> = vec![Vec::new(); n_groups];
            let mut vals: Vec<Vec<f64>> = vec![Vec::new(); n_aggs];
            let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); program.float_registers];
            let mut key: Vec<i64> = vec![0; n_groups];
            for stream in set.streams() {
                stream.for_each_page(|data| {
                    let batch = Batch::Packed {
                        data,
                        width: tuple_size,
                    };
                    let n = batch.len();
                    stats.vm_batches += 1;
                    for (g, f) in frags.group_images.iter().enumerate() {
                        run_image_batch(f.ops(code), &batch, &mut gimgs[g]);
                    }
                    for (a, arg) in frags.args.iter().enumerate() {
                        let Some(f) = arg else { continue };
                        match program.vec.agg_args.get(a).and_then(|s| s.as_deref()) {
                            Some(steps) => run_expr_batch(
                                steps,
                                consts,
                                &batch,
                                &mut lanes,
                                &mut vals[a],
                                &mut stats.vm_fused_ops,
                            ),
                            None => {
                                // Per-fragment scalar fallback.
                                vals[a].clear();
                                for r in 0..n {
                                    vals[a].push(run_expr(
                                        f.ops(code),
                                        consts,
                                        batch.rec(r),
                                        &mut regs,
                                    ));
                                }
                            }
                        }
                    }
                    for r in 0..n {
                        stats.add_tuple(tuple_size);
                        stats.add_hashes(1);
                        for g in 0..n_groups {
                            key[g] = gimgs[g][r];
                        }
                        let gi = match index.get(key.as_slice()) {
                            Some(&gi) => gi,
                            None => {
                                let rec = batch.rec(r);
                                let values = group_keys.iter().map(|k| k.value(rec)).collect();
                                groups.push((values, vec![Accum::new(); n_aggs]));
                                index.insert(key.clone(), groups.len() - 1);
                                groups.len() - 1
                            }
                        };
                        let accums = &mut groups[gi].1;
                        for (a, arg) in frags.args.iter().enumerate() {
                            match arg {
                                Some(_) => accums[a].update(vals[a][r]),
                                None => accums[a].update_count_only(),
                            }
                        }
                    }
                })?;
            }
        } else {
            let mut process = |rec: &[u8]| {
                stats.add_tuple(tuple_size);
                stats.add_hashes(1);
                let key: Vec<i64> = frags
                    .group_images
                    .iter()
                    .map(|f| run_image(f.ops(code), rec))
                    .collect();
                let gi = match index.get(&key) {
                    Some(&gi) => gi,
                    None => {
                        let values = group_keys.iter().map(|k| k.value(rec)).collect();
                        groups.push((values, vec![Accum::new(); n_aggs]));
                        index.insert(key, groups.len() - 1);
                        groups.len() - 1
                    }
                };
                let accums = &mut groups[gi].1;
                for (a, arg) in frags.args.iter().enumerate() {
                    match arg {
                        Some(f) => accums[a].update(run_expr(f.ops(code), consts, rec, &mut regs)),
                        None => accums[a].update_count_only(),
                    }
                }
            };
            if slot.is_spilled() {
                // Page-at-a-time: aggregate straight off pinned pool pages.
                let set = slot.partitions(spill)?;
                set.for_each_record(&mut process)?;
            } else {
                let input = slot.into_input(spill)?;
                for rec in input.relation.records() {
                    process(rec);
                }
            }
        }
        for (values, accums) in &groups {
            let row: Vec<Value> = program
                .outputs
                .iter()
                .map(|o| match o {
                    OutputOp::Group(p) => values[*p].clone(),
                    OutputOp::Aggregate(i) => {
                        let a = &spec.aggregates[*i];
                        accums[*i].finish(a.func, a.dtype)
                    }
                    _ => unreachable!("scalar output in aggregate query"),
                })
                .collect();
            rows.push(Row::new(row));
        }
        timings.record("aggregation", t2.elapsed());
    } else if let Some(slot) = final_slot.take() {
        let t3 = Instant::now();
        cancel.check()?;
        if slot.is_spilled() {
            // Page-at-a-time decode off pinned pool pages; the spilled
            // relation is never re-materialized on its way to the sink.
            let set = slot.partitions(spill)?;
            set.for_each_record(|rec| sink.consume(rec))?;
        } else {
            let input = slot.into_input(spill)?;
            for rec in input.relation.records() {
                sink.consume(rec);
            }
        }
        timings.record("output", t3.elapsed());
    }

    // ---- Finalize ----------------------------------------------------------
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

/// Scan one base table through its bytecode filter/projection fragments,
/// dividing the heap pages across the pool.  Page chunks are merged in
/// chunk order, so the staged relation is byte-identical for every thread
/// count; workers observe the shared cancellation token once per page.
///
/// On the vectorized tier the batch is one heap page's packed record
/// area, filled under the same pin guard the scalar loop scans under:
/// the fused filter narrows a selection vector and the projection sweeps
/// the survivors column-major.  Page boundaries are invariant across
/// `chunk_ranges` splits, so `vm_batches` is deterministic per thread
/// count.
// The scalar kernel's parameter list plus the tier and fused-filter inputs;
// a params struct would just rename the arguments.
#[allow(clippy::too_many_arguments)]
fn stage_table(
    heap: &TableHeap,
    desc: &StagedTable,
    frags: &TableFrags,
    vec_filter: Option<&[VecStep]>,
    tier: Tier,
    code: &[Op],
    consts: &ConstPool,
    stats: &mut ExecStats,
    pool: &ScopedPool,
    cancel: &CancelToken,
) -> Result<StagedInput> {
    let base_ts = heap.schema().tuple_size();
    let out_width = desc.schema.tuple_size();
    let chunks = chunk_ranges(heap.num_pages(), pool.threads());
    // One operator invocation: the compiled staging fragment is one call.
    stats.add_calls(1);
    let worker_outputs: Vec<Result<(Vec<u8>, ExecStats)>> = pool.map_items(&chunks, |_, pages| {
        let mut local = ExecStats::new();
        let mut out: Vec<u8> = Vec::new();
        if tier == Tier::Vectorized {
            let mut sel: Vec<u32> = Vec::new();
            for p in pages.clone() {
                cancel.check()?;
                let page = heap.page_guard(p)?;
                let data = page.data();
                // The verifier proved every fragment access in-bounds for
                // the base schema; the page must really hold records of
                // that width.
                debug_assert_eq!(
                    data.len() % base_ts.max(1),
                    0,
                    "heap page width diverges from the schema the program was verified against"
                );
                let batch = Batch::Packed {
                    data,
                    width: base_ts,
                };
                let n = batch.len();
                local.vm_batches += 1;
                local.tuples_processed += n as u64;
                local.bytes_touched += (n * base_ts) as u64;
                match vec_filter {
                    Some(steps) => run_filter_batch(
                        steps,
                        consts,
                        &batch,
                        &mut sel,
                        &mut local.comparisons,
                        &mut local.vm_fused_ops,
                    ),
                    None => {
                        // Per-fragment scalar fallback: same selection,
                        // row-at-a-time filter.
                        sel.clear();
                        for r in 0..n {
                            if run_filter(
                                frags.filter.ops(code),
                                consts,
                                batch.rec(r),
                                &mut local.comparisons,
                            ) {
                                sel.push(r as u32);
                            }
                        }
                    }
                }
                run_project_batch(frags.project.ops(code), &batch, &sel, out_width, &mut out);
            }
        } else {
            let mut buf = vec![0u8; out_width];
            for p in pages.clone() {
                cancel.check()?;
                let page = heap.page_guard(p)?;
                for record in page.records() {
                    // The verifier proved every fragment access in-bounds for
                    // the base schema; the record must really have that width.
                    debug_assert_eq!(
                        record.len(),
                        base_ts,
                        "heap record width diverges from the schema the program was verified against"
                    );
                    local.add_tuple(base_ts);
                    if !run_filter(
                        frags.filter.ops(code),
                        consts,
                        record,
                        &mut local.comparisons,
                    ) {
                        continue;
                    }
                    run_project(frags.project.ops(code), record, &mut buf);
                    out.extend_from_slice(&buf);
                }
            }
        }
        Ok((out, local))
    });
    let mut data: Vec<u8> = Vec::new();
    for r in worker_outputs {
        let (chunk, local) = r?;
        data.extend_from_slice(&chunk);
        stats.merge(&local);
    }
    let rel = StagedRelation::from_partitions(desc.schema.clone(), vec![data]);
    stats.add_materialized(rel.data_bytes());
    Ok(StagedInput::unpartitioned(rel))
}

/// Deterministic hash join over key images: build the right input in its
/// staging order, probe the left input in its staging order, emit matches
/// left-major with build-order ties — one fixed emission order regardless
/// of thread count or partitioning, matching every staging strategy the
/// planner may have chosen for the inputs (the images are the keys the
/// strategies organise by).
fn hash_join(
    left: &StagedRelation,
    right: &StagedRelation,
    left_image: &[Op],
    right_image: &[Op],
    tier: Tier,
    stats: &mut ExecStats,
    cancel: &CancelToken,
    emit: &mut impl FnMut(&[u8], &[u8]),
) -> Result<()> {
    // One generated join function per step.
    stats.add_calls(1);
    let rrecs: Vec<&[u8]> = right.records().collect();
    let mut table: ImageMap<i64, Vec<u32>> = ImageMap::default();
    if tier == Tier::Vectorized {
        // Key images evaluate into an `i64` lane once per batch; inserts,
        // probes and emission then run row-major in the exact build/probe
        // order of the scalar loops, so the emitted stream is identical.
        let mut keys: Vec<i64> = Vec::new();
        for (c, chunk) in rrecs.chunks(BATCH).enumerate() {
            stats.vm_batches += 1;
            run_image_batch(right_image, &Batch::Refs(chunk), &mut keys);
            let base = c * BATCH;
            for (j, rec) in chunk.iter().enumerate() {
                stats.add_tuple(rec.len());
                stats.add_hashes(1);
                table.entry(keys[j]).or_default().push((base + j) as u32);
            }
        }
        let mut scratch: Vec<&[u8]> = Vec::new();
        for_each_ref_batch(left.records(), &mut scratch, |batch| {
            cancel.check()?;
            stats.vm_batches += 1;
            run_image_batch(left_image, &Batch::Refs(batch), &mut keys);
            for (j, lrec) in batch.iter().enumerate() {
                stats.add_tuple(lrec.len());
                stats.add_hashes(1);
                if let Some(matches) = table.get(&keys[j]) {
                    stats.add_comparisons(matches.len() as u64);
                    for &ri in matches {
                        emit(lrec, rrecs[ri as usize]);
                    }
                }
            }
            Ok(())
        })?;
        return Ok(());
    }
    for (i, rec) in rrecs.iter().enumerate() {
        stats.add_tuple(rec.len());
        stats.add_hashes(1);
        table
            .entry(run_image(right_image, rec))
            .or_default()
            .push(i as u32);
    }
    let mut since_check = 0usize;
    for lrec in left.records() {
        since_check += 1;
        if since_check >= CANCEL_BATCH {
            since_check = 0;
            cancel.check()?;
        }
        stats.add_tuple(lrec.len());
        stats.add_hashes(1);
        if let Some(matches) = table.get(&run_image(left_image, lrec)) {
            stats.add_comparisons(matches.len() as u64);
            for &ri in matches {
                emit(lrec, rrecs[ri as usize]);
            }
        }
    }
    Ok(())
}

/// A sink receiving final (non-aggregated) output tuples.
enum OutputSink<'a> {
    Collect {
        outputs: &'a [OutputOp],
        code: &'a [Op],
        consts: &'a ConstPool,
        regs: Vec<f64>,
        rows: Vec<Row>,
    },
    Count(u64),
}

impl OutputSink<'_> {
    #[inline]
    fn consume(&mut self, record: &[u8]) {
        match self {
            OutputSink::Collect {
                outputs,
                code,
                consts,
                regs,
                rows,
            } => {
                rows.push(decode_output_row(outputs, code, consts, regs, record));
            }
            OutputSink::Count(n) => *n += 1,
        }
    }
}

/// Decode one record through the bytecode output kernels (the VM analogue
/// of the holistic executor's `decode_output_row`, including its numeric
/// cast table).
fn decode_output_row(
    outputs: &[OutputOp],
    code: &[Op],
    consts: &ConstPool,
    regs: &mut [f64],
    record: &[u8],
) -> Row {
    let values: Vec<Value> = outputs
        .iter()
        .map(|o| match o {
            OutputOp::Column(key) => key.value(record),
            OutputOp::Expr(frag, dtype) => {
                let v = run_expr(frag.ops(code), consts, record, regs);
                match dtype {
                    DataType::Int32 => Value::Int32(v as i32),
                    DataType::Int64 => Value::Int64(v as i64),
                    DataType::Date => Value::Date(v as i32),
                    _ => Value::Float64(v),
                }
            }
            OutputOp::Group(_) | OutputOp::Aggregate(_) => {
                unreachable!("aggregate kernels in a non-aggregate sink")
            }
        })
        .collect();
    Row::new(values)
}

/// Aggregate accumulator with the exact semantics of the static kernels'
/// (`sum`/`count`/`min`/`max` over `f64`, typed finish per function).
#[derive(Debug, Clone, Copy)]
struct Accum {
    sum: f64,
    count: i64,
    min: f64,
    max: f64,
}

impl Accum {
    fn new() -> Self {
        Accum {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline(always)]
    fn update(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    #[inline(always)]
    fn update_count_only(&mut self) {
        self.count += 1;
    }

    fn finish(&self, func: AggFunc, dtype: DataType) -> Value {
        match func {
            AggFunc::Count => Value::Int64(self.count),
            AggFunc::Sum => match dtype {
                DataType::Int64 => Value::Int64(self.sum as i64),
                DataType::Int32 => Value::Int32(self.sum as i32),
                _ => Value::Float64(self.sum),
            },
            AggFunc::Avg => Value::Float64(if self.count == 0 {
                f64::NAN
            } else {
                self.sum / self.count as f64
            }),
            AggFunc::Min => Value::Float64(self.min),
            AggFunc::Max => Value::Float64(self.max),
        }
    }
}
