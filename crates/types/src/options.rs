//! Per-execution options shared by every engine.

use crate::CancelToken;

/// Execution options: the one argument every engine entry point takes.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// When `false`, the final result rows are not materialized — the
    /// executor only counts them (`stats.rows_out`), mirroring the paper's
    /// methodology of not materializing query output in the
    /// micro-benchmarks.  Aggregate results (a handful of groups) are always
    /// materialized, and the DSM engine always materializes.
    pub collect_rows: bool,
    /// Worker threads for partition-parallel execution; `0` inherits the
    /// plan's configured count (`PlannerConfig::threads`).  Every thread
    /// count produces the same result for every query (DESIGN.md §7).
    pub threads: usize,
    /// Memory budget in buffer-pool pages; `0` inherits the plan's
    /// configured budget (`PlannerConfig::memory_budget_pages`).
    /// Effective only on a catalog running in paged mode: temporaries above
    /// a fraction of the budget are written through the catalog's buffer
    /// pool and reloaded on use (DESIGN.md §9).
    pub memory_budget_pages: usize,
    /// Cooperative cancellation token, polled at page-granularity points
    /// (heap-scan pages, join steps, partition-stream pulls, spill-admission
    /// waits).  The default disabled token never fires (DESIGN.md §12).
    pub cancel: CancelToken,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            collect_rows: true,
            threads: 0,
            memory_budget_pages: 0,
            cancel: CancelToken::disabled(),
        }
    }
}
