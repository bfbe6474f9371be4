//! Query results and result finalization helpers shared by all engines.
//!
//! Every engine (iterator, DSM, holistic) returns the same [`QueryResult`]
//! structure so that integration tests can assert cross-engine equivalence
//! and the benchmark harness can report identical row counts next to the
//! timing and counter columns.

use std::time::Duration;

use crate::row::Row;
use crate::schema::Schema;
use crate::stats::ExecStats;

/// Wall-clock time spent in each named execution phase.
///
/// The paper breaks execution time into staging/join/aggregation work when
/// discussing Figures 5 and 6.  The holistic and VM engines record those
/// phases here; the iterator and DSM engines leave it empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimings {
    phases: Vec<(String, Duration)>,
}

impl PhaseTimings {
    /// An empty set of phases.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a phase duration (phases with the same name accumulate).
    pub fn record(&mut self, name: &str, d: Duration) {
        if let Some(entry) = self.phases.iter_mut().find(|(n, _)| n == name) {
            entry.1 += d;
        } else {
            self.phases.push((name.to_string(), d));
        }
    }

    /// All recorded phases in insertion order.
    pub fn phases(&self) -> &[(String, Duration)] {
        &self.phases
    }

    /// Duration of a named phase, if recorded.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
    }

    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }
}

/// The materialized result of a query plus execution metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Result schema.
    pub schema: Schema,
    /// Result rows (already ordered and limited).
    pub rows: Vec<Row>,
    /// Software execution counters.
    pub stats: ExecStats,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
}

impl QueryResult {
    /// Create a result with empty stats/timings.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        QueryResult {
            schema,
            rows,
            stats: ExecStats::new(),
            timings: PhaseTimings::new(),
        }
    }

    /// Number of result rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render the result as pipe-separated text (header + rows), used by the
    /// examples and by golden tests.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.schema.names().join("|"));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.to_string());
            out.push('\n');
        }
        out
    }
}

/// Compare two rows under (column index, ascending) keys, major key first
/// — the one comparator behind [`sort_rows`] and every chunk-sort/merge
/// built on it, so parallel merges can never diverge from the serial sort
/// rule.
pub fn cmp_rows(a: &Row, b: &Row, keys: &[(usize, bool)]) -> std::cmp::Ordering {
    for &(col, asc) in keys {
        let ord = a.get(col).total_cmp(b.get(col));
        let ord = if asc { ord } else { ord.reverse() };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Sort rows by the given (column index, ascending) keys, major key first.
///
/// The sort is stable so that rows equal under the keys keep their input
/// order, which keeps cross-engine comparisons deterministic.
pub fn sort_rows(rows: &mut [Row], keys: &[(usize, bool)]) {
    if keys.is_empty() {
        return;
    }
    rows.sort_by(|a, b| cmp_rows(a, b, keys));
}

/// Apply ORDER BY keys and LIMIT to a result row set in place.
pub fn finalize_rows(rows: &mut Vec<Row>, order_by: &[(usize, bool)], limit: Option<u64>) {
    sort_rows(rows, order_by);
    if let Some(l) = limit {
        rows.truncate(l as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Column;
    use crate::value::Value;

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Int32(2), Value::Str("b".into())]),
            Row::new(vec![Value::Int32(1), Value::Str("c".into())]),
            Row::new(vec![Value::Int32(1), Value::Str("a".into())]),
        ]
    }

    #[test]
    fn sort_rows_multi_key() {
        let mut r = rows();
        sort_rows(&mut r, &[(0, true), (1, true)]);
        assert_eq!(r[0].get(1), &Value::Str("a".into()));
        assert_eq!(r[2].get(0), &Value::Int32(2));
        let mut r = rows();
        sort_rows(&mut r, &[(0, false)]);
        assert_eq!(r[0].get(0), &Value::Int32(2));
    }

    #[test]
    fn finalize_applies_limit() {
        let mut r = rows();
        finalize_rows(&mut r, &[(1, true)], Some(2));
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].get(1), &Value::Str("a".into()));
        let mut r2 = rows();
        finalize_rows(&mut r2, &[], None);
        assert_eq!(r2.len(), 3);
    }

    #[test]
    fn timings_accumulate_by_name() {
        let mut t = PhaseTimings::new();
        t.record("staging", Duration::from_millis(5));
        t.record("join", Duration::from_millis(10));
        t.record("staging", Duration::from_millis(7));
        assert_eq!(t.get("staging"), Some(Duration::from_millis(12)));
        assert_eq!(t.get("missing"), None);
        assert_eq!(t.total(), Duration::from_millis(22));
        assert_eq!(t.phases().len(), 2);
    }

    #[test]
    fn result_text_rendering() {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int32),
            Column::new("s", DataType::Char(1)),
        ]);
        let res = QueryResult::new(schema, rows());
        assert_eq!(res.num_rows(), 3);
        let text = res.to_text();
        assert!(text.starts_with("k|s\n"));
        assert!(text.contains("2|b\n"));
    }
}
