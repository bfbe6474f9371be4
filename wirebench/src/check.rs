//! Answer checking against a reference computed with the DSM engine.
//!
//! The served engines are `holistic` and `vm`; the reference plans each
//! statement afresh (default planner settings, no plan cache) and runs it
//! on the column-at-a-time DSM engine over the same deterministic
//! `generate_into_catalog(sf)` fixture, in the benchmark process and
//! outside any timed region.

use std::collections::HashMap;

use hique_dsm::DsmDatabase;
use hique_plan::{plan_query, CatalogProvider, PhysicalPlan, PlannerConfig};
use hique_storage::Catalog;
use hique_types::Value;

use crate::client::Reply;

/// The expected reply of one statement.
struct Expected {
    status: String,
    header: String,
    rows: Vec<Vec<Value>>,
}

pub struct Reference<'a> {
    catalog: &'a Catalog,
    dsm: &'a DsmDatabase,
    planner: PlannerConfig,
    cache: HashMap<String, Result<Expected, String>>,
}

impl<'a> Reference<'a> {
    pub fn new(catalog: &'a Catalog, dsm: &'a DsmDatabase) -> Reference<'a> {
        Reference {
            catalog,
            dsm,
            planner: PlannerConfig::default(),
            cache: HashMap::new(),
        }
    }

    fn compute(&self, sql: &str) -> Result<Expected, String> {
        let plan = plan(sql, self.catalog, &self.planner)?;
        let result = hique_dsm::execute_plan(&plan, self.dsm).map_err(|e| e.to_string())?;
        let names = result.schema.names();
        Ok(Expected {
            status: format!("OK {} {}", result.rows.len(), names.len()),
            header: names.join("\t"),
            rows: result.rows.iter().map(|r| r.values().to_vec()).collect(),
        })
    }

    /// Check `reply` against the reference answer for `sql`.
    pub fn check(&mut self, sql: &str, reply: &Reply) -> Result<(), String> {
        if !self.cache.contains_key(sql) {
            let expected = self.compute(sql);
            self.cache.insert(sql.to_string(), expected);
        }
        let expected = match &self.cache[sql] {
            Ok(expected) => expected,
            Err(e) => return Err(format!("reference failed: {e}")),
        };
        if reply.status != expected.status {
            return Err(format!(
                "status {:?}, expected {:?}",
                reply.status, expected.status
            ));
        }
        let Some((header, rows)) = reply.lines.split_first() else {
            return Err("reply has no header line".into());
        };
        if *header != expected.header {
            return Err(format!("header {header:?}, expected {:?}", expected.header));
        }
        if rows.len() != expected.rows.len() {
            return Err(format!(
                "{} row lines, expected {}",
                rows.len(),
                expected.rows.len()
            ));
        }
        for (i, (line, want)) in rows.iter().zip(&expected.rows).enumerate() {
            let got: Vec<&str> = line.split('\t').collect();
            if got.len() != want.len() || !got.iter().zip(want).all(|(g, w)| same(g, w)) {
                return Err(format!("row {i} is {line:?}, expected {want:?}"));
            }
        }
        Ok(())
    }
}

/// Parse, analyze and plan `sql`, as `Session::prepare` does before code
/// generation.
pub fn plan(sql: &str, catalog: &Catalog, planner: &PlannerConfig) -> Result<PhysicalPlan, String> {
    let query = hique_sql::parse_query(sql).map_err(|e| format!("parse: {e}"))?;
    let bound = hique_sql::analyze(&query, &CatalogProvider::new(catalog))
        .map_err(|e| format!("analyze: {e}"))?;
    plan_query(&bound, catalog, planner).map_err(|e| format!("plan: {e}"))
}

/// Whether a rendered field matches a reference value.  The wire renders
/// floats with four decimals, and engines may sum in different orders, so
/// floats match within half a unit of the last printed digit plus a
/// relative `1e-9`; every other type must render identically.
fn same(got: &str, want: &Value) -> bool {
    match want {
        Value::Float64(w) => got
            .parse::<f64>()
            .is_ok_and(|g| (g - w).abs() <= 0.5e-4 + 1e-9 * w.abs()),
        other => got == other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(text: &str) -> Reply {
        crate::client::read_reply(&mut std::io::Cursor::new(text.as_bytes())).unwrap()
    }

    #[test]
    fn checks_status_header_rows_and_float_tolerance() {
        let catalog = hique_tpch::generate_into_catalog(0.001).unwrap();
        let dsm = DsmDatabase::from_catalog(&catalog).unwrap();
        let mut reference = Reference::new(&catalog, &dsm);
        let sql = "select r_regionkey, r_name from region order by r_regionkey";
        let good = "OK 5 2\nr_regionkey\tr_name\n0\tAFRICA\n1\tAMERICA\n2\tASIA\n\
                    3\tEUROPE\n4\tMIDDLE EAST\n.\n";
        assert_eq!(reference.check(sql, &reply(good)), Ok(()));
        let wrong_row = good.replace("ASIA", "ASIA ");
        assert!(reference.check(sql, &reply(&wrong_row)).is_err());
        let wrong_status = good.replace("OK 5 2", "OK 4 2");
        assert!(reference.check(sql, &reply(&wrong_status)).is_err());
        assert!(reference
            .check(sql, &reply("ERR execution: boom\n.\n"))
            .is_err());

        assert!(same("1.2346", &Value::Float64(1.234_56)));
        assert!(!same("1.2347", &Value::Float64(1.234_56)));
        assert!(!same("x", &Value::Float64(1.0)));
        assert!(same("7", &Value::Int32(7)));
    }
}
