//! The TPC-H queries evaluated by the paper (Figure 8): Q1, Q3 and Q10.
//!
//! The SQL text is the standard TPC-H formulation restricted to the dialect
//! supported by the engine (explicit join predicates in `WHERE`, no nested
//! queries — which these three queries do not need anyway).

/// TPC-H Query 1: pricing summary report.
///
/// Aggregation over almost the entire `lineitem` table producing four
/// groups; the paper's headline result (167× over PostgreSQL, 4× over
/// MonetDB) comes from holistic map aggregation on this query.
pub const Q1_SQL: &str = "\
select l_returnflag, l_linestatus, \
       sum(l_quantity) as sum_qty, \
       sum(l_extendedprice) as sum_base_price, \
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
       avg(l_quantity) as avg_qty, \
       avg(l_extendedprice) as avg_price, \
       avg(l_discount) as avg_disc, \
       count(*) as count_order \
from lineitem \
where l_shipdate <= date '1998-12-01' - interval '90' day \
group by l_returnflag, l_linestatus \
order by l_returnflag, l_linestatus";

/// TPC-H Query 3: shipping priority.
pub const Q3_SQL: &str = "\
select l.l_orderkey, \
       sum(l.l_extendedprice * (1 - l.l_discount)) as revenue, \
       o.o_orderdate, o.o_shippriority \
from customer c, orders o, lineitem l \
where c.c_mktsegment = 'BUILDING' \
  and c.c_custkey = o.o_custkey \
  and l.l_orderkey = o.o_orderkey \
  and o.o_orderdate < date '1995-03-15' \
  and l.l_shipdate > date '1995-03-15' \
group by l.l_orderkey, o.o_orderdate, o.o_shippriority \
order by revenue desc, o.o_orderdate \
limit 10";

/// TPC-H Query 10: returned item reporting.
pub const Q10_SQL: &str = "\
select c.c_custkey, c.c_name, \
       sum(l.l_extendedprice * (1 - l.l_discount)) as revenue, \
       c.c_acctbal, n.n_name, c.c_address, c.c_phone \
from customer c, orders o, lineitem l, nation n \
where c.c_custkey = o.o_custkey \
  and l.l_orderkey = o.o_orderkey \
  and c.c_nationkey = n.n_nationkey \
  and o.o_orderdate >= date '1993-10-01' \
  and o.o_orderdate < date '1994-01-01' \
  and l.l_returnflag = 'R' \
group by c.c_custkey, c.c_name, c.c_acctbal, c.c_phone, n.n_name, c.c_address \
order by revenue desc \
limit 20";

/// All (name, SQL) pairs, in the order the paper reports them.
pub fn all_queries() -> Vec<(&'static str, &'static str)> {
    vec![("Q1", Q1_SQL), ("Q3", Q3_SQL), ("Q10", Q10_SQL)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_into_catalog;
    use hique_plan::{plan_query, plan_sql, CatalogProvider, PlannerConfig};

    #[test]
    fn queries_parse_analyze_and_plan() {
        let catalog = generate_into_catalog(0.001).unwrap();
        for (name, sql) in all_queries() {
            let parsed = hique_sql::parse_query(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
            let bound = hique_sql::analyze(&parsed, &CatalogProvider::new(&catalog))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let plan = plan_query(&bound, &catalog, &PlannerConfig::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(plan.aggregate.is_some(), "{name} aggregates");
        }
    }

    #[test]
    fn q1_plan_uses_map_aggregation() {
        let catalog = generate_into_catalog(0.001).unwrap();
        let plan = plan_sql(Q1_SQL, &catalog, &PlannerConfig::default()).unwrap();
        assert_eq!(
            plan.aggregate.as_ref().unwrap().algorithm,
            hique_plan::AggAlgorithm::Map,
            "Q1 groups on (returnflag, linestatus): 6 combinations -> map aggregation"
        );
        assert!(!plan.has_joins());
        assert_eq!(plan.output_schema.len(), 10);
    }

    #[test]
    fn q3_and_q10_plans_are_join_cascades() {
        let catalog = generate_into_catalog(0.001).unwrap();
        for (name, sql, tables) in [("Q3", Q3_SQL, 3usize), ("Q10", Q10_SQL, 4usize)] {
            let plan = plan_sql(sql, &catalog, &PlannerConfig::default()).unwrap();
            assert_eq!(plan.staged.len(), tables, "{name}");
            assert!(plan.join_team.is_none(), "{name}: joins use different keys");
            assert_eq!(plan.joins.len(), tables - 1, "{name}");
            assert!(plan.limit.is_some(), "{name}");
        }
    }
}
