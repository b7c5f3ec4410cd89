//! The SPJ query model.
//!
//! A query is a connected set of tables (its join pattern — the join
//! predicate is the one induced by the schema's PK–FK tree) plus inclusive
//! range predicates over attributes of those tables. This is the query class
//! every query-driven CE model in the paper supports.

use pace_data::Schema;

/// An inclusive range predicate `lo ≤ table.col ≤ hi`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Predicate {
    /// Table index in the schema.
    pub table: usize,
    /// Column index within the table.
    pub col: usize,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

/// A select-project-join query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// Sorted table indices forming a connected join pattern.
    pub tables: Vec<usize>,
    /// Range predicates; every predicate's table must appear in `tables`.
    pub predicates: Vec<Predicate>,
}

impl Query {
    /// Creates a query, normalizing table order.
    pub fn new(mut tables: Vec<usize>, predicates: Vec<Predicate>) -> Self {
        tables.sort_unstable();
        tables.dedup();
        Self { tables, predicates }
    }

    /// Whether the query is well-formed against `schema`: non-empty connected
    /// pattern of distinct in-range tables, predicates on in-pattern
    /// attribute columns, ordered bounds. Allocates nothing: the serving
    /// runtime calls it on every request it admits.
    pub fn is_valid(&self, schema: &Schema) -> bool {
        schema.is_connected(&self.tables)
            && self.predicates.iter().all(|p| {
                p.lo <= p.hi
                    && schema.is_attribute(p.table, p.col)
                    && self.tables.contains(&p.table)
            })
    }

    /// The predicates that apply to one table.
    pub fn predicates_on(&self, table: usize) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(move |p| p.table == table)
    }

    /// True when the query touches a single table.
    pub fn is_single_table(&self) -> bool {
        self.tables.len() == 1
    }
}

/// A query paired with its true cardinality.
#[derive(Clone, PartialEq, Debug)]
pub struct LabeledQuery {
    /// The query.
    pub query: Query,
    /// Exact `COUNT(*)` result.
    pub cardinality: u64,
}

/// A set of labeled queries (training workload, test workload, …).
pub type Workload = Vec<LabeledQuery>;

#[cfg(test)]
mod tests {
    use super::*;
    use pace_data::schema::{table, JoinEdge};

    fn schema() -> Schema {
        Schema::new(
            "s",
            vec![
                table("a", &["id"], &[], &["x"]),
                table("b", &["id"], &["a_id"], &["y"]),
            ],
            vec![JoinEdge {
                left: (0, 0),
                right: (1, 1),
            }],
        )
    }

    #[test]
    fn new_sorts_and_dedups() {
        let q = Query::new(vec![1, 0, 1], vec![]);
        assert_eq!(q.tables, vec![0, 1]);
    }

    #[test]
    fn validity_checks() {
        let s = schema();
        let ok = Query::new(
            vec![0, 1],
            vec![Predicate {
                table: 0,
                col: 1,
                lo: 0,
                hi: 5,
            }],
        );
        assert!(ok.is_valid(&s));
        // Predicate on a table not in the pattern.
        let bad = Query::new(
            vec![0],
            vec![Predicate {
                table: 1,
                col: 2,
                lo: 0,
                hi: 5,
            }],
        );
        assert!(!bad.is_valid(&s));
        // Reversed bounds.
        let bad = Query::new(
            vec![0],
            vec![Predicate {
                table: 0,
                col: 1,
                lo: 5,
                hi: 0,
            }],
        );
        assert!(!bad.is_valid(&s));
        // Predicate on a key column.
        let bad = Query::new(
            vec![0],
            vec![Predicate {
                table: 0,
                col: 0,
                lo: 0,
                hi: 5,
            }],
        );
        assert!(!bad.is_valid(&s));
        // Empty pattern.
        assert!(!Query::new(vec![], vec![]).is_valid(&s));
        // Out-of-range or repeated tables, singleton or not (the fields are
        // public, so a query need not come through `Query::new`).
        for tables in [vec![99], vec![0, 99], vec![0, 0]] {
            let bad = Query {
                tables,
                predicates: vec![],
            };
            assert!(!bad.is_valid(&s), "{bad:?}");
        }
        // Predicate on an out-of-range table or column.
        for (table, col) in [(99, 1), (0, 99)] {
            let bad = Query::new(
                vec![0],
                vec![Predicate {
                    table,
                    col,
                    lo: 0,
                    hi: 5,
                }],
            );
            assert!(!bad.is_valid(&s), "{bad:?}");
        }
    }

    #[test]
    fn predicates_on_filters_by_table() {
        let q = Query::new(
            vec![0, 1],
            vec![
                Predicate {
                    table: 0,
                    col: 1,
                    lo: 0,
                    hi: 1,
                },
                Predicate {
                    table: 1,
                    col: 2,
                    lo: 2,
                    hi: 3,
                },
            ],
        );
        assert_eq!(q.predicates_on(1).count(), 1);
        assert_eq!(
            q.predicates_on(0)
                .next()
                .expect("table 0 has a predicate")
                .hi,
            1
        );
    }
}
