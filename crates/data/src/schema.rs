//! Relational schema metadata: tables, columns, and the PK–FK join graph.
//!
//! All four evaluation schemas (DMV, IMDB, TPC-H, STATS) have *acyclic* join
//! graphs in this reproduction (see DESIGN.md for the two edges dropped from
//! TPC-H/STATS to break cycles). Acyclicity is what lets the engine compute
//! exact join cardinalities in linear time, and is asserted at construction.

/// How a column participates in queries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColumnRole {
    /// Primary key (row id); join-only, never filtered.
    Key,
    /// Foreign key referencing another table's key; join-only.
    ForeignKey,
    /// Data attribute; eligible for range predicates.
    Attribute,
}

/// One column of a table.
#[derive(Clone, Debug)]
pub struct ColumnDef {
    /// Column name, unique within its table.
    pub name: String,
    /// Role in query processing.
    pub role: ColumnRole,
}

/// One table of a schema.
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Table name, unique within the schema.
    pub name: String,
    /// Columns in storage order.
    pub columns: Vec<ColumnDef>,
}

impl TableDef {
    /// Index of the column with the given name.
    ///
    /// # Panics
    /// Panics when the column does not exist (schema-construction error).
    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| panic!("table {} has no column {name}", self.name))
    }
}

/// An equi-join edge `left.col = right.col` of the join graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JoinEdge {
    /// `(table index, column index)` of one side.
    pub left: (usize, usize),
    /// `(table index, column index)` of the other side.
    pub right: (usize, usize),
}

/// A database schema: tables plus an acyclic join graph.
#[derive(Clone, Debug)]
pub struct Schema {
    /// Schema name (e.g. `"imdb"`).
    pub name: String,
    /// Tables in index order.
    pub tables: Vec<TableDef>,
    /// Join edges; the induced graph must be a forest.
    pub edges: Vec<JoinEdge>,
}

impl Schema {
    /// Creates a schema, validating name uniqueness and join-graph acyclicity.
    ///
    /// # Panics
    /// Panics on duplicate table names, out-of-range edge endpoints, or a
    /// cyclic join graph.
    pub fn new(name: impl Into<String>, tables: Vec<TableDef>, edges: Vec<JoinEdge>) -> Self {
        let schema = Self {
            name: name.into(),
            tables,
            edges,
        };
        schema.validate();
        schema
    }

    fn validate(&self) {
        for (i, t) in self.tables.iter().enumerate() {
            for (j, u) in self.tables.iter().enumerate() {
                assert!(
                    i == j || t.name != u.name,
                    "duplicate table name {}",
                    t.name
                );
            }
        }
        // Union-find cycle check.
        let mut parent: Vec<usize> = (0..self.tables.len()).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for e in &self.edges {
            let (lt, lc) = e.left;
            let (rt, rc) = e.right;
            assert!(
                lt < self.tables.len() && rt < self.tables.len(),
                "edge table out of range"
            );
            assert!(
                lc < self.tables[lt].columns.len(),
                "edge column out of range"
            );
            assert!(
                rc < self.tables[rt].columns.len(),
                "edge column out of range"
            );
            let (a, b) = (find(&mut parent, lt), find(&mut parent, rt));
            assert!(
                a != b,
                "join graph has a cycle through {}",
                self.tables[lt].name
            );
            parent[a] = b;
        }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Index of the table with the given name.
    ///
    /// # Panics
    /// Panics when the table does not exist.
    pub fn table(&self, name: &str) -> usize {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .unwrap_or_else(|| panic!("schema {} has no table {name}", self.name))
    }

    /// Global list of filterable attributes as `(table, column)` pairs, in a
    /// canonical order shared by query encodings.
    pub fn attributes(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (t, table) in self.tables.iter().enumerate() {
            for (c, col) in table.columns.iter().enumerate() {
                if col.role == ColumnRole::Attribute {
                    out.push((t, c));
                }
            }
        }
        out
    }

    /// Number of filterable attributes across all tables.
    pub fn num_attributes(&self) -> usize {
        self.attributes().len()
    }

    /// Adjacency lists of the join graph: `adj[t] = [(neighbor, edge idx)]`.
    pub fn adjacency(&self) -> Vec<Vec<(usize, usize)>> {
        let mut adj = vec![Vec::new(); self.tables.len()];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.left.0].push((e.right.0, i));
            adj[e.right.0].push((e.left.0, i));
        }
        adj
    }

    /// Whether `(table, col)` is a filterable attribute column. Out-of-range
    /// indices are not.
    pub fn is_attribute(&self, table: usize, col: usize) -> bool {
        self.tables
            .get(table)
            .and_then(|t| t.columns.get(col))
            .is_some_and(|c| c.role == ColumnRole::Attribute)
    }

    /// Whether the given table subset induces a connected subgraph of the
    /// join graph. Singletons are connected; the empty set is not, and
    /// neither is a list with an out-of-range or repeated table index.
    ///
    /// The join graph is a forest (asserted at construction), and so is the
    /// subgraph induced by any `d` distinct tables: with `c ≥ 1` components
    /// it has `d - c` edges. A list of `k` entries therefore has `k - 1`
    /// induced edges exactly when its entries are distinct, in range and
    /// connected: a repeated or out-of-range entry counts toward `k` but
    /// adds no edge. Only a list with no in-range entry (`d = 0`) escapes
    /// the count, and the first entry's range check catches it. One pass
    /// over `edges`, no allocation.
    pub fn is_connected(&self, tables: &[usize]) -> bool {
        tables.first().is_some_and(|&t| t < self.tables.len())
            && self.induced_edges(tables).count() == tables.len() - 1
    }

    /// Enumerates every connected table subset of size `1..=max_size`
    /// (the valid join patterns of generated queries). Patterns are sorted
    /// table-index lists in deterministic order.
    pub fn connected_patterns(&self, max_size: usize) -> Vec<Vec<usize>> {
        let adj = self.adjacency();
        let mut result: Vec<Vec<usize>> = Vec::new();
        // Grow connected sets from each start table; dedupe by requiring the
        // start to be the minimum element of the set.
        for start in 0..self.tables.len() {
            let mut frontier: Vec<Vec<usize>> = vec![vec![start]];
            result.push(vec![start]);
            for _ in 1..max_size {
                let mut next = Vec::new();
                for set in &frontier {
                    for &t in set {
                        for &(n, _) in &adj[t] {
                            if n > start && !set.contains(&n) {
                                let mut grown = set.clone();
                                grown.push(n);
                                grown.sort_unstable();
                                if !next.contains(&grown) && !result.contains(&grown) {
                                    result.push(grown.clone());
                                    next.push(grown);
                                }
                            }
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
        }
        result.sort();
        result
    }

    /// The edges whose both endpoints fall inside `tables` (the join
    /// predicate induced by a pattern), in schema order.
    pub fn induced_edges<'a>(&'a self, tables: &'a [usize]) -> impl Iterator<Item = JoinEdge> + 'a {
        self.edges
            .iter()
            .copied()
            .filter(|e| tables.contains(&e.left.0) && tables.contains(&e.right.0))
    }
}

/// Shorthand for building a [`TableDef`]: key column first, then FKs, then
/// attributes.
pub fn table(name: &str, keys: &[&str], fks: &[&str], attrs: &[&str]) -> TableDef {
    let mut columns = Vec::new();
    for k in keys {
        columns.push(ColumnDef {
            name: (*k).into(),
            role: ColumnRole::Key,
        });
    }
    for f in fks {
        columns.push(ColumnDef {
            name: (*f).into(),
            role: ColumnRole::ForeignKey,
        });
    }
    for a in attrs {
        columns.push(ColumnDef {
            name: (*a).into(),
            role: ColumnRole::Attribute,
        });
    }
    TableDef {
        name: name.into(),
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Schema {
        // a - b - c chain
        let tables = vec![
            table("a", &["id"], &[], &["x"]),
            table("b", &["id"], &["a_id"], &["y", "z"]),
            table("c", &["id"], &["b_id"], &["w"]),
        ];
        let edges = vec![
            JoinEdge {
                left: (0, 0),
                right: (1, 1),
            },
            JoinEdge {
                left: (1, 0),
                right: (2, 1),
            },
        ];
        Schema::new("tiny", tables, edges)
    }

    #[test]
    fn attributes_canonical_order() {
        let s = tiny();
        assert_eq!(s.attributes(), vec![(0, 1), (1, 2), (1, 3), (2, 2)]);
        assert_eq!(s.num_attributes(), 4);
    }

    #[test]
    fn connectivity() {
        let s = tiny();
        assert!(s.is_connected(&[0]));
        assert!(s.is_connected(&[0, 1]));
        assert!(s.is_connected(&[0, 1, 2]));
        assert!(s.is_connected(&[2, 1, 0]));
        assert!(!s.is_connected(&[0, 2]));
        assert!(!s.is_connected(&[]));
        // Out-of-range and repeated indices, singleton or not.
        assert!(!s.is_connected(&[3]));
        assert!(!s.is_connected(&[0, 99]));
        assert!(!s.is_connected(&[0, 0]));
        assert!(!s.is_connected(&[0, 1, 1]));
    }

    #[test]
    fn attribute_lookup_checks_range_and_role() {
        let s = tiny();
        for t in 0..4 {
            for c in 0..5 {
                assert_eq!(s.is_attribute(t, c), s.attributes().contains(&(t, c)));
            }
        }
        assert!(!s.is_attribute(usize::MAX, 1));
    }

    #[test]
    fn connected_patterns_enumeration() {
        let s = tiny();
        let pats = s.connected_patterns(3);
        assert_eq!(
            pats,
            vec![
                vec![0],
                vec![0, 1],
                vec![0, 1, 2],
                vec![1],
                vec![1, 2],
                vec![2]
            ]
        );
    }

    #[test]
    fn induced_edges_subset() {
        let s = tiny();
        assert_eq!(s.induced_edges(&[0, 1]).count(), 1);
        assert_eq!(s.induced_edges(&[0, 2]).count(), 0);
        assert_eq!(s.induced_edges(&[0, 1, 2]).count(), 2);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_graph_rejected() {
        let tables = vec![
            table("a", &["id"], &["c_id"], &[]),
            table("b", &["id"], &["a_id"], &[]),
            table("c", &["id"], &["b_id"], &[]),
        ];
        let edges = vec![
            JoinEdge {
                left: (0, 0),
                right: (1, 1),
            },
            JoinEdge {
                left: (1, 0),
                right: (2, 1),
            },
            JoinEdge {
                left: (2, 0),
                right: (0, 1),
            },
        ];
        let _ = Schema::new("cyclic", tables, edges);
    }

    #[test]
    fn table_lookup_by_name() {
        let s = tiny();
        assert_eq!(s.table("b"), 1);
        assert_eq!(s.tables[1].col("z"), 3);
    }
}
