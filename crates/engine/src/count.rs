//! Exact `COUNT(*)` of filtered SPJ queries.
//!
//! All schemas in this reproduction have acyclic (forest) join graphs, so the
//! cardinality of a filtered join is computed by a bottom-up weighted
//! semi-join aggregation over the pattern-induced join tree:
//!
//! * every row starts with weight 1 if it passes the table's predicates,
//!   else 0;
//! * a child table is folded into its parent by summing child weights per
//!   join value and multiplying each parent row's weight by the sum matching
//!   its join key;
//! * the query cardinality is the weight sum at the root.
//!
//! This implements both the attacker's `COUNT(*)` oracle and the true
//! intermediate-size oracle of the execution simulator.
//!
//! # Join-key dictionaries and slot folds
//!
//! [`Executor::new`] gives every schema join edge one dictionary: each
//! distinct `i64` found on either endpoint column (negative, sparse and
//! dangling values included) gets a dense `u32` slot, and each endpoint
//! stores the slot of every row. A fold then never hashes: the child's
//! weights are added into a `vec![0.0; domain]` at the child rows' slots,
//! and each parent row reads its factor at its own slot. A value present on
//! only one side of the edge reads the slot's `0.0`, exactly as a missing
//! hash-map key read `unwrap_or(0.0)`.
//!
//! Predicates are ANDed into a per-table byte mask with one unsigned
//! compare per row, `(v − lo) as u64 <= (hi − lo) as u64` in wrapping
//! arithmetic, so the filter has no data-dependent branch; an empty range
//! (`lo > hi`) zeroes the mask. The mask becomes `f64` weights once.
//!
//! # Bit-identity with the hashed fold
//!
//! Weights are never negative, `−0.0` or NaN: they start at `+0.0`/`1.0`,
//! and a fold multiplies only rows whose weight is positive (a select, so
//! `0 · ∞` cannot produce NaN). Each slot accumulates its child weights in
//! ascending row order starting from `+0.0`. Rows of weight `+0.0` are added
//! too, and adding `+0.0` to a non-negative sum that is never `−0.0` is the
//! identity, so each slot holds exactly the sum a hash-map entry held. The
//! root sums in row order. Every `f64` weight, and hence every `u64` count,
//! is the one the per-row hashed fold produced, counts above 2⁵³ included.
//!
//! # Cost of one query
//!
//! For every pattern table: one mask pass per predicate, one pass to turn
//! the mask into weights, and per folded child one scatter pass over the
//! child's rows (skipped for an unfiltered leaf child, whose sums are
//! precomputed) plus one gather pass over the parent's rows. That is
//! `O(Σ pattern table rows × (1 + predicates))` with no hashing, no
//! materialization, and exact counts; the fold also checks that the
//! pattern is connected, by counting the tables it reaches. On quick-scale
//! TPC-H an attack-shaped decoded query takes ~17 µs on a 2-vCPU Xeon
//! (criterion `engine/count_decoded_tpch`).

use pace_data::{Dataset, JoinEdge};
use pace_runtime as pool;
use pace_workload::{LabeledQuery, Query, Workload};
use std::collections::HashMap;

/// Minimum queries per chunk of [`Executor::count_batch`]'s fan-out. One
/// query is a whole `COUNT(*)` pass over its pattern's tables (~17 µs at
/// quick scale, see the module docs), so a single query already amortizes
/// a pool task; [`pool::chunk_ranges`] caps the grid at 32 chunks, so large
/// batches get proportionally larger chunks. A constant, so the grid is a
/// function of the batch size alone.
pub const COUNT_BATCH_GRAIN: usize = 1;

/// The join-key dictionary of one schema join edge.
struct EdgeDict {
    /// Dictionary slot of every row's join value, per endpoint: `[left,
    /// right]` in [`pace_data::JoinEdge`] order.
    slots: [Vec<u32>; 2],
    /// Unfiltered rows per slot, per endpoint, accumulated in row order
    /// (`+1.0` per row). A fold whose child has no predicates and no further
    /// pattern children reads these instead of rescanning the child.
    sums: [Vec<f64>; 2],
    /// Number of distinct join values over both endpoints.
    domain: usize,
}

impl EdgeDict {
    fn build(ds: &Dataset, ends: [(usize, usize); 2]) -> Self {
        let mut dict: HashMap<i64, u32> = HashMap::new();
        let slots = ends.map(|(table, col)| {
            ds.tables[table]
                .col(col)
                .iter()
                .map(|&v| {
                    let next = u32::try_from(dict.len()).expect("join domain fits in u32 slots");
                    *dict.entry(v).or_insert(next)
                })
                .collect::<Vec<u32>>()
        });
        let domain = dict.len();
        let sums = slots.each_ref().map(|side| {
            let mut sums = vec![0.0f64; domain];
            for &k in side {
                sums[k as usize] += 1.0;
            }
            sums
        });
        Self {
            slots,
            sums,
            domain,
        }
    }
}

/// ANDs `lo ≤ v ≤ hi` (with `lo ≤ hi`) into `mask` with one unsigned compare
/// per row: in wrapping arithmetic `v − lo` lands in `[0, hi − lo]` exactly
/// when `v` is in range, for any `i64` bounds.
fn and_range(mask: &mut [u8], col: &[i64], lo: i64, hi: i64) {
    let width = hi.wrapping_sub(lo) as u64;
    for (m, &v) in mask.iter_mut().zip(col) {
        *m &= u8::from(v.wrapping_sub(lo) as u64 <= width);
    }
}

/// Exact-count executor over one dataset.
pub struct Executor<'a> {
    ds: &'a Dataset,
    /// `adj[t] = [(neighbor, edge idx)]`, as [`pace_data::Schema::adjacency`].
    adj: Vec<Vec<(usize, usize)>>,
    /// One join-key dictionary per schema edge, indexed like
    /// `ds.schema.edges`. Built once and shared read-only by every query.
    dicts: Vec<EdgeDict>,
}

impl<'a> Executor<'a> {
    /// Creates an executor: builds join-graph adjacency and one join-key
    /// dictionary with unfiltered per-slot row counts per schema edge.
    pub fn new(ds: &'a Dataset) -> Self {
        let dicts = ds
            .schema
            .edges
            .iter()
            .map(|e| EdgeDict::build(ds, [e.left, e.right]))
            .collect();
        Self {
            ds,
            adj: ds.schema.adjacency(),
            dicts,
        }
    }

    /// The dataset this executor reads.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// Exact cardinality of `q`.
    ///
    /// # Panics
    /// Panics when the query's pattern is empty or not connected (invalid
    /// queries should be filtered before execution).
    pub fn count(&self, q: &Query) -> u64 {
        assert!(!q.tables.is_empty(), "count over an empty pattern");
        // The fold visits exactly the pattern tables reachable from the
        // root, so it doubles as the connectivity check.
        let mut visited = 0;
        let w = self.subtree_weights(q, q.tables[0], usize::MAX, &mut visited);
        assert!(
            visited == q.tables.len(),
            "count over a disconnected pattern {:?}",
            q.tables
        );
        w.iter().sum::<f64>().round() as u64
    }

    /// Weights of `table`'s rows after folding in all pattern children on the
    /// far side from `parent`. Adds the number of tables folded (`table`
    /// included) to `visited`.
    fn subtree_weights(
        &self,
        q: &Query,
        table: usize,
        parent: usize,
        visited: &mut usize,
    ) -> Vec<f64> {
        *visited += 1;
        let mut w = self.filter_weights(q, table);
        for &(child, edge) in &self.adj[table] {
            if child == parent || !q.tables.contains(&child) {
                continue;
            }
            let dict = &self.dicts[edge];
            // Endpoint indices (into `EdgeDict::slots`) of this table and of
            // the child.
            let side = usize::from(self.ds.schema.edges[edge].left.0 != table);
            let child_side = 1 - side;
            // A child with no predicates and no further pattern neighbors
            // contributes all-1 weights, so its fold is exactly the
            // precomputed unfiltered per-slot sums (both add `+1.0` per row
            // in row order).
            let trivial = q.predicates_on(child).next().is_none()
                && self.adj[child]
                    .iter()
                    .all(|&(n, _)| n == table || !q.tables.contains(&n));
            let computed;
            let sums: &[f64] = if trivial {
                *visited += 1;
                &dict.sums[child_side]
            } else {
                let child_w = self.subtree_weights(q, child, table, visited);
                let mut s = vec![0.0f64; dict.domain];
                for (&k, &cw) in dict.slots[child_side].iter().zip(&child_w) {
                    s[k as usize] += cw;
                }
                computed = s;
                &computed
            };
            for (&k, wr) in dict.slots[side].iter().zip(w.iter_mut()) {
                let f = sums[k as usize];
                *wr = if *wr > 0.0 { *wr * f } else { *wr };
            }
        }
        w
    }

    /// 1/0 byte mask of a table's rows under the query's predicates on it.
    fn filter_mask(&self, q: &Query, table: usize) -> Vec<u8> {
        let t = &self.ds.tables[table];
        let mut mask = vec![1u8; t.num_rows()];
        for p in q.predicates_on(table) {
            if p.lo > p.hi {
                mask.fill(0);
            } else {
                and_range(&mut mask, t.col(p.col), p.lo, p.hi);
            }
        }
        mask
    }

    /// 1/0 weights of a table's rows under the query's predicates on it.
    fn filter_weights(&self, q: &Query, table: usize) -> Vec<f64> {
        if q.predicates_on(table).next().is_none() {
            return vec![1.0; self.ds.tables[table].num_rows()];
        }
        self.filter_mask(q, table)
            .into_iter()
            .map(f64::from)
            .collect()
    }

    /// Number of rows of `table` passing the query's predicates on it.
    pub fn filtered_size(&self, q: &Query, table: usize) -> u64 {
        self.filter_mask(q, table).into_iter().map(u64::from).sum()
    }

    /// Cardinality of the sub-query induced by a connected subset of the
    /// pattern (predicates restricted to the subset). Used for true
    /// intermediate sizes during plan costing.
    pub fn count_subset(&self, q: &Query, subset: &[usize]) -> u64 {
        let sub = Query::new(
            subset.to_vec(),
            q.predicates
                .iter()
                .copied()
                .filter(|p| subset.contains(&p.table))
                .collect(),
        );
        self.count(&sub)
    }

    /// Exact cardinalities of a batch of queries, fanned out over the
    /// deterministic pool (`PACE_THREADS`) in chunks of at least
    /// [`COUNT_BATCH_GRAIN`] queries (at most 32 chunks, see
    /// [`pool::chunk_ranges`]). Queries are independent, the join-key
    /// dictionaries are shared read-only across workers, and per-chunk
    /// results are concatenated in chunk order, so the result is identical
    /// to mapping [`Executor::count`] sequentially at any thread count.
    pub fn count_batch(&self, queries: &[Query]) -> Vec<u64> {
        let _span = pace_trace::span("engine::count_batch");
        pool::par_chunks(queries.len(), COUNT_BATCH_GRAIN, |lo, hi| {
            queries[lo..hi]
                .iter()
                .map(|q| self.count(q))
                .collect::<Vec<u64>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Labels a batch of queries with their exact cardinalities.
    pub fn label(&self, queries: Vec<Query>) -> Workload {
        self.label_par(queries)
    }

    /// Labels a batch of queries in parallel over the pool. Output order and
    /// values match the sequential labeling exactly.
    pub fn label_par(&self, queries: Vec<Query>) -> Workload {
        let cards = self.count_batch(&queries);
        queries
            .into_iter()
            .zip(cards)
            .map(|(query, cardinality)| LabeledQuery { query, cardinality })
            .collect()
    }

    /// Labels queries, dropping those with zero cardinality (the paper
    /// eliminates them during training).
    pub fn label_nonzero(&self, queries: Vec<Query>) -> Workload {
        self.label(queries)
            .into_iter()
            .filter(|lq| lq.cardinality > 0)
            .collect()
    }
}

/// Natural log of the largest unfiltered join cardinality over connected
/// patterns of up to `max_pattern_size` tables, plus headroom. This is the
/// output-normalization constant `ln C_max` CE models use: tight enough that
/// real cardinalities span the sigmoid's range (a product-of-table-sizes
/// bound wildly overshoots on PK–FK joins and cripples training).
///
/// Derivable by an attacker: every term is a `COUNT(*)` of an unfiltered
/// join, which the threat model allows.
pub fn ln_max_cardinality(ds: &Dataset, max_pattern_size: usize) -> f64 {
    let exec = Executor::new(ds);
    let mut max_card = 1u64;
    for pattern in ds.schema.connected_patterns(max_pattern_size.max(1)) {
        let q = Query::new(pattern, vec![]);
        max_card = max_card.max(exec.count(&q));
    }
    ((max_card.max(2) as f64).ln() * 1.1 + 1.0).max(2.0)
}

/// Brute-force nested-loop reference counter; exponential, only for tests on
/// tiny data.
pub fn naive_count(ds: &Dataset, q: &Query) -> u64 {
    fn passes(ds: &Dataset, q: &Query, table: usize, row: usize) -> bool {
        q.predicates_on(table).all(|p| {
            let v = ds.tables[table].get(row, p.col);
            (p.lo..=p.hi).contains(&v)
        })
    }
    // Enumerate row combinations over the pattern, checking all induced edges.
    let tables = &q.tables;
    // The odometer below probes row 0 of every pattern table before any
    // bounds check, so an empty table must short-circuit here (its join is
    // empty by definition).
    if tables.iter().any(|&t| ds.tables[t].num_rows() == 0) {
        return 0;
    }
    let edges: Vec<JoinEdge> = ds.schema.induced_edges(tables).collect();
    let mut rows = vec![0usize; tables.len()];
    let mut count = 0u64;
    'outer: loop {
        let ok = tables
            .iter()
            .enumerate()
            .all(|(i, &t)| passes(ds, q, t, rows[i]))
            && edges.iter().all(|e| {
                let li = tables
                    .iter()
                    .position(|&t| t == e.left.0)
                    .expect("in pattern");
                let ri = tables
                    .iter()
                    .position(|&t| t == e.right.0)
                    .expect("in pattern");
                ds.tables[e.left.0].get(rows[li], e.left.1)
                    == ds.tables[e.right.0].get(rows[ri], e.right.1)
            });
        if ok {
            count += 1;
        }
        // Odometer increment.
        for i in 0..tables.len() {
            rows[i] += 1;
            if rows[i] < ds.tables[tables[i]].num_rows() {
                continue 'outer;
            }
            rows[i] = 0;
            if i == tables.len() - 1 {
                break 'outer;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_data::schema::{table, JoinEdge};
    use pace_data::{Dataset, Schema, Table};
    use pace_workload::Predicate;

    fn chain_dataset() -> Dataset {
        // a(4 rows) — b(6 rows) — c(5 rows)
        let schema = Schema::new(
            "chain",
            vec![
                table("a", &["id"], &[], &["x"]),
                table("b", &["id"], &["a_id"], &["y"]),
                table("c", &["id"], &["b_id"], &["z"]),
            ],
            vec![
                JoinEdge {
                    left: (0, 0),
                    right: (1, 1),
                },
                JoinEdge {
                    left: (1, 0),
                    right: (2, 1),
                },
            ],
        );
        let a = Table::from_columns(vec![vec![0, 1, 2, 3], vec![10, 20, 30, 40]]);
        let b = Table::from_columns(vec![
            vec![0, 1, 2, 3, 4, 5],
            vec![0, 0, 1, 1, 2, 9], // last row dangles
            vec![5, 6, 7, 8, 9, 10],
        ]);
        let c = Table::from_columns(vec![
            vec![0, 1, 2, 3, 4],
            vec![0, 0, 0, 2, 4],
            vec![1, 2, 3, 4, 5],
        ]);
        Dataset::new(schema, vec![a, b, c])
    }

    #[test]
    fn single_table_count_with_predicate() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![0],
            vec![Predicate {
                table: 0,
                col: 1,
                lo: 15,
                hi: 35,
            }],
        );
        assert_eq!(ex.count(&q), 2);
        assert_eq!(ex.count(&q), naive_count(&ds, &q));
    }

    #[test]
    fn two_way_join_count() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(vec![0, 1], vec![]);
        // b rows with a_id in {0,0,1,1,2} → 5 matches.
        assert_eq!(ex.count(&q), 5);
        assert_eq!(ex.count(&q), naive_count(&ds, &q));
    }

    #[test]
    fn three_way_join_count_matches_naive() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(vec![0, 1, 2], vec![]);
        assert_eq!(ex.count(&q), naive_count(&ds, &q));
        // b=0 matched by c rows {0,1,2}; b=2 by {3}; b=4 by {4}.
        assert_eq!(ex.count(&q), 5);
    }

    #[test]
    fn join_with_predicates_matches_naive() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![0, 1, 2],
            vec![
                Predicate {
                    table: 1,
                    col: 2,
                    lo: 5,
                    hi: 7,
                },
                Predicate {
                    table: 2,
                    col: 2,
                    lo: 2,
                    hi: 5,
                },
            ],
        );
        assert_eq!(ex.count(&q), naive_count(&ds, &q));
    }

    #[test]
    fn empty_result_when_predicate_excludes_all() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![0, 1],
            vec![Predicate {
                table: 0,
                col: 1,
                lo: 1000,
                hi: 2000,
            }],
        );
        assert_eq!(ex.count(&q), 0);
        // An empty range (`lo > hi`) keeps no row, even where the wrapping
        // width `hi − lo` would cover every value.
        let inverted = Query::new(
            vec![0, 1],
            vec![Predicate {
                table: 0,
                col: 1,
                lo: 30,
                hi: 10,
            }],
        );
        assert_eq!(ex.count(&inverted), 0);
        assert_eq!(ex.filtered_size(&inverted, 0), 0);
    }

    #[test]
    fn count_subset_restricts_predicates() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![0, 1, 2],
            vec![Predicate {
                table: 2,
                col: 2,
                lo: 100,
                hi: 200,
            }], // kills c
        );
        assert_eq!(ex.count(&q), 0);
        // The {a, b} prefix ignores c's predicate.
        assert_eq!(ex.count_subset(&q, &[0, 1]), 5);
    }

    #[test]
    fn filtered_size_counts_matching_rows() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let q = Query::new(
            vec![1],
            vec![Predicate {
                table: 1,
                col: 2,
                lo: 6,
                hi: 9,
            }],
        );
        assert_eq!(ex.filtered_size(&q, 1), 4);
    }

    /// Regression: the odometer used to probe row 0 of each pattern table
    /// before its (dead) empty-table check, so an empty table either panicked
    /// on the index (with predicates/edges probing rows) or miscounted. Empty
    /// tables must yield 0 up front.
    #[test]
    fn naive_count_on_empty_table_is_zero() {
        let schema = Schema::new(
            "empty",
            vec![
                table("a", &["id"], &[], &["x"]),
                table("b", &["id"], &["a_id"], &[]),
            ],
            vec![JoinEdge {
                left: (0, 0),
                right: (1, 1),
            }],
        );
        let a = Table::from_columns(vec![vec![], vec![]]);
        let b = Table::from_columns(vec![vec![0, 1], vec![0, 0]]);
        let ds = Dataset::new(schema, vec![a, b]);
        // Join through the empty side: previously panicked indexing row 0.
        let join = Query::new(vec![0, 1], vec![]);
        assert_eq!(naive_count(&ds, &join), 0);
        // Single empty table with a predicate: previously panicked in passes().
        let filtered = Query::new(
            vec![0],
            vec![Predicate {
                table: 0,
                col: 1,
                lo: 0,
                hi: 10,
            }],
        );
        assert_eq!(naive_count(&ds, &filtered), 0);
        // Single empty table, no predicates: previously counted the empty
        // row-combination as one match.
        assert_eq!(naive_count(&ds, &Query::new(vec![0], vec![])), 0);
        assert_eq!(Executor::new(&ds).count(&join), 0);
    }

    /// The trivial-child fast path (cached unfiltered group-by sums) must
    /// agree with the brute-force reference, and a predicate on the child
    /// must still take the recomputed path.
    #[test]
    fn cached_edge_sums_match_bruteforce() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        for pattern in ds.schema.connected_patterns(3) {
            let q = Query::new(pattern.clone(), vec![]);
            assert_eq!(ex.count(&q), naive_count(&ds, &q), "pattern {pattern:?}");
        }
        let filtered_child = Query::new(
            vec![0, 1],
            vec![Predicate {
                table: 1,
                col: 2,
                lo: 6,
                hi: 8,
            }],
        );
        assert_eq!(ex.count(&filtered_child), naive_count(&ds, &filtered_child));
    }

    #[test]
    fn count_batch_matches_individual_counts_at_any_thread_count() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let queries: Vec<Query> = ds
            .schema
            .connected_patterns(3)
            .into_iter()
            .map(|p| Query::new(p, vec![]))
            .collect();
        let reference: Vec<u64> = queries.iter().map(|q| ex.count(q)).collect();
        for threads in [1, 2, 5] {
            pace_runtime::set_threads(threads);
            assert_eq!(ex.count_batch(&queries), reference, "threads={threads}");
        }
        pace_runtime::set_threads(0);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_pattern_panics() {
        let ds = chain_dataset();
        let _ = Executor::new(&ds).count(&Query::new(vec![0, 2], vec![]));
    }

    /// The wrapping unsigned compare keeps exactly the rows `lo ≤ v ≤ hi`
    /// keeps, for bounds inside, around and far outside the column's range.
    #[test]
    fn range_mask_matches_the_inclusive_compare() {
        let col = [i64::MIN, -5, 0, 3, 3, 7, 1 << 40, i64::MAX];
        let bounds = [i64::MIN, -6, -5, -1, 0, 3, 4, 7, 1 << 40, i64::MAX];
        for &lo in &bounds {
            for &hi in bounds.iter().filter(|&&hi| hi >= lo) {
                let mut mask = [1u8; 8];
                and_range(&mut mask, &col, lo, hi);
                let expected: Vec<u8> = col
                    .iter()
                    .map(|v| u8::from((lo..=hi).contains(v)))
                    .collect();
                assert_eq!(mask.to_vec(), expected, "[{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn label_nonzero_drops_empty() {
        let ds = chain_dataset();
        let ex = Executor::new(&ds);
        let qs = vec![
            Query::new(vec![0], vec![]),
            Query::new(
                vec![0],
                vec![Predicate {
                    table: 0,
                    col: 1,
                    lo: 999,
                    hi: 1000,
                }],
            ),
        ];
        let labeled = ex.label_nonzero(qs);
        assert_eq!(labeled.len(), 1);
        assert_eq!(labeled[0].cardinality, 4);
    }
}
