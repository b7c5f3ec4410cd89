//! Cost-based join-order *and operator* optimization.
//!
//! Left-deep dynamic programming over connected table subsets. The cost of a
//! plan is `C_out` (the estimated cardinality of every intermediate result)
//! plus per-join operator input costs — each join picks hash join (scan both
//! inputs) or index nested-loop (per-outer-tuple lookups) by estimated cost.
//! This is the classic setting in which cardinality-estimation errors
//! translate into bad join orders *and* bad operator choices — exactly the
//! causal chain behind the paper's end-to-end experiment (Table 5,
//! Section 7.3).

use crate::estimator::CardEstimator;
use pace_data::Schema;
use pace_workload::Query;

/// Physical join operator of one plan step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinOp {
    /// Build a hash table on the inner input and probe with the outer:
    /// cost ≈ `|outer| + |inner| + |out|`.
    Hash,
    /// Index nested-loop: one index lookup per outer tuple, never scanning
    /// the inner: cost ≈ `|outer|·c_lookup + |out|`.
    IndexNestedLoop,
}

/// Work units charged per outer tuple by an index nested-loop lookup.
pub const INDEX_LOOKUP_COST: f64 = 4.0;

/// A left-deep join plan.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Tables in join order; every prefix is connected.
    pub order: Vec<usize>,
    /// Operator joining `order[k+1]` into the prefix (length
    /// `order.len() − 1`).
    pub ops: Vec<JoinOp>,
    /// Estimated cost (C_out + operator input costs) under the estimator
    /// used for planning.
    pub est_cost: f64,
}

/// Chooses the cheapest left-deep join order for `q` under `est`.
///
/// # Panics
/// Panics when the query pattern is empty or exceeds 20 tables (bitmask DP).
#[allow(clippy::needless_range_loop)] // `i` is simultaneously a bit index
pub fn optimize(q: &Query, schema: &Schema, est: &dyn CardEstimator) -> Plan {
    let tables = &q.tables;
    let n = tables.len();
    assert!(n >= 1, "cannot optimize an empty pattern");
    assert!(n <= 20, "pattern too large for subset DP");
    if n == 1 {
        let cost = est.estimate(q).max(1.0);
        return Plan {
            order: tables.clone(),
            ops: Vec::new(),
            est_cost: cost,
        };
    }

    // Local adjacency between pattern tables.
    let local = |t: usize| tables.iter().position(|&x| x == t).expect("in pattern");
    let mut adj = vec![0u32; n];
    for e in schema.induced_edges(tables) {
        let (a, b) = (local(e.left.0), local(e.right.0));
        adj[a] |= 1 << b;
        adj[b] |= 1 << a;
    }

    let full: u32 = (1 << n) - 1;
    let mut card = vec![f64::NAN; (full + 1) as usize];
    let mut cost = vec![f64::INFINITY; (full + 1) as usize];
    let mut last = vec![usize::MAX; (full + 1) as usize];
    let mut last_op = vec![JoinOp::Hash; (full + 1) as usize];

    let sub_query = |mask: u32| -> Query {
        let subset: Vec<usize> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| tables[i])
            .collect();
        Query::new(
            subset.clone(),
            q.predicates
                .iter()
                .copied()
                .filter(|p| subset.contains(&p.table))
                .collect(),
        )
    };
    let connected = |mask: u32| -> bool {
        let start = mask.trailing_zeros() as usize;
        let mut seen = 1u32 << start;
        let mut frontier = seen;
        while frontier != 0 {
            let mut next = 0u32;
            for i in 0..n {
                if frontier & (1 << i) != 0 {
                    next |= adj[i] & mask & !seen;
                }
            }
            seen |= next;
            frontier = next;
        }
        seen == mask
    };

    for i in 0..n {
        let m = 1u32 << i;
        let c = est.estimate(&sub_query(m)).max(1.0);
        card[m as usize] = c;
        cost[m as usize] = c;
        last[m as usize] = i;
    }

    for mask in 1..=full {
        if mask.count_ones() < 2 || !connected(mask) {
            continue;
        }
        let c_mask = {
            let c = est.estimate(&sub_query(mask)).max(1.0);
            card[mask as usize] = c;
            c
        };
        for i in 0..n {
            let bit = 1u32 << i;
            if mask & bit == 0 {
                continue;
            }
            let prev = mask & !bit;
            if cost[prev as usize].is_infinite() {
                continue; // prev disconnected or unreachable
            }
            // i must join to something already in prev.
            if adj[i] & prev == 0 {
                continue;
            }
            // Operator choice: hash scans outer + inner; index-NL pays one
            // lookup per outer tuple. All sizes are estimates.
            let outer = card[prev as usize];
            let inner = card[bit as usize];
            let hash_in = outer + inner;
            let inl_in = outer * INDEX_LOOKUP_COST;
            let (op, op_in) = if inl_in <= hash_in {
                (JoinOp::IndexNestedLoop, inl_in)
            } else {
                (JoinOp::Hash, hash_in)
            };
            let total = cost[prev as usize] + c_mask + op_in;
            if total < cost[mask as usize] {
                cost[mask as usize] = total;
                last[mask as usize] = i;
                last_op[mask as usize] = op;
            }
        }
    }

    // Reconstruct order and operators.
    let mut order_local = Vec::with_capacity(n);
    let mut ops = Vec::with_capacity(n - 1);
    let mut mask = full;
    while mask != 0 {
        let i = last[mask as usize];
        assert!(i != usize::MAX, "no connected left-deep plan found");
        order_local.push(i);
        if mask.count_ones() >= 2 {
            ops.push(last_op[mask as usize]);
        }
        mask &= !(1 << i);
    }
    order_local.reverse();
    ops.reverse();
    Plan {
        order: order_local.into_iter().map(|i| tables[i]).collect(),
        ops,
        est_cost: cost[full as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_data::schema::{table, JoinEdge};
    use pace_workload::Query;
    use std::collections::HashMap;

    struct MapEstimator(HashMap<Vec<usize>, f64>);
    impl CardEstimator for MapEstimator {
        fn estimate(&self, q: &Query) -> f64 {
            *self.0.get(&q.tables).unwrap_or(&1.0)
        }
    }

    fn star_schema() -> Schema {
        // 0 is the hub; 1, 2, 3 are satellites.
        Schema::new(
            "star",
            vec![
                table("hub", &["id"], &[], &["h"]),
                table("s1", &["id"], &["hub_id"], &["a"]),
                table("s2", &["id"], &["hub_id"], &["b"]),
                table("s3", &["id"], &["hub_id"], &["c"]),
            ],
            vec![
                JoinEdge {
                    left: (1, 1),
                    right: (0, 0),
                },
                JoinEdge {
                    left: (2, 1),
                    right: (0, 0),
                },
                JoinEdge {
                    left: (3, 1),
                    right: (0, 0),
                },
            ],
        )
    }

    #[test]
    fn picks_cheap_intermediate_first() {
        let schema = star_schema();
        let mut m = HashMap::new();
        m.insert(vec![0], 100.0);
        m.insert(vec![1], 50.0);
        m.insert(vec![2], 50.0);
        // Joining hub with s2 first is far cheaper.
        m.insert(vec![0, 1], 10_000.0);
        m.insert(vec![0, 2], 10.0);
        m.insert(vec![0, 1, 2], 500.0);
        let est = MapEstimator(m);
        let q = Query::new(vec![0, 1, 2], vec![]);
        let plan = optimize(&q, &schema, &est);
        // First two tables must be {0, 2} in some order.
        let first_two: Vec<usize> = plan.order[..2].to_vec();
        assert!(
            first_two.contains(&0) && first_two.contains(&2),
            "order {:?}",
            plan.order
        );
        assert_eq!(plan.order[2], 1);
    }

    #[test]
    fn misestimation_flips_plan_choice() {
        let schema = star_schema();
        let mut good = HashMap::new();
        good.insert(vec![0], 100.0);
        good.insert(vec![1], 50.0);
        good.insert(vec![2], 50.0);
        good.insert(vec![0, 1], 10.0);
        good.insert(vec![0, 2], 10_000.0);
        good.insert(vec![0, 1, 2], 500.0);
        // A poisoned estimator believes the opposite.
        let mut bad = good.clone();
        bad.insert(vec![0, 1], 10_000.0);
        bad.insert(vec![0, 2], 10.0);
        let q = Query::new(vec![0, 1, 2], vec![]);
        let p_good = optimize(&q, &schema, &MapEstimator(good));
        let p_bad = optimize(&q, &schema, &MapEstimator(bad));
        assert_ne!(p_good.order, p_bad.order);
        assert!(p_good.order[..2].contains(&1));
        assert!(p_bad.order[..2].contains(&2));
    }

    #[test]
    fn every_prefix_of_plan_is_connected() {
        let schema = star_schema();
        let est = MapEstimator(HashMap::new());
        let q = Query::new(vec![0, 1, 2, 3], vec![]);
        let plan = optimize(&q, &schema, &est);
        for k in 1..=plan.order.len() {
            assert!(schema.is_connected(&plan.order[..k]));
        }
    }

    #[test]
    fn operator_choice_follows_input_sizes() {
        let schema = star_schema();
        // Tiny outer (hub=2) joining a huge satellite (s1=100k): index
        // nested-loop must win. Balanced sizes: hash must win.
        let mut m = HashMap::new();
        m.insert(vec![0], 2.0);
        m.insert(vec![1], 100_000.0);
        m.insert(vec![0, 1], 10.0);
        let q = Query::new(vec![0, 1], vec![]);
        let plan = optimize(&q, &schema, &MapEstimator(m));
        assert_eq!(
            plan.ops,
            vec![JoinOp::IndexNestedLoop],
            "order {:?}",
            plan.order
        );

        let mut m = HashMap::new();
        m.insert(vec![0], 1000.0);
        m.insert(vec![1], 1000.0);
        m.insert(vec![0, 1], 10.0);
        let plan = optimize(&q, &schema, &MapEstimator(m));
        assert_eq!(plan.ops, vec![JoinOp::Hash]);
    }

    #[test]
    fn ops_length_matches_joins() {
        let schema = star_schema();
        let est = MapEstimator(HashMap::new());
        let q = Query::new(vec![0, 1, 2, 3], vec![]);
        let plan = optimize(&q, &schema, &est);
        assert_eq!(plan.ops.len(), plan.order.len() - 1);
    }

    #[test]
    fn single_table_plan_trivial() {
        let schema = star_schema();
        let est = MapEstimator(HashMap::from([(vec![2], 42.0)]));
        let q = Query::new(vec![2], vec![]);
        let plan = optimize(&q, &schema, &est);
        assert_eq!(plan.order, vec![2]);
        assert!(plan.ops.is_empty());
        assert_eq!(plan.est_cost, 42.0);
    }
}
