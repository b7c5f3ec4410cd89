//! Query ↔ vector encoding (paper Section 5.2, "Query Representation").
//!
//! A query over a schema with `T` tables and `A` global attributes becomes a
//! `T + 2A` vector: a binary table-membership prefix followed by normalized
//! `[lo, hi]` bound pairs per attribute in canonical order. Attributes that
//! are unconstrained — or whose table is absent from the join pattern — carry
//! the full range `[0, 1]`, exactly as the paper specifies.

use crate::query::{Predicate, Query};
use pace_data::{ColStats, Dataset};
use rand::Rng;

/// Encodes queries of one dataset into fixed-width vectors and back.
#[derive(Clone, Debug)]
pub struct QueryEncoder {
    num_tables: usize,
    attrs: Vec<(usize, usize)>,
    stats: Vec<ColStats>,
}

impl QueryEncoder {
    /// Builds an encoder from a dataset's schema and column statistics.
    pub fn new(ds: &Dataset) -> Self {
        let attrs = ds.schema.attributes();
        let stats = attrs.iter().map(|&(t, c)| ds.col_stats(t, c)).collect();
        Self {
            num_tables: ds.schema.num_tables(),
            attrs,
            stats,
        }
    }

    /// Width of encoded vectors: `T + 2A`.
    pub fn dim(&self) -> usize {
        self.num_tables + 2 * self.attrs.len()
    }

    /// Number of tables (`T`, the join-prefix width).
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// The canonical attribute order `(table, column)`.
    pub fn attributes(&self) -> &[(usize, usize)] {
        &self.attrs
    }

    /// Statistics of the `i`-th canonical attribute.
    pub fn attr_stats(&self, i: usize) -> ColStats {
        self.stats[i]
    }

    /// Encodes a query to a `T + 2A` vector.
    pub fn encode(&self, q: &Query) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim()];
        for &t in &q.tables {
            v[t] = 1.0;
        }
        // Default bounds: full range.
        for i in 0..self.attrs.len() {
            v[self.num_tables + 2 * i] = 0.0;
            v[self.num_tables + 2 * i + 1] = 1.0;
        }
        for p in &q.predicates {
            if let Some(i) = self.attrs.iter().position(|&a| a == (p.table, p.col)) {
                let s = self.stats[i];
                v[self.num_tables + 2 * i] = s.normalize(p.lo) as f32;
                v[self.num_tables + 2 * i + 1] = s.normalize(p.hi) as f32;
            }
        }
        v
    }

    /// Decodes a vector back into a query.
    ///
    /// Join membership uses the paper's 0.5 threshold; bound pairs that cover
    /// (almost) the full range, belong to absent tables, or are inverted are
    /// dropped as "no predicate".
    pub fn decode(&self, v: &[f32]) -> Query {
        assert_eq!(v.len(), self.dim(), "encoded vector width mismatch");
        let tables: Vec<usize> = (0..self.num_tables).filter(|&t| v[t] > 0.5).collect();
        let mut predicates = Vec::new();
        for (i, &(t, c)) in self.attrs.iter().enumerate() {
            if !tables.contains(&t) {
                continue;
            }
            let lo_n = f64::from(v[self.num_tables + 2 * i]).clamp(0.0, 1.0);
            let hi_n = f64::from(v[self.num_tables + 2 * i + 1]).clamp(0.0, 1.0);
            if lo_n <= 0.002 && hi_n >= 0.998 {
                continue; // effectively unconstrained
            }
            if hi_n < lo_n {
                continue; // invalid pair — generator masking should prevent this
            }
            let s = self.stats[i];
            predicates.push(Predicate {
                table: t,
                col: c,
                lo: s.denormalize(lo_n),
                hi: s.denormalize(hi_n),
            });
        }
        Query::new(tables, predicates)
    }

    /// Decodes a random encoder vector, the shape of query the attack's
    /// generator hands the `COUNT(*)` oracle: a pattern drawn from
    /// `patterns` and, on each attribute, an ordered random range (the full
    /// range one time in four), so most pattern tables carry predicates.
    /// Shared by the oracle's benchmarks and tests so both see one shape.
    #[doc(hidden)]
    pub fn random_decoded(&self, patterns: &[Vec<usize>], rng: &mut impl Rng) -> Query {
        let mut v = vec![0.0f32; self.dim()];
        for &t in &patterns[rng.random_range(0..patterns.len())] {
            v[t] = 1.0;
        }
        for i in 0..self.attrs.len() {
            let (a, b) = (rng.random_range(0.0f32..1.0), rng.random_range(0.0f32..1.0));
            let (lo, hi) = if rng.random_range(0..4) == 0 {
                (0.0, 1.0)
            } else {
                (a.min(b), a.max(b))
            };
            v[self.num_tables + 2 * i] = lo;
            v[self.num_tables + 2 * i + 1] = hi;
        }
        self.decode(&v)
    }

    /// Splits an encoded vector into its join prefix and bounds suffix.
    pub fn split<'a>(&self, v: &'a [f32]) -> (&'a [f32], &'a [f32]) {
        v.split_at(self.num_tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_data::{build, DatasetKind, Scale};

    fn encoder() -> (Dataset, QueryEncoder) {
        let ds = build(DatasetKind::Tpch, Scale::tiny(), 7);
        let enc = QueryEncoder::new(&ds);
        (ds, enc)
    }

    #[test]
    fn dim_is_t_plus_2a() {
        let (ds, enc) = encoder();
        assert_eq!(
            enc.dim(),
            ds.schema.num_tables() + 2 * ds.schema.num_attributes()
        );
    }

    #[test]
    fn encode_sets_join_bits_and_bounds() {
        let (ds, enc) = encoder();
        let cust = ds.schema.table("customer");
        let acct_col = ds.schema.tables[cust].col("c_acctbal");
        let stats = ds.col_stats(cust, acct_col);
        let q = Query::new(
            vec![cust],
            vec![Predicate {
                table: cust,
                col: acct_col,
                lo: stats.min,
                hi: stats.max,
            }],
        );
        let v = enc.encode(&q);
        assert_eq!(v[cust], 1.0);
        assert_eq!(v.iter().take(enc.num_tables()).sum::<f32>(), 1.0);
        // Full-range predicate encodes as [0, 1].
        let i = enc
            .attributes()
            .iter()
            .position(|&a| a == (cust, acct_col))
            .expect("customer account column is an encoded attribute");
        assert_eq!(v[enc.num_tables() + 2 * i], 0.0);
        assert_eq!(v[enc.num_tables() + 2 * i + 1], 1.0);
    }

    #[test]
    fn unconstrained_attrs_encode_full_range() {
        let (_, enc) = encoder();
        let q = Query::new(vec![0], vec![]);
        let v = enc.encode(&q);
        for i in 0..enc.attributes().len() {
            assert_eq!(v[enc.num_tables() + 2 * i], 0.0);
            assert_eq!(v[enc.num_tables() + 2 * i + 1], 1.0);
        }
    }

    #[test]
    fn decode_roundtrips_constrained_query() {
        let (ds, enc) = encoder();
        let cust = ds.schema.table("customer");
        let acct = ds.schema.tables[cust].col("c_acctbal");
        let s = ds.col_stats(cust, acct);
        let lo = s.denormalize(0.25);
        let hi = s.denormalize(0.75);
        let q = Query::new(
            vec![cust],
            vec![Predicate {
                table: cust,
                col: acct,
                lo,
                hi,
            }],
        );
        let rt = enc.decode(&enc.encode(&q));
        assert_eq!(rt.tables, q.tables);
        assert_eq!(rt.predicates.len(), 1);
        let p = rt.predicates[0];
        // Round-trip through normalization loses at most one domain step.
        assert!((p.lo - lo).abs() <= 1 + s.width() / 1000);
        assert!((p.hi - hi).abs() <= 1 + s.width() / 1000);
    }

    #[test]
    fn decode_drops_full_range_and_absent_table_predicates() {
        let (ds, enc) = encoder();
        let cust = ds.schema.table("customer");
        let q = Query::new(vec![cust], vec![]);
        let mut v = enc.encode(&q);
        // Constrain an attribute of a table that is NOT in the pattern.
        let other = enc
            .attributes()
            .iter()
            .position(|&(t, _)| t != cust)
            .expect("another table's attribute exists");
        v[enc.num_tables() + 2 * other] = 0.4;
        v[enc.num_tables() + 2 * other + 1] = 0.6;
        let rt = enc.decode(&v);
        assert!(rt.predicates.is_empty());
        assert_eq!(rt.tables, vec![cust]);
    }
}
