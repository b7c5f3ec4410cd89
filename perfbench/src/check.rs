//! Output checks: every run's outputs must equal the values recorded for
//! its workload and seed, and every repetition inside a run must equal the
//! run's first (warm-up) pass.
//!
//! Records live in `perfbench/expected.tsv`, one
//! `workload<TAB>seed<TAB>key<TAB>value` line per checked output, and are
//! compiled into the binary. Outputs that do not depend on the seed (the
//! campaign, the trained models, the swap ledger) are recorded once with
//! seed `*`; the served reply digests are recorded per seed. A seed whose
//! reply digests are not recorded is still checked for repetition
//! consistency, and the run says so on standard output.

use std::collections::BTreeMap;

/// Checked outputs of one pass: key → exact value (hex bits or a ledger).
pub type Outputs = BTreeMap<String, String>;

/// The recorded outputs compiled into the binary.
pub const RECORDS: &str = include_str!("../expected.tsv");

/// The recorded outputs of `workload` at `seed`: its seed-independent
/// records plus those of that seed.
pub fn recorded(records: &str, workload: &str, seed: u64) -> Outputs {
    let seed = seed.to_string();
    records
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split('\t');
            let (w, s, k, v) = (f.next()?, f.next()?, f.next()?, f.next()?);
            (w == workload && (s == "*" || s == seed)).then(|| (k.to_string(), v.to_string()))
        })
        .collect()
}

/// Every recorded output that `got` does not reproduce, one line each.
pub fn mismatches(want: &Outputs, got: &Outputs) -> Vec<String> {
    want.iter()
        .filter_map(|(k, w)| match got.get(k) {
            Some(g) if g == w => None,
            Some(g) => Some(format!("{k}: recorded {w}, got {g}")),
            None => Some(format!("{k}: recorded {w}, missing")),
        })
        .collect()
}

/// Outputs that have no record to check against.
pub fn unrecorded<'a>(want: &Outputs, got: &'a Outputs) -> Vec<&'a str> {
    got.keys()
        .filter(|k| !want.contains_key(*k))
        .map(String::as_str)
        .collect()
}

/// Whether an output key depends on the run's seed (the served replies).
pub fn seeded(key: &str) -> bool {
    key.ends_with(".replies")
}

/// The record lines for `outputs` (what `--record` prints): seeded keys
/// under `seed`, the others under `*`.
pub fn record_lines(workload: &str, seed: u64, outputs: &Outputs) -> String {
    outputs
        .iter()
        .map(|(k, v)| {
            let s = if seeded(k) {
                seed.to_string()
            } else {
                "*".to_string()
            };
            format!("{workload}\t{s}\t{k}\t{v}\n")
        })
        .collect()
}

/// A float as exact hex bits.
pub fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}
