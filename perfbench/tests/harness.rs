//! Tests of the benchmark harness itself (no workload is run).

use pace_perfbench::check::{self, Outputs};
use pace_perfbench::names::{valid_name, valid_unit};
use pace_perfbench::report::RunResult;
use pace_perfbench::schedule::{round_order, OpKind};
use pace_perfbench::stats::{median, percentile};
use pace_perfbench::workload;

#[test]
fn percentile_is_nearest_rank() {
    // The textbook nearest-rank example, given unsorted.
    let v = [35.0, 20.0, 50.0, 15.0, 40.0];
    assert_eq!(percentile(&v, 0.0), 15.0);
    assert_eq!(percentile(&v, 5.0), 15.0);
    assert_eq!(percentile(&v, 30.0), 20.0);
    assert_eq!(percentile(&v, 40.0), 20.0);
    assert_eq!(percentile(&v, 50.0), 35.0);
    assert_eq!(percentile(&v, 90.0), 50.0);
    assert_eq!(percentile(&v, 100.0), 50.0);
    // Even counts take the lower middle value: always a measured one.
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    assert_eq!(median(&[7.5]), 7.5);
    // p90 of ten samples is the ninth smallest, not the maximum.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&ten, 90.0), 9.0);
}

#[test]
#[should_panic(expected = "empty sample")]
fn percentile_of_nothing_panics() {
    percentile(&[], 50.0);
}

#[test]
fn metric_names_use_the_allowed_charset() {
    for ok in [
        "setup_s",
        "serve.run_s.rated",
        "pace-tpch-fcn",
        "0x",
        "a.b-c_d",
    ] {
        assert!(valid_name(ok), "{ok} should be valid");
    }
    let long = "a".repeat(65);
    for bad in [
        "",
        "_lead",
        ".lead",
        "a b",
        "a/b",
        "naïve",
        "x\"y",
        long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad:?} should be invalid");
    }
    for ok in ["s", "ms", "1/s", "%", "count", "Gflop", "MiB"] {
        assert!(valid_unit(ok), "{ok} should be valid");
    }
    for bad in ["", "µs", "a b", "seventeen-chars-x"] {
        assert!(!valid_unit(bad), "{bad:?} should be invalid");
    }
    for name in workload::NAMES {
        assert!(valid_name(name));
        assert!(workload::spec(name).is_some());
    }
}

#[test]
fn result_line_rejects_bad_metrics() {
    let mut r = RunResult::default();
    r.push("setup_s", 0.25, "s");
    assert!(r.problems().is_empty());
    r.push("setup_s", 0.5, "s");
    r.push("bad name", 1.0, "s");
    r.push("nan_value", f64::NAN, "s");
    assert_eq!(r.problems().len(), 3);
    let json = RunResult {
        correct: true,
        attempted: 4,
        failed: 0,
        metrics: r.metrics[..1].to_vec(),
    }
    .to_json();
    assert_eq!(
        json,
        r#"{"correct": true, "attempted": 4, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
    );
}

#[test]
fn benchmark_json_names_are_valid() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let field = |key: &str| -> Vec<String> {
        text.split(&format!("\"{key}\": \""))
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap_or_default().to_string())
            .collect()
    };
    let names = field("name");
    assert!(names.len() > 10);
    let mut seen = std::collections::BTreeSet::new();
    for n in &names {
        assert!(valid_name(n), "{n}");
        assert!(seen.insert(n.clone()), "{n} used twice");
    }
    for u in field("unit") {
        assert!(valid_unit(&u), "{u}");
    }
    for name in workload::NAMES {
        assert!(names.iter().any(|n| n == name), "{name} missing");
    }
}

#[test]
fn schedule_is_deterministic_per_seed() {
    for seed in [0u64, 1, 7, u64::MAX] {
        for round in 0..32 {
            let a = round_order(seed, round);
            assert_eq!(a, round_order(seed, round));
            let mut sorted = a;
            sorted.sort();
            assert_eq!(sorted, OpKind::ALL, "round {round} is not a permutation");
        }
    }
    let orders = |seed| (0..16).map(|r| round_order(seed, r)).collect::<Vec<_>>();
    assert_ne!(orders(1), orders(2));
    // Every kind gets measured first in some round.
    let firsts: std::collections::BTreeSet<OpKind> = orders(3).iter().map(|o| o[0]).collect();
    assert_eq!(firsts.len(), 4);
}

#[test]
fn output_check_fails_on_a_perturbed_digest() {
    let records = "# comment\n\
                   w\t*\tcampaign.poison_queries\t00000000deadbeef\n\
                   w\t5\tserve.rated.replies\t0000000000c0ffee\n\
                   other\t*\tcampaign.poison_queries\t1111111111111111\n";
    let want = check::recorded(records, "w", 5);
    assert_eq!(want.len(), 2);
    let mut got: Outputs = want.clone();
    assert!(check::mismatches(&want, &got).is_empty());

    got.insert(
        "campaign.poison_queries".to_string(),
        "00000000deadbeee".to_string(),
    );
    let diffs = check::mismatches(&want, &got);
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].starts_with("campaign.poison_queries"));

    got.remove("serve.rated.replies");
    assert_eq!(check::mismatches(&want, &got).len(), 2);

    // Another seed shares the seed-independent records only.
    let other = check::recorded(records, "w", 6);
    assert_eq!(other.len(), 1);
    assert_eq!(
        check::unrecorded(&other, &want),
        vec!["serve.rated.replies"]
    );
}

#[test]
fn record_lines_round_trip() {
    let out: Outputs = [
        ("campaign.poison_js".to_string(), check::bits(0.125)),
        (
            "serve.swap.replies".to_string(),
            "0123456789abcdef".to_string(),
        ),
    ]
    .into();
    let lines = check::record_lines("w", 9, &out);
    assert!(lines.contains("w\t*\tcampaign.poison_js\t3fc0000000000000\n"));
    assert!(lines.contains("w\t9\tserve.swap.replies\t0123456789abcdef\n"));
    assert_eq!(check::recorded(&lines, "w", 9), out);
}

#[test]
fn every_workload_has_seed_independent_records() {
    for name in workload::NAMES {
        let want = check::recorded(check::RECORDS, name, u64::MAX);
        for key in [
            "setup.fixture",
            "campaign.attack_qerr_x",
            "campaign.poison_js",
            "campaign.poison_queries",
            "serve.swap.ledger",
        ] {
            assert!(want.contains_key(key), "{name}: no record of {key}");
        }
    }
}
