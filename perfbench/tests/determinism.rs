//! Seeded determinism and metric coverage, at tiny sizes.

use sero_perfbench::gen::Expect;
use sero_perfbench::wire::check;
use sero_perfbench::workloads::{run, streams, Budget, Scale, Workload};
use sero_perfbench::{END_TO_END, PER_LAYER};
use sero_proto::{ErrorCode, Response, WireError};

/// Requests per connection (or scrub passes) in a replay.
fn budget(w: Workload) -> Budget {
    match w {
        Workload::ScrubAudit => Budget::Ops(2),
        // 40 ingest cycles reach the planted tamper.
        _ => Budget::Ops(200),
    }
}

#[test]
fn same_seed_same_request_bytes() {
    for w in [Workload::ServeRead, Workload::ArchiveIngest] {
        let a = streams(w, 7, &Scale::TINY, Budget::Ops(120));
        let b = streams(w, 7, &Scale::TINY, Budget::Ops(120));
        let c = streams(w, 8, &Scale::TINY, Budget::Ops(120));
        assert_eq!(a, b, "{}: same seed, same frames", w.name());
        assert_ne!(a, c, "{}: another seed, other frames", w.name());
        assert!(a.iter().all(|s| s.len() == 120));
    }
}

#[test]
fn single_connection_replay_repeats_device_counts() {
    for w in Workload::ALL {
        let first = run(w, 11, &Scale::TINY, budget(w), true).expect("first run");
        let second = run(w, 11, &Scale::TINY, budget(w), true).expect("second run");
        assert!(first.wrong.is_empty(), "{}: {:?}", w.name(), first.wrong);
        assert_eq!(first.failed, 0, "{}", w.name());
        assert_eq!(first.attempted, second.attempted, "{}", w.name());
        let exact: Vec<&str> = PER_LAYER
            .iter()
            .copied()
            .filter(|n| n.starts_with("probe.") && n.ends_with("_per_op"))
            .collect();
        assert_eq!(
            first.layers.select(&exact).0,
            second.layers.select(&exact).0,
            "{}: probe counts per op",
            w.name()
        );
        assert_eq!(
            first.e2e.get("device_ops_per_s"),
            second.e2e.get("device_ops_per_s"),
            "{}: device clock",
            w.name()
        );
        assert!(first.e2e.get("device_ops_per_s").unwrap_or(0.0) > 0.0);
    }
}

#[test]
fn tamper_surfaces_in_archive_ingest() {
    // The replay must reach the planted tamper and see it detected; a
    // missed detection lands in `wrong`.
    let ops = streams(Workload::ArchiveIngest, 3, &Scale::TINY, Budget::Ops(200));
    assert!(ops[0].iter().any(|op| op.tamper_before.is_some()));
    let out = run(
        Workload::ArchiveIngest,
        3,
        &Scale::TINY,
        Budget::Ops(200),
        false,
    )
    .expect("run");
    assert!(out.wrong.is_empty(), "{:?}", out.wrong);
}

#[test]
fn unexpected_error_answer_fails_the_check() {
    let no_space = Response::Error(WireError::new(ErrorCode::NoSpace, "full"));
    for expect in [
        Expect::Created,
        Expect::Written,
        Expect::Heated,
        Expect::Intact,
        Expect::Tamper,
    ] {
        assert!(check(1, &expect, &no_space).is_err(), "{expect:?}");
    }
    let tamper = Response::Error(WireError::new(ErrorCode::TamperDetected, "line 3"));
    assert!(check(1, &Expect::Tamper, &tamper).is_ok());
    assert!(check(1, &Expect::Intact, &tamper).is_err());
}

/// Metric names listed under `section` in the repository's
/// `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn every_listed_metric_is_emitted() {
    assert_eq!(listed("end_to_end"), END_TO_END);
    assert_eq!(listed("per_layer"), PER_LAYER);
    for w in Workload::ALL {
        let out = run(w, 5, &Scale::TINY, budget(w), true).expect("run");
        for name in END_TO_END {
            assert!(out.e2e.get(name).is_some(), "{}: {name}", w.name());
        }
        for name in PER_LAYER {
            assert!(out.layers.get(name).is_some(), "{}: {name}", w.name());
        }
    }
}
