//! Every workload at quick size: the exact counters repeat exactly, the
//! checker catches a corrupted answer, and `BENCHMARK.json` names exactly
//! the metrics the program prints.

use perfbench::{run, Budget, Config, Report, Size, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

/// The repository's `prj-serve`, built once from its own workspace.
fn prj_serve() -> PathBuf {
    static BUILT: OnceLock<PathBuf> = OnceLock::new();
    BUILT
        .get_or_init(|| {
            let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("prj-serve");
            let status = Command::new(env!("CARGO"))
                .args(["build", "--offline", "--quiet", "-p", "prj-cluster"])
                .args(["--bin", "prj-serve", "--manifest-path"])
                .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
                .env("CARGO_TARGET_DIR", &target)
                .status()
                .expect("run cargo");
            assert!(status.success(), "building prj-serve failed");
            target.join("debug").join("prj-serve")
        })
        .clone()
}

fn quick(workload: Workload, trace: bool, corrupt_one_answer: bool) -> Report {
    let config = Config {
        workload,
        seed: 7,
        budget: Budget::Ops(12),
        trace,
        size: Size::quick(),
        worker_exe: prj_serve(),
        span_file: None,
        corrupt_one_answer,
    };
    run(&config).unwrap_or_else(|e| panic!("{workload:?}: {e}"))
}

const EXACT: [&str; 4] = [
    "sum_depths_per_query",
    "api.wire_bytes_per_op",
    "core.depth_per_query",
    "engine.depth_amplification",
];

#[test]
fn exact_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let first = quick(workload, true, false);
        let second = quick(workload, true, false);
        for report in [&first, &second] {
            assert!(report.correct, "{workload:?}: {:?}", report.notes);
            assert_eq!(report.failed, 0, "{workload:?}: {:?}", report.notes);
            for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
                assert!(report.get(name).is_finite(), "{workload:?} {name}");
            }
        }
        for name in EXACT {
            assert!(first.get(name) > 0.0, "{workload:?} {name}");
            assert_eq!(
                first.get(name).to_bits(),
                second.get(name).to_bits(),
                "{workload:?} {name}"
            );
        }
    }
}

#[test]
fn a_corrupted_answer_counts_as_a_failure() {
    for workload in Workload::ALL {
        let report = quick(workload, false, true);
        assert!(!report.correct, "{workload:?}");
        assert!(report.failed >= 1, "{workload:?}");
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let named = |name: &str| json.matches(&format!("\"name\": \"{name}\"")).count();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert_eq!(named(name), 1, "{name}");
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} {unit}"
        );
    }
    for workload in Workload::ALL {
        assert_eq!(named(workload.name()), 1, "{}", workload.name());
    }
    let metrics = json.matches("\"unit\":").count();
    assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
}
