//! Regression test for a churn schedule that was not reproducible: every
//! workload's script, run twice with one seed, must report bit-equal
//! quality metrics and counts, and different ones with another seed.
//! Small sizes through the test-only `Scale::tiny()`, not a CLI knob.

use promips_benchmark::report::Report;
use promips_benchmark::spec::{Scale, Workload, END_TO_END, PER_LAYER};
use promips_benchmark::workload;

/// End-to-end metrics that are functions of the seed alone.
const SEEDED_END_TO_END: [&str; 5] = [
    "recall_at_10",
    "overall_ratio",
    "c_guarantee_frac",
    "pages_per_query",
    "space_amp",
];

/// Per-layer metrics that are not clock readings (or ratios of them).
fn is_count(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "B" | "MB")
        || (unit == "ratio"
            && !matches!(
                name,
                "core.stage_coverage" | "shard.trace_coverage" | "obs.trace_overhead_frac"
            ))
}

fn run(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = workload::run(workload, &Scale::tiny(), seed, trace).expect("run failed");
    assert!(
        report.is_correct(),
        "{} seed {seed} is not correct",
        workload.name()
    );
    assert!(report.ops.attempted > 0);
    report
}

fn seeded(report: &Report, trace: bool) -> Vec<(&'static str, u64)> {
    let names: Vec<&'static str> = if trace {
        PER_LAYER
            .iter()
            .filter(|(name, unit)| is_count(name, unit))
            .map(|&(name, _)| name)
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| SEEDED_END_TO_END.contains(name))
            .collect()
    };
    names
        .into_iter()
        .map(|name| {
            (
                name,
                report.metrics.get(name).expect("metric set").to_bits(),
            )
        })
        .collect()
}

fn check(workload: Workload) {
    for trace in [false, true] {
        let first = run(workload, 7, trace);
        let again = run(workload, 7, trace);
        assert_eq!(first.ops, again.ops);
        assert_eq!(
            seeded(&first, trace),
            seeded(&again, trace),
            "{} trace={trace}: same seed, different numbers",
            workload.name()
        );
        let other = run(workload, 8, trace);
        assert_ne!(
            seeded(&first, trace),
            seeded(&other, trace),
            "{} trace={trace}: the seed does not reach the inputs",
            workload.name()
        );
    }
}

#[test]
fn lf300_hot_is_deterministic() {
    check(Workload::Lf300Hot);
}

#[test]
fn lf300_cold_is_deterministic() {
    check(Workload::Lf300Cold);
}

#[test]
fn skew64_shard4_is_deterministic() {
    check(Workload::Skew64Shard4);
}

#[test]
fn lf300_churn_is_deterministic() {
    check(Workload::Lf300Churn);
}
