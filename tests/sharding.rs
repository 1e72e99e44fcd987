//! In-process properties of the sharded sweep subsystem: shard planning
//! edge cases, wire-format round-trips, and the planner × merge composition
//! reproducing a serial sweep bit-for-bit.

use seo_core::batch::{BatchRunner, ScenarioSpec};
use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_core::shard::{
    parse_report_line, report_line, Shard, ShardError, ShardPlan, ShardPlanner, StreamingMerge,
};

fn runner(optimizer: OptimizerKind) -> BatchRunner {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("paper models");
    BatchRunner::new(RuntimeLoop::new(config, models, optimizer).expect("valid runtime"))
}

/// One shard's worker output: the process engine's worker (`sweep
/// --worker`) runs the shard through `SweepPlan::run_range` and writes one
/// wire line per episode.
fn worker_output(plan: &SweepPlan, shard: Shard) -> Vec<String> {
    let mut lines = Vec::new();
    plan.run_range(shard, plan.kernel, |i, report| {
        lines.push(report_line(i, &report));
        true
    })
    .expect("worker runs");
    lines
}

#[test]
fn plans_cover_every_grid_exactly_once() {
    for n_specs in [1usize, 2, 5, 7, 16, 97] {
        for workers in [1usize, 2, 3, 4] {
            if workers > n_specs {
                continue;
            }
            let plan = ShardPlanner::new(workers).plan(n_specs).expect("valid");
            assert_eq!(plan.shards().len(), workers);
            let mut covered = vec![false; n_specs];
            for shard in plan.shards() {
                assert!(!shard.is_empty(), "no empty shards");
                for i in shard.indices() {
                    assert!(!covered[i], "index {i} covered twice");
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "every index covered");
            let (min, max) = plan.shards().iter().fold((usize::MAX, 0), |(lo, hi), s| {
                (lo.min(s.len()), hi.max(s.len()))
            });
            assert!(max - min <= 1, "near-even split: {min}..{max}");
        }
    }
}

#[test]
fn planner_edge_cases() {
    // Empty grid: a valid, empty plan.
    let empty = ShardPlanner::new(8).plan(0).expect("empty grid");
    assert!(empty.shards().is_empty());
    // More workers than specs: rejected up front…
    assert!(matches!(
        ShardPlanner::new(8).plan(3),
        Err(ShardError::TooManyWorkers {
            workers: 8,
            specs: 3
        })
    ));
    // …unless explicitly clamped, which degrades to single-spec shards.
    let clamped = ShardPlanner::new(8).plan_clamped(3).expect("clamps");
    assert_eq!(clamped.shards().len(), 3);
    assert!(clamped.shards().iter().all(|s| s.len() == 1));
    // Single-spec shards at exact parity.
    let singles = ShardPlanner::new(4).plan(4).expect("valid");
    assert!(singles.shards().iter().all(|s| s.len() == 1));
}

#[test]
fn explicit_plan_validation_catches_misconfigurations() {
    let overlap = vec![Shard::new(0, 3), Shard::new(2, 5)];
    assert!(matches!(
        ShardPlan::from_shards(overlap, 5),
        Err(ShardError::ShardOverlap { index: 1 })
    ));
    let gap = vec![Shard::new(0, 2), Shard::new(3, 5)];
    assert!(matches!(
        ShardPlan::from_shards(gap, 5),
        Err(ShardError::ShardGap { index: 1, .. })
    ));
    let empty = vec![Shard::new(0, 2), Shard::new(2, 2), Shard::new(2, 4)];
    assert!(matches!(
        ShardPlan::from_shards(empty, 4),
        Err(ShardError::EmptyShard { index: 1 })
    ));
    let short = vec![Shard::new(0, 2)];
    assert!(ShardPlan::from_shards(short, 4).is_err(), "uncovered tail");
}

#[test]
fn report_wire_round_trip_is_exact_for_real_episodes() {
    let runner = runner(OptimizerKind::Offloading);
    // 0-obstacle episodes carry min_distance = +inf; 2/4-obstacle episodes
    // carry dense finite floats. Both must survive the wire exactly.
    for (i, spec) in ScenarioSpec::grid(&[0, 2, 4], 2, 7).iter().enumerate() {
        let report = runner.runtime().run_episode(&spec.world(), spec.seed);
        let line = report_line(i, &report);
        let (index, back) = parse_report_line(&line).expect("parses");
        assert_eq!(index, i);
        assert_eq!(back, report, "round-trip must be exact for {spec}");
    }
}

/// The tentpole property: shard the grid, run every shard through the
/// worker path, stream the (deliberately interleaved) lines into the merge —
/// and the result is bit-identical to `run_serial`, for every worker count
/// and uneven shard sizes.
#[test]
fn planner_merge_composition_reproduces_serial_sweep() {
    let runner = runner(OptimizerKind::Offloading);
    let specs = ScenarioSpec::grid(&[0, 2, 4], 2, 2023); // 6 specs
    let serial = runner.run_serial(&specs);
    let sweep = SweepPlan::paper(6, 2023); // the same 6 specs
    for workers in [1usize, 2, 4] {
        let plan = ShardPlanner::new(workers).plan(specs.len()).expect("plan");
        // Collect every shard's wire output…
        let outputs: Vec<Vec<String>> = plan
            .shards()
            .iter()
            .map(|&shard| worker_output(&sweep, shard))
            .collect();
        // …and feed the lines in a worst-case arrival order: shards
        // reversed, so high indices land before low ones.
        let mut merge = StreamingMerge::new(specs.len());
        let mut drained = Vec::new();
        for output in outputs.iter().rev() {
            for line in output {
                let (index, report) = parse_report_line(line).expect("valid line");
                merge.accept(index, report).expect("accepted");
                drained.extend(merge.drain_ready());
            }
        }
        drained.extend(merge.finish().expect("complete"));
        assert_eq!(
            drained,
            serial,
            "{workers} workers (shards {:?}) must reproduce the serial sweep",
            plan.shards()
        );
    }
}

#[test]
fn merge_rejects_duplicate_index_and_keeps_the_original() {
    let runner = runner(OptimizerKind::Offloading);
    let specs = ScenarioSpec::grid(&[0, 2], 1, 5);
    let reports = runner.run_serial(&specs);
    assert_ne!(reports[0], reports[1], "distinct reports for the test");

    let mut merge = StreamingMerge::new(specs.len());
    merge.accept(0, reports[0].clone()).expect("first accept");
    // A duplicate is a protocol violation — NOT a silent last-write-wins:
    // re-sending index 0 with a *different* report must be rejected…
    assert_eq!(
        merge.accept(0, reports[1].clone()),
        Err(ShardError::DuplicateIndex { index: 0 })
    );
    // …and must not bump the received count.
    assert_eq!(merge.received(), 1);
    merge.accept(1, reports[1].clone()).expect("second accept");
    // The original report survived the duplicate attempt untouched.
    assert_eq!(merge.finish().expect("complete"), reports);
}

#[test]
fn merge_rejects_duplicates_even_after_draining() {
    let runner = runner(OptimizerKind::Offloading);
    let specs = ScenarioSpec::grid(&[0], 2, 9);
    let reports = runner.run_serial(&specs);
    let mut merge = StreamingMerge::new(specs.len());
    merge.accept(0, reports[0].clone()).expect("ok");
    assert_eq!(merge.drain_ready().len(), 1, "prefix released");
    // The slot is gone, but the index is still remembered as taken.
    assert_eq!(
        merge.accept(0, reports[1].clone()),
        Err(ShardError::DuplicateIndex { index: 0 })
    );
}

#[test]
fn merge_rejects_out_of_range_index_without_corrupting_state() {
    let runner = runner(OptimizerKind::Offloading);
    let specs = ScenarioSpec::grid(&[0], 2, 3);
    let reports = runner.run_serial(&specs);
    let mut merge = StreamingMerge::new(specs.len());
    // One-past-the-end and far-out indices are both named violations.
    for bad in [specs.len(), specs.len() + 100] {
        assert_eq!(
            merge.accept(bad, reports[0].clone()),
            Err(ShardError::IndexOutOfRange {
                index: bad,
                total: specs.len()
            })
        );
    }
    // The rejected reports left no trace: the merge still completes with
    // exactly the in-range accepts.
    assert_eq!(merge.received(), 0);
    merge.accept(0, reports[0].clone()).expect("ok");
    merge.accept(1, reports[1].clone()).expect("ok");
    assert_eq!(merge.finish().expect("complete"), reports);
}

#[test]
fn duplicate_wire_lines_surface_as_protocol_violations() {
    // End to end through the wire format: a worker stream that repeats an
    // index must fail the merge loudly, never overwrite silently.
    let plan = SweepPlan::paper(3, 2023).with_obstacles(vec![0, 2]);
    let mut lines = worker_output(&plan, Shard::new(0, 2));
    lines.push(lines[0].clone()); // replayed line, as a buggy transport might

    let mut merge = StreamingMerge::new(plan.n_specs());
    let mut violation = None;
    for line in &lines {
        let (index, report) = parse_report_line(line).expect("valid line");
        if let Err(e) = merge.accept(index, report) {
            violation = Some(e);
        }
    }
    assert_eq!(violation, Some(ShardError::DuplicateIndex { index: 0 }));
}

#[test]
fn merge_streams_prefixes_incrementally() {
    let runner = runner(OptimizerKind::ModelGating);
    let specs = ScenarioSpec::grid(&[0, 2], 2, 11);
    let reports = runner.run_serial(&specs);
    let mut merge = StreamingMerge::new(specs.len());
    // Arrival order 1, 0, 3, 2 — prefixes release as soon as contiguous.
    merge.accept(1, reports[1].clone()).expect("ok");
    assert_eq!(merge.drain_ready().len(), 0);
    merge.accept(0, reports[0].clone()).expect("ok");
    assert_eq!(merge.drain_ready().len(), 2, "0 and 1 release together");
    merge.accept(3, reports[3].clone()).expect("ok");
    assert_eq!(merge.drain_ready().len(), 0);
    merge.accept(2, reports[2].clone()).expect("ok");
    assert_eq!(merge.finish().expect("complete").len(), 2);
}
