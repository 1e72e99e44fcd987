//! Workspace-level properties of the falsification engine: the search is a
//! pure function of its `search_seed`, every emitted counterexample plan
//! replays bit-identically through the plain sweep path, the committed
//! regression corpus stays pinned to the byte, and a bursty-channel grid
//! merges bit-identically across all four execution engines.

use seo_core::falsify::falsify;
use seo_core::prelude::*;
use seo_core::shard::{parse_report_line, report_line};
use seo_core::transport::{HostPool, HostSpec, RemoteCoordinator};
use seo_integration::spawn_loopback_worker;
use std::path::Path;

/// The committed falsify preset, with the search budget overridden so test
/// runs stay cheap.
fn demo_plan(budget: usize, search_seed: u64) -> SweepPlan {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/plans/falsify-demo.json"
    );
    let text = std::fs::read_to_string(path).expect("committed falsify preset");
    let mut plan = SweepPlan::parse(&text).expect("preset parses");
    let spec = plan.falsify.expect("preset has a falsify section");
    plan.falsify = Some(FalsifySpec {
        budget,
        search_seed,
        ..spec
    });
    plan
}

/// The determinism tentpole: two falsification runs of the same plan with
/// the same `search_seed` produce byte-identical counterexample streams and
/// byte-identical search provenance.
#[test]
fn falsification_is_a_pure_function_of_the_search_seed() {
    let plan = demo_plan(16, 7);
    let first = falsify(&plan).expect("search runs");
    let second = falsify(&plan).expect("search runs again");

    let stream = |outcome: &FalsifyOutcome| -> Vec<String> {
        outcome
            .counterexamples
            .iter()
            .enumerate()
            .map(|(i, cx)| cx.line(i))
            .collect()
    };
    assert!(
        !first.counterexamples.is_empty(),
        "the committed preset must expose at least one violation"
    );
    assert_eq!(stream(&first), stream(&second), "counterexample stream");
    assert_eq!(
        first.stats.to_json().render(),
        second.stats.to_json().render(),
        "search provenance"
    );

    // A different seed explores differently: the evaluation trace must not
    // be byte-identical (the streams may still converge on the same
    // minima, the path there must not).
    let other = falsify(&demo_plan(16, 8)).expect("search runs");
    assert_ne!(
        first.stats.to_json().render(),
        other.stats.to_json().render(),
        "search seed must steer the search"
    );
}

/// The replay property: for several search seeds, every emitted one-cell
/// plan re-run through the plain serial sweep path reproduces the recorded
/// violating episode to the byte, and the objective recomputed from the
/// replayed report equals the recorded value to the bit.
#[test]
fn every_emitted_counterexample_replays_bit_identically() {
    for search_seed in [1, 7, 23] {
        let plan = demo_plan(10, search_seed);
        let outcome = falsify(&plan).expect("search runs");
        for cx in &outcome.counterexamples {
            let replayed = cx.plan.run_serial().expect("one-cell plan runs");
            assert_eq!(replayed.len(), 1, "a counterexample plan is one episode");
            assert_eq!(
                report_line(0, &replayed[0]),
                cx.expected_line(),
                "seed {search_seed}: replay must be bit-identical"
            );
            let value = cx.objective.value(&replayed[0]);
            assert!(
                value.to_bits() == cx.value.to_bits(),
                "seed {search_seed}: objective {} vs recorded {}",
                value,
                cx.value
            );
            assert!(value < plan.falsify.expect("spec").threshold, "violates");
        }
    }
}

/// The committed regression corpus: each `examples/plans/counterexamples/`
/// plan replays to exactly the bytes of its `.expected.ndjson` — the
/// recorded violating metric is pinned to the bit across refactors.
#[test]
fn committed_counterexample_corpus_replays_to_the_recorded_bytes() {
    let dir = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/plans/counterexamples"
    ));
    let mut plans: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "json")
                && !p.to_string_lossy().ends_with(".expected.ndjson")
        })
        .collect();
    plans.sort();
    assert!(
        plans.len() >= 2,
        "the corpus commits at least two counterexamples, found {plans:?}"
    );

    for path in plans {
        let text = std::fs::read_to_string(&path).expect("corpus plan");
        let plan = SweepPlan::parse(&text).expect("corpus plan parses");
        assert_eq!(plan.n_specs(), 1, "{path:?} must be a one-cell plan");

        let expected_path = path.with_extension("expected.ndjson");
        let expected = std::fs::read_to_string(&expected_path).expect("recorded episode");
        let replayed = plan.run_serial().expect("replays");
        assert_eq!(
            report_line(0, &replayed[0]),
            expected.trim_end(),
            "{path:?} must replay to its recorded bytes"
        );
    }
}

/// Async offload must not perturb the falsification search: the same
/// violations fall out in the same order with a byte-identical evaluation
/// trace, and every emitted replay plan inherits the async exec section so
/// its regression replay exercises the reactor path.
#[test]
fn falsify_search_is_identical_with_async_offload_on_and_off() {
    let blocking = demo_plan(12, 7);
    let with_async = blocking
        .clone()
        .with_offload(OffloadExec::Async { in_flight: 8 });
    let off = falsify(&blocking).expect("blocking search");
    let on = falsify(&with_async).expect("async search");

    assert_eq!(
        off.stats.to_json().render(),
        on.stats.to_json().render(),
        "async offload must not steer the search"
    );
    assert!(!off.counterexamples.is_empty(), "preset exposes violations");
    assert_eq!(off.counterexamples.len(), on.counterexamples.len());
    for (a, b) in off.counterexamples.iter().zip(&on.counterexamples) {
        assert_eq!(a.expected_line(), b.expected_line(), "violating episode");
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "objective value");
        assert_eq!((a.obstacles, a.seed), (b.obstacles, b.seed), "scenario");
        assert_eq!(
            b.plan.offload,
            OffloadExec::Async { in_flight: 8 },
            "replay plan must inherit the async exec"
        );
        let replayed = b.plan.run_serial().expect("async replay runs");
        assert_eq!(
            report_line(0, &replayed[0]),
            b.expected_line(),
            "async replay must be bit-identical"
        );
    }
}

/// The four-engine property with the new axes in play: a grid over the
/// bursty Gilbert–Elliott channel and moving-obstacle traffic merges
/// bit-identically — field-wise and on the wire — through the serial loop,
/// the thread pool, the sharded worker/merge composition (the process
/// engine's in-process core), and loopback TCP hosts.
#[test]
fn bursty_traffic_grid_merges_bit_identically_across_all_four_engines() {
    let plan = SweepPlan::paper(2, 2023)
        .with_obstacles(vec![0, 2])
        .with_tau_ms(vec![20.0])
        .with_channels(vec![ChannelKind::Bursty])
        .with_traffic(vec![
            TrafficKind::Static,
            TrafficKind::Crossing {
                count: 2,
                speed_mps: 3.0,
            },
        ]);
    let serial = plan.run_serial().expect("serial runs");
    assert_eq!(serial.len(), plan.n_specs());

    // Engine 2: the in-process thread pool.
    assert_eq!(plan.run_threads(3).expect("threads run"), serial);

    // Engine 3: the sharded worker path — every shard rendered to wire
    // lines, fed to the streaming merge in worst-case (reversed) order.
    let n = plan.n_specs();
    let shard_plan = ShardPlanner::new(3).plan(n).expect("shard plan");
    let mut merge = StreamingMerge::new(n);
    let mut drained = Vec::new();
    for &shard in shard_plan.shards().iter().rev() {
        let mut lines = Vec::new();
        plan.run_range(shard, plan.kernel, |i, report| {
            lines.push(report_line(i, &report));
            true
        })
        .expect("shard runs");
        for line in &lines {
            let (index, report) = parse_report_line(line).expect("valid wire line");
            merge.accept(index, report).expect("accepted");
            drained.extend(merge.drain_ready());
        }
    }
    drained.extend(merge.finish().expect("complete"));
    assert_eq!(drained, serial, "sharded merge must reproduce serial");

    // Engine 4: loopback TCP hosts pulling plan-inline jobs.
    let pool = HostPool::new(
        (0..2)
            .map(|_| HostSpec {
                addr: spawn_loopback_worker().to_string(),
                capacity: 1,
            })
            .collect(),
    )
    .expect("valid pool");
    let (merged, stats) = RemoteCoordinator::new(pool).run_plan(&plan).expect("runs");
    assert!(stats.hosts_lost.is_empty(), "no losses expected");
    assert_eq!(merged, serial, "hosts merge must reproduce serial");
    for (i, (m, s)) in merged.iter().zip(&serial).enumerate() {
        assert_eq!(report_line(i, m), report_line(i, s), "wire line {i}");
    }
}
