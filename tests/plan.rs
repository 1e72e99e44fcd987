//! Workspace-level properties of the unified `SweepPlan` API: the paper
//! preset's equivalence with the obstacles x seeds grid, save → load → expand
//! identity, the validation rejection table (one case per invalid field,
//! each naming the field), and the multi-axis grid's agreement with the
//! experiment harness's single-cell semantics.

use seo_core::batch::{BatchRunner, ScenarioSpec};
use seo_core::plan::PLAN_VERSION;
use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_core::shard::report_line;

fn paper_runtime() -> RuntimeLoop {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("paper models");
    RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("valid runtime")
}

/// The acceptance invariant: the paper preset expands to exactly the
/// obstacles {0, 2, 4} x seeds `ScenarioSpec::grid` and its serial run is
/// bit-identical — field-wise and on the wire — to `BatchRunner::run_serial`
/// over that grid.
#[test]
fn paper_preset_is_bit_identical_to_the_legacy_grid() {
    let plan = SweepPlan::paper(6, 2023);
    let legacy = ScenarioSpec::grid(&[0, 2, 4], 2, 2023);
    let specs: Vec<ScenarioSpec> = plan.expand().iter().map(|p| p.spec).collect();
    assert_eq!(specs, legacy);

    let reference = BatchRunner::new(paper_runtime()).run_serial(&legacy);
    let serial = plan.run_serial().expect("plan runs");
    assert_eq!(serial, reference);
    for (i, (p, r)) in serial.iter().zip(&reference).enumerate() {
        assert_eq!(report_line(i, p), report_line(i, r), "wire line {i}");
    }
    // Threads mode is held to the same output.
    assert_eq!(plan.run_threads(3).expect("threads run"), reference);
}

/// Save → load → expand is index- and bit-identical: the reloaded plan is
/// equal, every grid point matches by index, and the reloaded plan's serial
/// run reproduces the original's bytes on the wire.
#[test]
fn save_load_expand_round_trip_is_identical() {
    let plan = SweepPlan::paper(3, 7)
        .with_tau_ms(vec![20.0, 25.0])
        .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating])
        .with_kernel(KernelBackend::Blocked)
        .with_verify(true);
    let saved = plan.to_json().render_pretty();
    let reloaded = SweepPlan::parse(&saved).expect("parses");
    assert_eq!(reloaded, plan);

    let original = plan.expand();
    let back = reloaded.expand();
    assert_eq!(back.len(), original.len());
    for (a, b) in original.iter().zip(&back) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.cell, b.cell);
    }

    let a = plan.run_serial().expect("original runs");
    let b = reloaded.run_serial().expect("reloaded runs");
    assert_eq!(a, b);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(report_line(i, x), report_line(i, y), "wire line {i}");
    }
}

/// The rejection table: one case per invalid field. Every case must fail
/// validation with the offending field named in the error text.
#[test]
fn validation_rejection_table_names_every_field() {
    let base = || SweepPlan::paper(6, 2023);
    let cases: Vec<(&str, SweepPlan)> = vec![
        ("axes.obstacles", base().with_obstacles(vec![])),
        ("axes.obstacles", base().with_obstacles(vec![2, 2])),
        ("axes.tau_ms", base().with_tau_ms(vec![])),
        ("axes.tau_ms", base().with_tau_ms(vec![0.0])),
        ("axes.tau_ms", base().with_tau_ms(vec![f64::NAN])),
        ("axes.gating_levels", base().with_gating_levels(vec![])),
        ("axes.gating_levels", base().with_gating_levels(vec![-0.1])),
        ("axes.gating_levels", base().with_gating_levels(vec![1.1])),
        ("axes.control_modes", base().with_control_modes(vec![])),
        (
            "axes.control_modes",
            base().with_control_modes(vec![ControlMode::Filtered, ControlMode::Filtered]),
        ),
        ("axes.optimizers", base().with_optimizers(vec![])),
        ("axes.controllers", base().with_controllers(vec![])),
        ("axes.seeds.runs", base().with_seeds(2023, 0)),
        ("exec.workers", base().with_mode(ExecMode::Threads(0))),
        ("exec.workers", base().with_mode(ExecMode::Processes(7))),
        ("exec.timeout_secs", base().with_timeout_secs(-1.0)),
        ("exec.timeout_secs", base().with_timeout_secs(f64::INFINITY)),
        // Parses as a finite positive f64 but exceeds what Duration can
        // represent — must be a validation error, not a panic at use.
        ("exec.timeout_secs", base().with_timeout_secs(1e30)),
    ];
    for (field, plan) in cases {
        let err = plan.validate().expect_err(field);
        assert!(
            err.to_string().contains(field),
            "expected '{field}' in: {err}"
        );
    }
    // Duplicate hosts are rejected at pool construction and again by the
    // plan's own validation (covering hand-built pools): exercise the JSON
    // path, where the field must be named.
    let err = SweepPlan::parse(
        r#"{"v":1,"exec":{"mode":{"hosts":{"v":1,"hosts":[
            {"addr":"a:1","capacity":1},{"addr":"a:1","capacity":1}]}}}}"#,
    )
    .expect_err("duplicate hosts");
    assert!(
        err.to_string().contains("exec.mode.hosts"),
        "field not named: {err}"
    );
    // Unknown kernels are caught at parse time with the valid names listed.
    let err = SweepPlan::parse(r#"{"v":1,"exec":{"kernel":"warp9"}}"#).expect_err("bad kernel");
    let text = err.to_string();
    assert!(text.contains("exec.kernel"), "{text}");
    assert!(text.contains("scalar, blocked"), "{text}");
}

/// Sweeping a runtime axis must agree with configuring the experiment
/// harness by hand: the plan's gating-level cells reproduce episodes run
/// through `SeoConfig::with_gating_level` directly.
#[test]
fn multi_axis_cells_match_hand_built_runtimes() {
    let plan = SweepPlan::paper(3, 11)
        .with_obstacles(vec![2])
        .with_seeds(11, 2)
        .with_gating_levels(vec![0.25, 0.75])
        .with_optimizers(vec![OptimizerKind::ModelGating]);
    let reports = plan.run_serial().expect("plan runs");
    assert_eq!(reports.len(), 4, "2 gating levels x 1 obstacle x 2 seeds");

    let mut expected = Vec::new();
    for level in [0.25, 0.75] {
        let config = SeoConfig::paper_defaults().with_gating_level(level);
        let models = ModelSet::paper_setup(config.tau).expect("models");
        let runtime =
            RuntimeLoop::new(config, models, OptimizerKind::ModelGating).expect("runtime");
        for seed in [11u64, 12] {
            expected.push(runtime.run_episode(&ScenarioSpec::new(2, seed).world(), seed));
        }
    }
    assert_eq!(reports, expected);
}

/// Every committed example plan must stay valid against the current schema,
/// and the paper example must *be* the paper preset (60 scenarios).
#[test]
fn committed_example_plans_validate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/plans");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(dir).expect("examples/plans exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable");
        let plan = SweepPlan::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(plan.n_specs() > 0, "{}: empty grid", path.display());
        seen += 1;
        if path.file_name().and_then(|n| n.to_str()) == Some("paper.json") {
            assert_eq!(plan, SweepPlan::paper(60, 2023), "paper.json drifted");
        }
    }
    assert!(
        seen >= 3,
        "expected the committed preset plans, found {seen}"
    );
}

#[test]
fn plan_version_is_stamped() {
    assert_eq!(PLAN_VERSION, 1);
    let rendered = SweepPlan::paper(6, 2023).to_json().render();
    assert!(rendered.starts_with(r#"{"v":1,"#), "{rendered}");
}
