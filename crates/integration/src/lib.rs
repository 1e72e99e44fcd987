//! Integration-test host crate: the actual tests live in the workspace-level
//! `tests/` directory. The crate itself exports the cross-suite assertion
//! helpers those tests share — most importantly
//! [`assert_all_engines_bit_identical`], the statement of the repo's
//! determinism invariant as one importable function.
#![forbid(unsafe_code)]

use seo_core::prelude::*;
use seo_core::reactor::OffloadExec;
use seo_core::shard::{
    parse_report_line, parse_summary_line, report_line, summary_line, ShardPlanner, StreamingMerge,
};
use seo_core::transport::{
    error_frame, read_frame, serve_job, write_frame, HostPool, HostSpec, JobRequest,
    RemoteCoordinator, DEFAULT_TIMEOUT,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// Concurrent-job cap of [`spawn_loopback_worker`]'s daemon: above any
/// pool capacity the suites use, so no `busy` retries appear.
const LOOPBACK_JOBS: usize = 8;

fn paper_runtime() -> RuntimeLoop {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("paper models");
    RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("paper runtime")
}

/// Starts an in-process `seo-sweepd` ([`DaemonServer`]) on an OS-assigned
/// loopback port and returns its address. Plan jobs ship the plan inline,
/// so the daemon's paper runtime only contributes its kernel backend.
///
/// # Panics
///
/// Panics when the loopback socket cannot be bound or the paper runtime
/// cannot be built — both unconditional test-environment failures.
#[must_use]
pub fn spawn_loopback_worker() -> SocketAddr {
    let config = DaemonConfig {
        jobs: LOOPBACK_JOBS,
        ..DaemonConfig::default()
    };
    let server = Arc::new(DaemonServer::bind("127.0.0.1:0", config).expect("bind loopback"));
    let addr = server.local_addr().expect("local addr");
    let runtime = Arc::new(paper_runtime());
    std::thread::spawn(move || {
        let _ = server.serve(runtime);
    });
    addr
}

/// A host that reliably dies mid-shard and never comes back: every job it
/// serves drops the connection after `fail_after` fault-injector hooks,
/// without a `done` frame, and any other first frame — a `health` probe
/// included — gets an `error` frame. A coordinator that quarantines it
/// therefore never readmits it (a [`DaemonServer`] would pass the probe
/// and rejoin). Built on [`serve_job`], the daemon's own job path; it
/// serves one connection at a time, which is all one coordinator's pull
/// loop for a host ever opens.
///
/// # Panics
///
/// Same conditions as [`spawn_loopback_worker`].
#[must_use]
pub fn spawn_failing_loopback_worker(fail_after: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let runtime = paper_runtime();
    let faults = FaultPlan::fail_after(fail_after);
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let _ = stream.set_read_timeout(Some(DEFAULT_TIMEOUT));
            let _ = stream.set_nodelay(true);
            serve_failing(&mut stream, &runtime, &faults);
        }
    });
    addr
}

fn serve_failing(stream: &mut TcpStream, runtime: &RuntimeLoop, faults: &FaultPlan) {
    let Ok(Some(frame)) = read_frame(stream) else {
        return;
    };
    match JobRequest::from_frame(&frame) {
        Ok(job) => {
            let _ = serve_job(stream, &job, runtime, &mut faults.injector(0));
        }
        Err(e) => {
            let _ = write_frame(stream, &error_frame(&e.to_string()));
        }
    }
}

/// The determinism invariant as one assertion: the plan's merged NDJSON is
/// byte-identical to the **blocking serial** run in all four engines —
/// serial, in-process threads, the sharded worker/merge composition (the
/// process engine's core, with shards merged in worst-case reversed
/// order), and loopback TCP hosts. The plan is run exactly as given (in
/// particular with its `exec.offload` setting), while the baseline is the
/// same grid forced to `OffloadExec::Blocking` — so calling this with an
/// async plan asserts the reactor changes nothing but the overlap.
///
/// Returns the baseline reports so callers can chain further assertions.
///
/// # Panics
///
/// Panics when any engine fails to run or any engine's wire bytes diverge
/// from the blocking serial baseline.
pub fn assert_all_engines_bit_identical(plan: &SweepPlan) -> Vec<EpisodeReport> {
    let wire = |reports: &[EpisodeReport]| -> Vec<String> {
        reports
            .iter()
            .enumerate()
            .map(|(i, r)| report_line(i, r))
            .collect()
    };
    let baseline = plan
        .clone()
        .with_offload(OffloadExec::Blocking)
        .run_serial()
        .expect("blocking serial baseline");
    assert_eq!(baseline.len(), plan.n_specs());
    let expected = wire(&baseline);

    // Engine 1: the serial loop (a reactor when the plan is async).
    let serial = plan.run_serial().expect("serial engine");
    assert_eq!(wire(&serial), expected, "serial vs blocking baseline");

    // Engine 2: the in-process thread pool.
    let threads = plan.run_threads(3).expect("threads engine");
    assert_eq!(wire(&threads), expected, "threads vs blocking baseline");

    // Engine 3: the sharded worker path — every shard rendered to wire
    // lines, fed to the streaming merge in worst-case (reversed) order.
    let n = plan.n_specs();
    let shard_plan = ShardPlanner::new(3.min(n)).plan(n).expect("shard plan");
    let mut merge = StreamingMerge::new(n);
    let mut drained = Vec::new();
    for &shard in shard_plan.shards().iter().rev() {
        let mut lines = Vec::new();
        plan.run_range(shard, plan.kernel, |i, report| {
            lines.push(report_line(i, &report));
            true
        })
        .expect("worker shard runs");
        for line in &lines {
            let (index, report) = parse_report_line(line).expect("valid wire line");
            merge.accept(index, report).expect("accepted");
            drained.extend(merge.drain_ready());
        }
    }
    drained.extend(merge.finish().expect("merge completes"));
    assert_eq!(
        wire(&drained),
        expected,
        "worker merge vs blocking baseline"
    );

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
    let (merged, stats) = RemoteCoordinator::new(pool)
        .run_plan(plan)
        .expect("hosts engine");
    assert!(stats.hosts_lost.is_empty(), "no host losses expected");
    assert_eq!(wire(&merged), expected, "hosts vs blocking baseline");

    baseline
}

/// The summary-mode sibling of [`assert_all_engines_bit_identical`]: folds
/// the plan's grid through all four engine compositions — serial fold,
/// threads fold, the process-engine wire composition (per-shard fragments
/// rendered to [`summary_line`] bytes, parsed back, folded in worst-case
/// reversed arrival order), and loopback TCP hosts — and asserts the
/// rendered per-cell summary lines are **byte-identical** throughout.
///
/// The hosts leg runs with one healthy worker and one that dies mid-lease
/// on *every* connection, so it also asserts the exactly-once contract: a
/// dying worker's partial fold never reaches the coordinator (summary
/// fragments are all-or-nothing per connection), and every episode of the
/// re-issued leases is folded exactly once.
///
/// Returns the serial fold's rendered lines so callers can chain further
/// assertions.
///
/// # Panics
///
/// Panics when the plan does not carry a pure-`summary` report section,
/// when any engine fails to run, or when any fold's bytes diverge.
pub fn assert_summary_bit_identical(plan: &SweepPlan) -> Vec<String> {
    let report = plan
        .report
        .as_ref()
        .expect("plan must carry a report section");
    assert!(
        !plan.emits_episodes(),
        "summary bit-identity needs pure summary report mode"
    );
    let quantiles = report.quantiles.clone();
    let render = |summary: &RunSummary| summary.lines(&quantiles);

    // Baseline: the in-process serial fold.
    let mut serial = plan.run_summary();
    plan.run_range(Shard::new(0, plan.n_specs()), plan.kernel, |i, report| {
        serial.record(i, &report);
        true
    })
    .expect("serial fold");
    assert_eq!(serial.episodes(), plan.n_specs() as u64);
    let expected = render(&serial);

    // Engine 2: the in-process thread pool, folded from its merged output.
    let mut threads = plan.run_summary();
    for (i, report) in plan
        .run_threads(3)
        .expect("threads engine")
        .into_iter()
        .enumerate()
    {
        threads.record(i, &report);
    }
    assert_eq!(render(&threads), expected, "threads fold vs serial fold");

    // Engine 3: the process-engine composition — each shard's fragment
    // crosses the summary wire line and the fragments fold in worst-case
    // (reversed) arrival order; fold_fragments re-sorts by spec index.
    let n = plan.n_specs();
    let shard_plan = ShardPlanner::new(3.min(n)).plan(n).expect("shard plan");
    let mut fragments = Vec::new();
    for &shard in shard_plan.shards().iter().rev() {
        let mut fold = RunSummary::for_range(shard, plan.axes.specs_per_cell());
        plan.run_range(shard, plan.kernel, |i, report| {
            fold.record(i, &report);
            true
        })
        .expect("worker shard runs");
        let line = summary_line(shard, &fold.fragment());
        let (parsed_shard, cells) = parse_summary_line(&line).expect("valid summary line");
        assert_eq!(parsed_shard, shard, "summary line round-trips its shard");
        fragments.push((parsed_shard, cells));
    }
    let mut processes = plan.run_summary();
    processes.fold_fragments(fragments).expect("fragments fold");
    assert_eq!(
        render(&processes),
        expected,
        "process fragments vs serial fold"
    );

    // Engine 4: loopback hosts — one healthy, one killed mid-lease on
    // every connection (the drop always lands before its summary frame,
    // so the dying worker's partial local fold must never surface).
    let pool = HostPool::new(vec![
        HostSpec {
            addr: spawn_failing_loopback_worker(1).to_string(),
            capacity: 1,
        },
        HostSpec {
            addr: spawn_loopback_worker().to_string(),
            capacity: 1,
        },
    ])
    .expect("valid pool");
    let (hosts, stats) = RemoteCoordinator::new(pool)
        .run_plan_summary(plan)
        .expect("hosts engine");
    assert_eq!(
        hosts.episodes(),
        plan.n_specs() as u64,
        "every episode folded exactly once despite the mid-lease kill"
    );
    assert_eq!(render(&hosts), expected, "hosts folds vs serial fold");
    assert!(
        stats
            .hosts_lost
            .iter()
            .all(|l| l.class == FaultClass::Transient),
        "a mid-lease kill is a transient loss, never a protocol violation: {:?}",
        stats.hosts_lost
    );

    expected
}
