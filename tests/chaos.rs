//! Chaos-layer integration tests: the long-lived `seo-sweepd` daemon
//! ([`seo_core::daemon::DaemonServer`]) under deterministic fault
//! injection ([`seo_core::fault::FaultPlan`]), driven by the retrying,
//! quarantining coordinator.
//!
//! The invariant every test here enforces: under every *survivable* fault
//! the merged output is bit-identical to the serial run. The faults are
//! pure functions of the fault plan and a per-daemon connection counter,
//! so each scenario replays exactly.
//!
//! These daemons are in-process; every drain goes through a per-instance
//! flag or a `shutdown` frame, never [`seo_core::daemon::request_drain`]
//! (which is process-global and would drain the other tests' daemons).

use seo_core::batch::{BatchRunner, ScenarioSpec};
use seo_core::prelude::*;
use seo_core::shard::report_line;
use seo_core::transport::{
    health_request_frame, parse_worker_frame, read_frame, serve_job, shutdown_request_frame,
    write_frame, JobRequest, WorkerMsg,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const SCENARIOS: usize = 6;
const SEED: u64 = 2023;

fn paper_runtime() -> RuntimeLoop {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("paper models");
    RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("valid runtime")
}

/// The paper grid every coordinator test runs.
fn paper() -> SweepPlan {
    SweepPlan::paper(SCENARIOS, SEED)
}

/// The independent reference: the batch engine's serial loop over the
/// obstacles x seeds grid the paper preset expands to.
fn serial_reports() -> Vec<EpisodeReport> {
    let specs = ScenarioSpec::grid(&[0, 2, 4], SCENARIOS.div_ceil(3), SEED);
    BatchRunner::new(paper_runtime()).run_serial(&specs)
}

/// An in-process daemon plus the channel its `serve` result arrives on
/// (so drain tests can assert the loop actually returned, and cleanly).
struct Daemon {
    server: Arc<DaemonServer>,
    addr: SocketAddr,
    served: mpsc::Receiver<Result<(), TransportError>>,
}

fn spawn_daemon_at(addr: &str, config: DaemonConfig) -> Daemon {
    let server = Arc::new(DaemonServer::bind(addr, config).expect("bind daemon"));
    let addr = server.local_addr().expect("local addr");
    let runtime = Arc::new(paper_runtime());
    let (tx, served) = mpsc::channel();
    let handle = Arc::clone(&server);
    std::thread::spawn(move || {
        let _ = tx.send(handle.serve(runtime));
    });
    Daemon {
        server,
        addr,
        served,
    }
}

fn spawn_daemon(config: DaemonConfig) -> Daemon {
    spawn_daemon_at("127.0.0.1:0", config)
}

fn faulty(spec: &str) -> DaemonConfig {
    DaemonConfig {
        faults: Some(spec.parse().expect("fault grammar")),
        ..DaemonConfig::default()
    }
}

fn pool_of(hosts: &[(SocketAddr, u64)], retry: RetryPolicy) -> HostPool {
    HostPool::new(
        hosts
            .iter()
            .map(|&(addr, capacity)| HostSpec {
                addr: addr.to_string(),
                capacity,
            })
            .collect(),
    )
    .expect("valid pool")
    .with_retry(retry)
}

fn episodes_on(stats: &RemoteRunStats, addr: SocketAddr) -> usize {
    let addr = addr.to_string();
    stats
        .episodes_by_host
        .iter()
        .find(|(host, _)| *host == addr)
        .map(|&(_, count)| count)
        .unwrap_or_else(|| panic!("{addr} missing from episodes_by_host"))
}

/// A raw wire client: connect with sane timeouts, no coordinator logic.
fn open(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(30))))
        .expect("socket timeouts");
    stream
}

fn job_frame(start: usize, end: usize) -> Vec<u8> {
    JobRequest {
        scenarios: SCENARIOS,
        seed: SEED,
        plan: Some(paper()),
        shard: Shard::new(start, end),
    }
    .to_frame()
}

fn next_msg(stream: &mut TcpStream) -> WorkerMsg {
    let payload = read_frame(stream).expect("read frame").expect("peer alive");
    parse_worker_frame(&payload).expect("worker frame")
}

/// The headline service contract: one daemon serves several consecutive
/// coordinator jobs (surviving a client that disconnects mid-job in
/// between), answers `health` with cumulative counters, and drains to a
/// clean `serve` return on a `shutdown` frame.
#[test]
fn daemon_serves_consecutive_jobs_answers_health_and_drains() {
    let serial = serial_reports();
    let daemon = spawn_daemon(DaemonConfig::default());
    let coordinator = RemoteCoordinator::new(pool_of(&[(daemon.addr, 1)], RetryPolicy::default()));
    for run in 0..3 {
        let (merged, stats) = coordinator.run_plan(&paper()).expect("daemon serves");
        assert_eq!(merged, serial, "run {run} must be bit-identical");
        assert!(stats.hosts_lost.is_empty(), "run {run} lost a host");
        assert_eq!(stats.reissues, 0, "run {run} needed a lease re-issue");
    }
    // A client that vanishes mid-job costs the daemon one connection
    // thread's cleanup, never the process.
    {
        let mut quitter = open(daemon.addr);
        write_frame(&mut quitter, &job_frame(0, SCENARIOS)).expect("send job");
        match next_msg(&mut quitter) {
            WorkerMsg::Report { index, .. } => assert_eq!(index, 0),
            other => panic!("expected the first report, got {other:?}"),
        }
        // Dropping the stream here aborts the job server-side.
    }
    let (merged, _) = coordinator
        .run_plan(&paper())
        .expect("still serving after the disconnect");
    assert_eq!(merged, serial);
    // Health: liveness plus cumulative stats over everything above.
    let mut probe = open(daemon.addr);
    write_frame(&mut probe, &health_request_frame()).expect("send health");
    let payload = read_frame(&mut probe).expect("read frame").expect("reply");
    let health = HealthReport::from_frame(&payload).expect("health report");
    assert!(health.accepting, "not draining yet: {health:?}");
    // The fourth job's counter bump races the coordinator's return (the
    // daemon records it just after writing `done`), so health is only
    // guaranteed to have seen the first three runs; the fourth is checked
    // after the drain below.
    assert!(
        health.jobs_served >= 3,
        "three full jobs completed: {health:?}"
    );
    assert!(
        health.episodes_emitted >= 3 * SCENARIOS as u64,
        "each full job emitted {SCENARIOS} episodes: {health:?}"
    );
    // Shutdown: acked first (with the in-flight count), then drained.
    let mut shutdown = open(daemon.addr);
    write_frame(&mut shutdown, &shutdown_request_frame()).expect("send shutdown");
    let ack = read_frame(&mut shutdown).expect("read frame").expect("ack");
    let ack = String::from_utf8(ack).expect("ack is JSON text");
    assert!(ack.contains("shutdown"), "unexpected ack: {ack}");
    assert!(ack.contains("jobs_active"), "unexpected ack: {ack}");
    let drained = daemon
        .served
        .recv_timeout(Duration::from_secs(10))
        .expect("serve must return after the drain");
    drained.expect("a drain is a clean exit");
    assert_eq!(daemon.server.stats().jobs_active(), 0);
    // All four full jobs are on the books by now (short poll: the served
    // counter is bumped just after the active counter serve() waits on).
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while daemon.server.stats().jobs_served() < 4 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        daemon.server.stats().jobs_served() >= 4,
        "all four full jobs must be recorded after the drain"
    );
}

/// A host that is dead on arrival but comes up within the retry budget is
/// never lost: the coordinator's backoff absorbs the outage and the host
/// finishes the lease it pulled, so no re-issue happens at all.
#[test]
fn dead_on_arrival_daemon_recovering_within_budget_finishes_its_lease() {
    let serial = serial_reports();
    // Reserve a loopback port, then release it so the first connection
    // attempts are refused — a daemon that has not started yet.
    let late_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let healthy = spawn_daemon(DaemonConfig::default());
    // Bring the late daemon up ~300 ms in. With 6 attempts at 50 ms base
    // the coordinator knocks at ~0/50/150/350/750/1550 ms, so recovery
    // lands well inside the budget even on a slow machine.
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        spawn_daemon_at(&late_addr.to_string(), DaemonConfig::default());
    });
    let retry = RetryPolicy {
        attempts: 6,
        base_delay_ms: 50,
    };
    let coordinator = RemoteCoordinator::new(pool_of(&[(late_addr, 1), (healthy.addr, 1)], retry))
        .with_timeout(Duration::from_secs(5));
    let (merged, stats) = coordinator.run_plan(&paper()).expect("recovers in budget");
    assert_eq!(merged, serial);
    assert!(
        stats.hosts_lost.is_empty(),
        "recovery within the budget is not a loss: {:?}",
        stats.hosts_lost
    );
    assert_eq!(stats.reissues, 0, "no re-issue when the host recovers");
    assert!(stats.retries >= 1, "the dead window must cost retries");
    assert_eq!(stats.quarantines, 0);
    // The late host held exactly one lease through its dead window (the
    // healthy peer drained the rest of the queue meanwhile) and finished
    // it after recovering instead of losing it to a steal.
    assert!(
        episodes_on(&stats, late_addr) >= 1,
        "the recovered host must finish the lease it held: {:?}",
        stats.episodes_by_host
    );
}

/// A host that exhausts its retry budget while the fleet is still making
/// progress is quarantined, not killed: once a clean `health` probe passes
/// after fresh fleet progress it rejoins the pull loop mid-run and serves
/// leases again.
#[test]
fn quarantined_daemon_is_probed_and_readmitted_mid_run() {
    let serial = serial_reports();
    // Refuse the first two connections (the job and its one retry), then
    // behave: the probe and every post-readmission lease go through. The
    // healthy peer is paced with a 200 ms stall per connection so the
    // queue is not drained before the flaky host rejoins.
    let flaky = spawn_daemon(faulty("refuse=2"));
    let healthy = spawn_daemon(faulty("stall-ms=200"));
    let retry = RetryPolicy {
        attempts: 2,
        base_delay_ms: 50,
    };
    let coordinator = RemoteCoordinator::new(pool_of(&[(flaky.addr, 1), (healthy.addr, 1)], retry));
    let (merged, stats) = coordinator.run_plan(&paper()).expect("readmission run");
    assert_eq!(merged, serial);
    assert!(stats.retries >= 1, "the refusals must burn retries");
    assert!(stats.quarantines >= 1, "budget exhaustion quarantines");
    assert!(stats.readmissions >= 1, "the probe must re-admit the host");
    assert!(stats.reissues >= 1, "the refused lease must be re-queued");
    assert_eq!(stats.hosts_lost.len(), 1);
    assert_eq!(stats.hosts_lost[0].addr, flaky.addr.to_string());
    assert_eq!(stats.hosts_lost[0].class, FaultClass::Transient);
    assert!(
        episodes_on(&stats, flaky.addr) > 0,
        "a re-admitted host must serve leases mid-run: {:?}",
        stats.episodes_by_host
    );
}

/// Drain semantics under load: a daemon with one slot and one stalled job
/// answers extra jobs with structured `busy` backpressure, acks a
/// `shutdown` while the job is still in flight, refuses new work during
/// the drain (cap 0), finishes the old job cleanly, and then returns from
/// `serve`.
#[test]
fn draining_daemon_refuses_new_jobs_while_finishing_the_old_one() {
    // The injected stall keeps job 1 in flight long enough to make the
    // admission-control race deterministic.
    let daemon = spawn_daemon(DaemonConfig {
        jobs: 1,
        ..faulty("stall-ms=800")
    });
    let mut stalled = open(daemon.addr);
    write_frame(&mut stalled, &job_frame(0, 1)).expect("send job 1");
    std::thread::sleep(Duration::from_millis(150));
    // Job 2 bounces off the cap.
    let mut rejected = open(daemon.addr);
    write_frame(&mut rejected, &job_frame(1, 2)).expect("send job 2");
    match next_msg(&mut rejected) {
        WorkerMsg::Busy { active, cap } => {
            assert_eq!(active, 1);
            assert_eq!(cap, 1);
        }
        other => panic!("expected busy at the cap, got {other:?}"),
    }
    // Shutdown is acked immediately, naming the in-flight job.
    let mut shutdown = open(daemon.addr);
    write_frame(&mut shutdown, &shutdown_request_frame()).expect("send shutdown");
    let ack = read_frame(&mut shutdown).expect("read frame").expect("ack");
    let ack = String::from_utf8(ack).expect("ack is JSON text");
    assert!(ack.contains("jobs_active"), "unexpected ack: {ack}");
    // New work during the drain is refused with an advertised cap of 0...
    let mut late = open(daemon.addr);
    write_frame(&mut late, &job_frame(2, 3)).expect("send job 3");
    match next_msg(&mut late) {
        WorkerMsg::Busy { cap, .. } => {
            assert_eq!(cap, 0, "draining daemons advertise cap 0");
        }
        other => panic!("expected busy during drain, got {other:?}"),
    }
    // ...while the in-flight job still finishes cleanly.
    match next_msg(&mut stalled) {
        WorkerMsg::Report { index, .. } => assert_eq!(index, 0),
        other => panic!("expected the stalled report, got {other:?}"),
    }
    match next_msg(&mut stalled) {
        WorkerMsg::Done { count } => assert_eq!(count, 1),
        other => panic!("expected done, got {other:?}"),
    }
    let drained = daemon
        .served
        .recv_timeout(Duration::from_secs(10))
        .expect("serve must return once the last job finishes");
    drained.expect("a drain is a clean exit");
    assert_eq!(daemon.server.stats().jobs_served(), 1);
}

/// A garbled report frame is a protocol violation, not a flaky
/// connection: the host dies immediately — no retry, no quarantine, no
/// probe — and its lease remnant is re-queued for the survivor to steal.
#[test]
fn garbled_report_is_fatal_and_never_retried() {
    let serial = serial_reports();
    // Garble the second report of every job; the seed keys the keystream.
    // Leases are pinned to 2 specs so every lease reaches a second report
    // (the auto chunk would resolve to 1 and never trip the fault).
    let corrupt = spawn_daemon(faulty("garble=1,seed=7"));
    let healthy = spawn_daemon(DaemonConfig::default());
    let pool = pool_of(
        &[(corrupt.addr, 2), (healthy.addr, 1)],
        RetryPolicy::default(),
    )
    .with_chunk(ChunkPolicy::Fixed(2));
    let coordinator = RemoteCoordinator::new(pool);
    let (merged, stats) = coordinator.run_plan(&paper()).expect("survives the garble");
    assert_eq!(merged, serial);
    assert_eq!(stats.hosts_lost.len(), 1);
    assert_eq!(stats.hosts_lost[0].addr, corrupt.addr.to_string());
    assert_eq!(stats.hosts_lost[0].class, FaultClass::Fatal);
    assert_eq!(stats.retries, 0, "fatal faults must never be retried");
    assert_eq!(stats.quarantines, 0, "fatal faults skip quarantine");
    assert_eq!(stats.readmissions, 0, "dead hosts are never probed");
    assert!(stats.reissues >= 1, "the stranded remnant needs a re-issue");
}

/// The async executor under the chaos layer: a plan with
/// `exec.offload.async` served by daemons injecting connection stalls and
/// mid-job drops still merges bit-identically to the blocking serial run,
/// and every loss stays inside the existing transient taxonomy — no new
/// failure class leaks from the reactor.
#[test]
fn async_plan_survives_stalls_and_drops_with_a_bit_identical_merge() {
    let plan = SweepPlan::paper(SCENARIOS, SEED)
        .with_channels(vec![ChannelKind::Bursty])
        .with_offload(OffloadExec::Async { in_flight: 4 });
    let serial = plan
        .clone()
        .with_offload(OffloadExec::Blocking)
        .run_serial()
        .expect("blocking serial baseline");

    // One host stalls every report, one drops each job after its first
    // report (stranding remnants for re-issue), one behaves. Leases are
    // pinned to 2 specs so the dropper genuinely strands work.
    let stalling = spawn_daemon(faulty("stall-ms=100"));
    let dropping = spawn_daemon(faulty("drop-after=1"));
    let healthy = spawn_daemon(DaemonConfig::default());
    let pool = pool_of(
        &[(stalling.addr, 1), (dropping.addr, 1), (healthy.addr, 1)],
        RetryPolicy::default(),
    )
    .with_chunk(ChunkPolicy::Fixed(2));
    let (merged, stats) = RemoteCoordinator::new(pool)
        .run_plan(&plan)
        .expect("survivable chaos");
    assert_eq!(merged, serial, "chaos merge must reproduce serial");
    for lost in &stats.hosts_lost {
        assert_eq!(
            lost.class,
            FaultClass::Transient,
            "drops and stalls are transient, never a new class: {lost:?}"
        );
    }
}

/// A garbled frame under the async executor is exactly as fatal as under
/// the blocking loop: the host dies unretried, the remnant is re-issued,
/// and the merged stream still reproduces the blocking serial bytes.
#[test]
fn async_plan_garble_stays_fatal_and_the_survivor_completes_the_merge() {
    let plan = SweepPlan::paper(SCENARIOS, SEED).with_offload(OffloadExec::Async { in_flight: 4 });
    let serial = plan
        .clone()
        .with_offload(OffloadExec::Blocking)
        .run_serial()
        .expect("blocking serial baseline");

    let corrupt = spawn_daemon(faulty("garble=1,seed=7"));
    let healthy = spawn_daemon(DaemonConfig::default());
    let pool = pool_of(
        &[(corrupt.addr, 2), (healthy.addr, 1)],
        RetryPolicy::default(),
    )
    .with_chunk(ChunkPolicy::Fixed(2));
    let (merged, stats) = RemoteCoordinator::new(pool)
        .run_plan(&plan)
        .expect("survives the garble");
    assert_eq!(merged, serial);
    assert_eq!(stats.hosts_lost.len(), 1);
    assert_eq!(stats.hosts_lost[0].class, FaultClass::Fatal);
    assert_eq!(stats.retries, 0, "fatal faults must never be retried");
    assert!(stats.reissues >= 1, "the stranded remnant needs a re-issue");
}

/// The wire contract after the paper-grid job's retirement: a
/// hand-written v1 job frame gets an `error` frame, a job without a plan
/// is refused (on the wire and by `serve_job` itself), and the same daemon
/// then serves a v2 job byte-for-byte like `plan.run_serial()`.
#[test]
fn daemon_refuses_v1_and_plan_less_jobs_and_serves_v2() {
    let daemon = spawn_daemon(DaemonConfig::default());
    // v1: the exact bytes a paper-grid coordinator used to send.
    let mut stream = open(daemon.addr);
    let v1 = format!(
        r#"{{"v":1,"type":"job","scenarios":{SCENARIOS},"seed":{SEED},"start":0,"end":2}}"#
    );
    write_frame(&mut stream, v1.as_bytes()).expect("send v1 job");
    match next_msg(&mut stream) {
        WorkerMsg::Error { message } => assert!(message.contains("retired"), "{message}"),
        other => panic!("expected an error frame for v1, got {other:?}"),
    }
    // A plan-less job: refused on the wire...
    let plan_less = JobRequest {
        scenarios: SCENARIOS,
        seed: SEED,
        plan: None,
        shard: Shard::new(0, 2),
    };
    let mut stream = open(daemon.addr);
    write_frame(&mut stream, &plan_less.to_frame()).expect("send plan-less job");
    match next_msg(&mut stream) {
        WorkerMsg::Error { message } => assert!(message.contains("plan"), "{message}"),
        other => panic!("expected an error frame for a plan-less job, got {other:?}"),
    }
    // ...and by serve_job when an in-process caller builds one.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut client = open(listener.local_addr().expect("addr"));
    let (mut server_side, _) = listener.accept().expect("accept");
    let served = serve_job(
        &mut server_side,
        &plan_less,
        &paper_runtime(),
        &mut FaultInjector::none(),
    );
    assert!(served.is_err(), "a plan-less job must not be served");
    match next_msg(&mut client) {
        WorkerMsg::Error { message } => assert!(message.contains("plan"), "{message}"),
        other => panic!("expected an error frame from serve_job, got {other:?}"),
    }
    // v2: a plan-bearing job through the same daemon.
    let plan = SweepPlan::paper(3, SEED)
        .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating]);
    let plan_serial = plan.run_serial().expect("plan serial runs");
    let request = JobRequest {
        scenarios: plan.n_specs(),
        seed: SEED,
        plan: Some(plan.clone()),
        shard: Shard::new(0, plan_serial.len()),
    };
    let mut stream = open(daemon.addr);
    write_frame(&mut stream, &request.to_frame()).expect("send v2 job");
    for (i, expected) in plan_serial.iter().enumerate() {
        let payload = read_frame(&mut stream)
            .expect("read frame")
            .expect("report");
        assert_eq!(
            String::from_utf8(payload).expect("report is text"),
            report_line(i, expected),
            "v2 report {i} must be byte-for-byte the plan-serial wire line"
        );
    }
    match next_msg(&mut stream) {
        WorkerMsg::Done { count } => assert_eq!(count, plan_serial.len()),
        other => panic!("expected done, got {other:?}"),
    }
}

/// A 427-byte plan job naming a grid of 3 x 10^11 specs used to abort the
/// whole daemon: bounds-checking its one-spec shard expanded the grid (a
/// 26 TB allocation). A lease now costs memory in proportion to its shard:
/// the daemon serves the one report, finishes with `done`, and keeps
/// answering health probes.
#[test]
fn a_lease_of_a_huge_grid_is_served_without_expanding_it() {
    let daemon = spawn_daemon(DaemonConfig::default());
    let plan = paper().with_seeds(SEED, 100_000_000_000);
    assert_eq!(plan.n_specs(), 300_000_000_000);
    let request = JobRequest {
        scenarios: plan.n_specs(),
        seed: SEED,
        plan: Some(plan),
        shard: Shard::new(0, 1),
    };
    let mut stream = open(daemon.addr);
    write_frame(&mut stream, &request.to_frame()).expect("send job");
    let serial = serial_reports();
    match next_msg(&mut stream) {
        WorkerMsg::Report { index, report } => assert_eq!((index, &report), (0, &serial[0])),
        other => panic!("expected report 0, got {other:?}"),
    }
    match next_msg(&mut stream) {
        WorkerMsg::Done { count } => assert_eq!(count, 1),
        other => panic!("expected done, got {other:?}"),
    }
    let mut probe = open(daemon.addr);
    write_frame(&mut probe, &health_request_frame()).expect("send health");
    let payload = read_frame(&mut probe).expect("read frame").expect("reply");
    let health = HealthReport::from_frame(&payload).expect("health report");
    assert!(health.accepting, "{health:?}");
}

/// A hostile first frame (2 MB of nested `[`, well under the frame-size
/// cap) used to overflow the JSON parser's stack and abort the whole
/// daemon. Now it is a parse error: the daemon answers with an error frame
/// and keeps serving health probes and jobs.
#[test]
fn deeply_nested_frame_gets_an_error_and_the_daemon_keeps_serving() {
    let daemon = spawn_daemon(DaemonConfig::default());
    let mut hostile = open(daemon.addr);
    write_frame(&mut hostile, "[".repeat(2 << 20).as_bytes()).expect("send hostile frame");
    match next_msg(&mut hostile) {
        WorkerMsg::Error { message } => {
            assert!(message.contains("nesting deeper"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    let mut probe = open(daemon.addr);
    write_frame(&mut probe, &health_request_frame()).expect("send health");
    let payload = read_frame(&mut probe).expect("read frame").expect("reply");
    let health = HealthReport::from_frame(&payload).expect("health report");
    assert!(health.accepting, "{health:?}");
    let serial = serial_reports();
    let mut stream = open(daemon.addr);
    write_frame(&mut stream, &job_frame(0, 2)).expect("send job");
    for (i, expected) in serial.iter().take(2).enumerate() {
        match next_msg(&mut stream) {
            WorkerMsg::Report { index, report } => assert_eq!((index, &report), (i, expected)),
            other => panic!("expected report {i}, got {other:?}"),
        }
    }
    match next_msg(&mut stream) {
        WorkerMsg::Done { count } => assert_eq!(count, 2),
        other => panic!("expected done, got {other:?}"),
    }
}

/// The retry and chunk policies ride the plan file: `exec.mode.hosts.retry`
/// and `exec.mode.hosts.chunk` parse, round-trip, and are validated with a
/// named field path both at parse time and for hand-built plans.
#[test]
fn plan_exec_hosts_retry_and_chunk_parse_validate_and_round_trip() {
    let text = r#"{"v":1,"exec":{"mode":{"hosts":{"v":1,
        "hosts":[{"addr":"10.0.0.1:7641","capacity":2}],
        "retry":{"attempts":4,"base_delay_ms":250},
        "chunk":3}}}}"#;
    let plan = SweepPlan::parse(text).expect("plan with retry and chunk");
    let ExecMode::Hosts(pool) = &plan.mode else {
        panic!("expected hosts mode, got {:?}", plan.mode);
    };
    assert_eq!(pool.retry().attempts, 4);
    assert_eq!(pool.retry().base_delay_ms, 250);
    assert_eq!(*pool.chunk(), ChunkPolicy::Fixed(3));
    let reparsed = SweepPlan::parse(&plan.to_json().render()).expect("round-trips");
    assert_eq!(reparsed, plan);
    // An invalid retry or chunk is a parse problem naming the field.
    let err = SweepPlan::parse(
        r#"{"v":1,"exec":{"mode":{"hosts":{"v":1,
            "hosts":[{"addr":"a:1","capacity":1}],
            "retry":{"attempts":0}}}}}"#,
    )
    .expect_err("zero attempts");
    assert!(err.to_string().contains("exec.mode.hosts"), "{err}");
    let err = SweepPlan::parse(
        r#"{"v":1,"exec":{"mode":{"hosts":{"v":1,
            "hosts":[{"addr":"a:1","capacity":1}],
            "chunk":0}}}}"#,
    )
    .expect_err("zero chunk");
    assert!(err.to_string().contains("exec.mode.hosts"), "{err}");
    // A hand-built plan is held to the same standard by validate().
    let pool = HostPool::new(vec![HostSpec {
        addr: "a:1".to_owned(),
        capacity: 1,
    }])
    .expect("valid pool")
    .with_retry(RetryPolicy {
        attempts: 0,
        base_delay_ms: 1,
    });
    let err = SweepPlan::paper(3, SEED)
        .with_mode(ExecMode::Hosts(pool))
        .validate()
        .expect_err("invalid hand-built retry");
    assert!(err.to_string().contains("exec.hosts.retry"), "{err}");
    let pool = HostPool::new(vec![HostSpec {
        addr: "a:1".to_owned(),
        capacity: 1,
    }])
    .expect("valid pool")
    .with_chunk(ChunkPolicy::Fixed(0));
    let err = SweepPlan::paper(3, SEED)
        .with_mode(ExecMode::Hosts(pool))
        .validate()
        .expect_err("invalid hand-built chunk");
    assert!(err.to_string().contains("exec.hosts.chunk"), "{err}");
}
