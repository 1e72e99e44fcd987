//! Loopback-TCP properties of the multi-host sweep transport: host-pool
//! validation, frame round-trips, pull-based lease scheduling, and the
//! tentpole guarantee — the remote merge of a `SweepPlan` is bit-identical
//! to `BatchRunner::run_serial` over the same grid under 1/2/3 hosts, every
//! chunk size, and injected mid-stream host failures (kills, dead hosts,
//! stalls).

use seo_core::batch::{BatchRunner, ScenarioSpec};
use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_core::shard::report_line;
use seo_core::transport::{
    done_frame, error_frame, parse_worker_frame, read_frame, write_frame, HostPool, HostSpec,
    JobRequest, RemoteCoordinator, TransportError, WorkerMsg,
};
use seo_integration::{spawn_failing_loopback_worker, spawn_loopback_worker};
use std::io::Cursor;
use std::net::{SocketAddr, TcpListener};
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

fn pool_of(hosts: &[(SocketAddr, u64)]) -> HostPool {
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
}

#[test]
fn host_pool_rejects_misconfigurations_before_any_connection() {
    let ok = |addr: &str, capacity| HostSpec {
        addr: addr.to_owned(),
        capacity,
    };
    assert!(matches!(
        HostPool::new(vec![]),
        Err(TransportError::Config { .. })
    ));
    assert!(matches!(
        HostPool::new(vec![ok("a:1", 1), ok("a:1", 2)]),
        Err(TransportError::Config { .. })
    ));
    assert!(matches!(
        HostPool::new(vec![ok("a:1", 0)]),
        Err(TransportError::Config { .. })
    ));
    assert!(matches!(
        HostPool::new(vec![ok("  ", 1)]),
        Err(TransportError::Config { .. })
    ));
    // The error names the offending host.
    let err = HostPool::new(vec![ok("a:1", 1), ok("b:2", 0)]).expect_err("zero capacity");
    assert!(err.to_string().contains("b:2"), "{err}");
}

#[test]
fn host_pool_json_round_trips_and_validates() {
    let text = r#"{"v":1,"hosts":[
        {"addr":"10.0.0.1:7641","capacity":4},
        {"addr":"10.0.0.2:7641","capacity":1}
    ]}"#;
    let pool = HostPool::parse(text).expect("valid pool");
    assert_eq!(pool.hosts().len(), 2);
    assert_eq!(pool.total_capacity(), 5);
    let reparsed = HostPool::parse(&pool.to_json().render()).expect("round-trips");
    assert_eq!(reparsed, pool);

    // Default retry and chunk policies are implied and omitted from the
    // JSON form, so older pool files round-trip byte-stable.
    assert_eq!(*pool.retry(), RetryPolicy::default());
    assert_eq!(*pool.chunk(), ChunkPolicy::Auto);
    assert!(!pool.to_json().render().contains("retry"));
    assert!(!pool.to_json().render().contains("chunk"));

    // An explicit retry policy parses, validates, and round-trips.
    let with_retry = r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],
        "retry":{"attempts":5,"base_delay_ms":40}}"#;
    let pool = HostPool::parse(with_retry).expect("valid retry");
    assert_eq!(pool.retry().attempts, 5);
    assert_eq!(pool.retry().base_delay_ms, 40);
    assert_eq!(
        HostPool::parse(&pool.to_json().render()).expect("round-trips"),
        pool
    );
    // Backoff is deterministic exponential doubling, capped.
    assert_eq!(pool.retry().backoff(0), Duration::from_millis(40));
    assert_eq!(pool.retry().backoff(2), Duration::from_millis(160));
    assert!(pool.retry().backoff(40) <= RetryPolicy::MAX_BACKOFF);

    // An explicit chunk parses, validates, and round-trips; "auto" is the
    // spelled-out default.
    let with_chunk = r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":2}"#;
    let pool = HostPool::parse(with_chunk).expect("valid chunk");
    assert_eq!(*pool.chunk(), ChunkPolicy::Fixed(2));
    assert_eq!(
        HostPool::parse(&pool.to_json().render()).expect("round-trips"),
        pool
    );
    let spelled_auto = r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":"auto"}"#;
    let pool = HostPool::parse(spelled_auto).expect("auto chunk");
    assert_eq!(*pool.chunk(), ChunkPolicy::Auto);
    assert!(!pool.to_json().render().contains("chunk"));

    // Validation happens at parse time, not connect time.
    for bad in [
        // retry misconfigurations
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"retry":{"attempts":0}}"#,
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"retry":{"bogus":1}}"#,
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"retry":7}"#,
        // chunk misconfigurations
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":0}"#,
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":-3}"#,
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":"sometimes"}"#,
        r#"{"hosts":[{"addr":"a:1","capacity":1}]}"#, // missing version
        r#"{"v":9,"hosts":[{"addr":"a:1","capacity":1}]}"#, // foreign version
        r#"{"v":1,"hosts":[]}"#,                      // empty pool
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":0}]}"#, // zero capacity
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1},{"addr":"a:1","capacity":1}]}"#, // dup
        r#"{"v":1,"hosts":[{"capacity":1}]}"#,        // missing addr
        "not json",
    ] {
        assert!(
            matches!(HostPool::parse(bad), Err(TransportError::Config { .. })),
            "{bad} should be rejected"
        );
    }
}

#[test]
fn frames_round_trip_and_reject_garbage() {
    // Payload round-trip through an in-memory stream.
    let mut buf = Vec::new();
    write_frame(&mut buf, b"hello frame").expect("writes");
    write_frame(&mut buf, b"").expect("empty payload is legal");
    let mut cursor = Cursor::new(buf);
    assert_eq!(
        read_frame(&mut cursor).expect("reads").as_deref(),
        Some(b"hello frame".as_slice())
    );
    assert_eq!(
        read_frame(&mut cursor).expect("reads").as_deref(),
        Some(&[] as &[u8])
    );
    // Clean EOF at a frame boundary is None, not an error.
    assert_eq!(read_frame(&mut cursor).expect("clean eof"), None);

    // A length prefix above the cap is rejected before allocation.
    let mut absurd = Cursor::new(u32::MAX.to_be_bytes().to_vec());
    assert!(matches!(
        read_frame(&mut absurd),
        Err(TransportError::Frame { .. })
    ));
    // Truncation mid-payload and mid-prefix are named errors.
    let mut truncated = Cursor::new(vec![0, 0, 0, 9, b'x', b'y']);
    assert!(matches!(
        read_frame(&mut truncated),
        Err(TransportError::Frame { .. })
    ));
    let mut half_prefix = Cursor::new(vec![0, 0]);
    assert!(matches!(
        read_frame(&mut half_prefix),
        Err(TransportError::Frame { .. })
    ));
}

#[test]
fn protocol_frames_round_trip() {
    // Jobs ship the whole plan inline and round-trip it.
    let request = JobRequest {
        scenarios: 60,
        seed: u64::MAX, // string-encoded seed path included
        plan: Some(
            SweepPlan::paper(6, 7)
                .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating]),
        ),
        shard: seo_core::shard::Shard::new(15, 30),
    };
    let back = JobRequest::from_frame(&request.to_frame()).expect("round-trips");
    assert_eq!(back, request);
    // Jobs speak frame version 2; the retired v1 paper-grid job is
    // refused, plan or no plan.
    let frame = String::from_utf8(request.to_frame()).expect("utf8");
    assert!(frame.starts_with(r#"{"v":2,"#), "{frame}");
    let err = JobRequest::from_frame(frame.replace(r#"{"v":2,"#, r#"{"v":1,"#).as_bytes())
        .expect_err("v1 frames are retired");
    assert!(err.to_string().contains("retired"), "{err}");
    let v2_missing_plan = br#"{"v":2,"type":"job","scenarios":6,"seed":7,"start":0,"end":6}"#;
    assert!(
        JobRequest::from_frame(v2_missing_plan).is_err(),
        "a v2 frame must carry its plan"
    );

    // An invalid inline plan is a frame error naming the offending field.
    let mut bad = String::from_utf8(request.to_frame()).expect("utf8");
    bad = bad.replace("\"gating_levels\":[0.5]", "\"gating_levels\":[7.5]");
    let err = JobRequest::from_frame(bad.as_bytes()).expect_err("invalid plan rejected");
    assert!(
        err.to_string().contains("axes.gating_levels"),
        "field not named: {err}"
    );
    assert!(JobRequest::from_frame(b"{}").is_err());
    assert!(
        JobRequest::from_frame(&done_frame(3)).is_err(),
        "wrong type"
    );

    match parse_worker_frame(&done_frame(7)).expect("parses") {
        WorkerMsg::Done { count } => assert_eq!(count, 7),
        other => panic!("expected done, got {other:?}"),
    }
    match parse_worker_frame(&error_frame("boom")).expect("parses") {
        WorkerMsg::Error { message } => assert_eq!(message, "boom"),
        other => panic!("expected error, got {other:?}"),
    }
    // A report frame is byte-for-byte the NDJSON report line.
    let report = paper_runtime().run_episode(&ScenarioSpec::new(0, 1).world(), 1);
    let payload = report_line(3, &report).into_bytes();
    match parse_worker_frame(&payload).expect("parses") {
        WorkerMsg::Report {
            index,
            report: back,
        } => {
            assert_eq!(index, 3);
            assert_eq!(back, report);
        }
        other => panic!("expected report, got {other:?}"),
    }
    assert!(parse_worker_frame(b"\xff\xfe").is_err(), "not UTF-8");
    assert!(
        parse_worker_frame(br#"{"v":1,"type":"mystery"}"#).is_err(),
        "unknown type"
    );
}

/// The tentpole property: 1/2/3 loopback hosts with uneven capacities all
/// reproduce the serial sweep bit-for-bit, field-wise and on the wire.
#[test]
fn multi_host_merge_is_bit_identical_to_serial() {
    let serial = serial_reports();
    for capacities in [vec![1u64], vec![3, 1], vec![1, 2, 1]] {
        let hosts: Vec<(SocketAddr, u64)> = capacities
            .iter()
            .map(|&c| (spawn_loopback_worker(), c))
            .collect();
        let coordinator = RemoteCoordinator::new(pool_of(&hosts));
        let (merged, stats) = coordinator.run_plan(&paper()).expect("runs");
        assert!(stats.hosts_lost.is_empty(), "no losses expected");
        assert_eq!(stats.reissues, 0, "no lease should need re-issue");
        assert_eq!(
            merged,
            serial,
            "{} host(s) with capacities {capacities:?} must reproduce the serial sweep",
            capacities.len()
        );
        for (i, (m, s)) in merged.iter().zip(&serial).enumerate() {
            assert_eq!(report_line(i, m), report_line(i, s), "wire line {i}");
        }
    }
}

/// The chunk-size property: every chunk policy — one spec per lease, a
/// mid-size chunk, auto, and the whole grid in one lease — over 1/2/3
/// hosts reproduces the serial sweep bit-for-bit, and the resolved chunk
/// and lease count land in the stats. This is the associative-merge
/// argument made executable: work splitting is arbitrary, output is not.
#[test]
fn every_chunk_size_merges_bit_identical_to_serial() {
    let serial = serial_reports();
    for policy in [
        ChunkPolicy::Fixed(1),
        ChunkPolicy::Fixed(3),
        ChunkPolicy::Auto,
        ChunkPolicy::Fixed(SCENARIOS),
    ] {
        for n_hosts in 1..=3usize {
            let hosts: Vec<(SocketAddr, u64)> =
                (0..n_hosts).map(|_| (spawn_loopback_worker(), 1)).collect();
            let pool = pool_of(&hosts).with_chunk(policy);
            let (merged, stats) = RemoteCoordinator::new(pool)
                .run_plan(&paper())
                .expect("runs");
            let chunk = policy.resolve(SCENARIOS, n_hosts);
            assert_eq!(stats.chunk, chunk, "{policy:?} over {n_hosts} host(s)");
            assert_eq!(stats.leases, SCENARIOS.div_ceil(chunk));
            assert!(stats.jobs >= stats.leases, "every lease is dispatched");
            assert!(stats.hosts_lost.is_empty());
            assert_eq!(
                merged, serial,
                "{policy:?} over {n_hosts} host(s) must reproduce the serial sweep"
            );
            for (i, (m, s)) in merged.iter().zip(&serial).enumerate() {
                assert_eq!(report_line(i, m), report_line(i, s), "wire line {i}");
            }
            // Lease completions account for the whole queue and stay
            // attributed to real pool members.
            let pulled: usize = stats.leases_by_host.iter().map(|&(_, n)| n).sum();
            assert_eq!(pulled, stats.leases, "every lease completed exactly once");
        }
    }
}

#[test]
fn streaming_sink_sees_reports_strictly_in_spec_order() {
    let serial = serial_reports();
    let hosts = [(spawn_loopback_worker(), 1), (spawn_loopback_worker(), 1)];
    let coordinator = RemoteCoordinator::new(pool_of(&hosts));
    let mut seen = Vec::new();
    coordinator
        .run_plan_streaming(&paper(), |i, report| seen.push((i, report)))
        .expect("streams");
    assert_eq!(seen.len(), serial.len());
    for (k, (i, report)) in seen.iter().enumerate() {
        assert_eq!(*i, k, "sink called strictly in spec order");
        assert_eq!(*report, serial[k]);
    }
}

/// Injected mid-stream host kill: the victim drops its connection after one
/// report on every lease it pulls. A 2-attempt retry budget on 3-spec
/// leases delivers two reports and strands one, so the remnant must be
/// re-queued, stolen by the survivor, and the merge stay bit-identical.
#[test]
fn mid_stream_host_kill_reissues_to_survivors() {
    let serial = serial_reports();
    let healthy = spawn_loopback_worker();
    let doomed = spawn_failing_loopback_worker(1);
    let pool = pool_of(&[(healthy, 1), (doomed, 1)])
        .with_chunk(ChunkPolicy::Fixed(3))
        .with_retry(RetryPolicy {
            attempts: 2,
            base_delay_ms: 10,
        });
    let coordinator = RemoteCoordinator::new(pool);
    let (merged, stats) = coordinator.run_plan(&paper()).expect("survives the kill");
    assert_eq!(merged, serial, "re-issued merge must stay bit-identical");
    assert_eq!(stats.hosts_lost.len(), 1, "exactly one host lost");
    assert_eq!(stats.hosts_lost[0].addr, doomed.to_string());
    assert!(stats.reissues >= 1, "the remnant needs a re-issue");
    assert!(
        stats.steals >= 1,
        "the survivor steals the re-queued remnant"
    );
    assert!(
        stats.hosts_lost[0].reassigned > 0,
        "the kill must strand specs for re-issue"
    );
}

/// A host that is down from the start (nothing listening) is just another
/// loss: the lease it pulled is re-queued and stolen by the survivor.
#[test]
fn dead_on_arrival_host_is_stolen_around() {
    let serial = serial_reports();
    // Grab a loopback port and release it so connects are refused.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let healthy = spawn_loopback_worker();
    let coordinator = RemoteCoordinator::new(pool_of(&[(dead_addr, 2), (healthy, 1)]))
        .with_timeout(Duration::from_secs(5));
    let (merged, stats) = coordinator.run_plan(&paper()).expect("survives");
    assert_eq!(merged, serial);
    assert_eq!(stats.hosts_lost.len(), 1);
    assert_eq!(stats.hosts_lost[0].addr, dead_addr.to_string());
}

/// A host that accepts the connection and then goes silent is declared lost
/// by the read timeout; its lease is re-queued and served by the survivor.
#[test]
fn stalled_host_times_out_and_is_stolen_around() {
    let serial = serial_reports();
    // A "tar pit": accepts connections, reads nothing, answers nothing, and
    // keeps the sockets open so the coordinator sees silence, not EOF.
    let stall_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                held.push(stream);
            }
        });
        addr
    };
    let healthy = spawn_loopback_worker();
    let coordinator = RemoteCoordinator::new(pool_of(&[(stall_addr, 1), (healthy, 1)]))
        .with_timeout(Duration::from_millis(400));
    let (merged, stats) = coordinator.run_plan(&paper()).expect("survives the stall");
    assert_eq!(merged, serial);
    assert_eq!(stats.hosts_lost.len(), 1);
    assert_eq!(stats.hosts_lost[0].addr, stall_addr.to_string());
}

/// When every host dies with work outstanding there is nobody left to pull
/// the queue: the run must fail loudly, naming the stranded spec count.
#[test]
fn losing_every_host_fails_with_no_survivors() {
    let coordinator = RemoteCoordinator::new(pool_of(&[
        (spawn_failing_loopback_worker(0), 1),
        (spawn_failing_loopback_worker(1), 1),
    ]));
    match coordinator.run_plan(&paper()) {
        Err(TransportError::NoSurvivors { remaining, .. }) => {
            assert!(remaining > 0, "stranded specs must be counted");
        }
        other => panic!("expected NoSurvivors, got {other:?}"),
    }
}

#[test]
fn empty_grid_completes_without_touching_the_network() {
    // An unreachable pool is fine when there is nothing to run.
    let pool = HostPool::new(vec![HostSpec {
        addr: "203.0.113.1:9".to_owned(), // TEST-NET, never connected to
        capacity: 1,
    }])
    .expect("valid pool");
    let (merged, stats) = RemoteCoordinator::new(pool)
        .run_plan(&SweepPlan::paper(0, SEED))
        .expect("empty run");
    assert!(merged.is_empty());
    assert_eq!(stats.jobs, 0);
    assert_eq!(stats.leases, 0);
}

/// Plan-bearing jobs: a multi-cell plan shipped inline to the daemons
/// merges bit-identically to the plan's in-process serial run — including
/// across shard boundaries that cross runtime-cell boundaries.
#[test]
fn plan_dispatch_is_bit_identical_to_plan_serial() {
    let plan = SweepPlan::paper(3, SEED)
        .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating]);
    let serial = plan.run_serial().expect("plan serial runs");
    assert_eq!(serial.len(), 6);
    for capacities in [vec![1u64], vec![2, 1]] {
        let hosts: Vec<(SocketAddr, u64)> = capacities
            .iter()
            .map(|&c| (spawn_loopback_worker(), c))
            .collect();
        let coordinator = RemoteCoordinator::new(pool_of(&hosts));
        let (merged, stats) = coordinator.run_plan(&plan).expect("plan runs");
        assert!(stats.hosts_lost.is_empty());
        assert_eq!(
            merged, serial,
            "{capacities:?}-capacity fleet must reproduce the plan's serial run"
        );
        for (i, (m, s)) in merged.iter().zip(&serial).enumerate() {
            assert_eq!(report_line(i, m), report_line(i, s), "wire line {i}");
        }
    }
}

/// Lease re-issue after retries: a host injected to die mid-stream burns
/// its retry budget one report at a time, strands its lease tail, and the survivor steals the re-queued
/// remnant — the merge still reproduces the plan's serial output. (The
/// lease must be bigger than the retry budget: a lease small enough to
/// finish within the budget would simply complete, which is the retry
/// layer's whole point.)
#[test]
fn plan_dispatch_survives_a_mid_stream_kill() {
    let plan = paper();
    let serial = plan.run_serial().expect("plan serial runs");
    let dying = spawn_failing_loopback_worker(1);
    let healthy = spawn_loopback_worker();
    let pool = pool_of(&[(dying, 1), (healthy, 1)])
        .with_chunk(ChunkPolicy::Fixed(3))
        .with_retry(RetryPolicy {
            attempts: 2,
            base_delay_ms: 10,
        });
    let coordinator = RemoteCoordinator::new(pool);
    let (merged, stats) = coordinator.run_plan(&plan).expect("survives the kill");
    assert_eq!(merged, serial);
    assert_eq!(stats.hosts_lost.len(), 1);
    assert!(stats.retries > 0, "mid-stream EOFs are transient: retried");
    assert!(stats.reissues >= 1, "the kill forces a lease re-issue");
}
