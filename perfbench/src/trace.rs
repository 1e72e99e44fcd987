//! The traced run: an engine replay (the structure of `run_range`, built
//! from public functions with a span around each layer call), a step
//! replay of sampled episodes, and — on the fleet workload — leases served
//! through the daemon's public job entry over loopback sockets. Per-layer
//! metrics are derived from the recorded spans and counters.

use crate::engine::{self, Counts};
use crate::replay::{replay_episode, Counters, Parts};
use crate::tracer::{Times, Tracer, ROOT};
use crate::workload::{Workload, FLEET_CHUNK};
use seo_core::daemon::{DaemonConfig, DaemonServer};
use seo_core::fault::FaultInjector;
use seo_core::metrics::EpisodeReport;
use seo_core::plan::{ExecMode, SweepPlan};
use seo_core::reactor::OffloadExec;
use seo_core::runtime::{EpisodeScratch, RuntimeLoop, TaskPoll};
use seo_core::shard::Shard;
use seo_core::transport::{
    parse_worker_frame, read_frame, serve_job, summary_frame, JobRequest, WorkerMsg,
};
use seo_safety::interval::SafeIntervalEvaluator;
use seo_safety::lookup::DeadlineTable;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Episodes step-replayed per traced run, spread evenly over the grid.
const SAMPLED_EPISODES: usize = 16;

/// Per-layer metric values in `BENCHMARK.json` order, with units.
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Renders `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What the traced run reports besides its metrics.
pub struct TracedRun {
    /// Digest of the engine replay's summary bytes.
    pub digest: String,
    /// Counts of the engine replay's output.
    pub counts: Counts,
    /// Step-replayed episodes.
    pub replayed: usize,
    /// Replays (or task polls) whose report differs from `run_spec`'s,
    /// plus engine outputs that differ from the engine replay's.
    pub mismatches: usize,
    /// The per-layer metrics.
    pub metrics: Metrics,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Two in-process `seo-sweepd` services on loopback ports.
struct Fleet {
    daemons: Vec<Arc<DaemonServer>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Fleet {
    fn start(base: &Arc<RuntimeLoop>) -> Result<(Self, Vec<String>), String> {
        let mut fleet = Fleet {
            daemons: Vec::new(),
            threads: Vec::new(),
        };
        let mut addrs = Vec::new();
        for _ in 0..2 {
            let daemon = Arc::new(
                DaemonServer::bind("127.0.0.1:0", DaemonConfig::default())
                    .map_err(|e| e.to_string())?,
            );
            addrs.push(daemon.local_addr().map_err(|e| e.to_string())?.to_string());
            let (server, runtime) = (Arc::clone(&daemon), Arc::clone(base));
            fleet.threads.push(std::thread::spawn(move || {
                if let Err(e) = server.serve(runtime) {
                    eprintln!("perfbench: in-process daemon: {e}");
                }
            }));
            fleet.daemons.push(daemon);
        }
        Ok((fleet, addrs))
    }

    fn stop(self) {
        for daemon in &self.daemons {
            daemon.request_drain();
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Serves one lease through `serve_job` over a loopback socket and returns
/// the lease's summary fragment frame.
fn serve_lease(request: &JobRequest, base: &RuntimeLoop) -> Result<Vec<u8>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> Result<(), String> {
            let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
            serve_job(&mut stream, request, base, &mut FaultInjector::none())
                .map(|_| ())
                .map_err(|e| e.to_string())
        });
        let mut client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let mut summary = None;
        while let Some(frame) = read_frame(&mut client).map_err(|e| e.to_string())? {
            match parse_worker_frame(&frame).map_err(|e| e.to_string())? {
                WorkerMsg::Summary { .. } => summary = Some(frame),
                WorkerMsg::Done { .. } => break,
                _ => return Err("unexpected frame from serve_job".to_owned()),
            }
        }
        server.join().map_err(|_| "lease thread panicked")??;
        summary.ok_or_else(|| "lease shipped no summary frame".to_owned())
    })
}

/// The evenly spaced spec indices the step replay covers.
fn sampled(n_specs: usize) -> Vec<usize> {
    let k = SAMPLED_EPISODES.min(n_specs);
    let mut picks: Vec<usize> = (0..k).map(|j| j * n_specs / k).collect();
    picks.dedup();
    picks
}

/// Runs the traced replay of `workload` at `seed`, writing its spans to
/// `spans_out`.
#[allow(clippy::too_many_lines)]
pub fn run(
    workload: Workload,
    seed: u64,
    spans_out: &std::path::Path,
) -> Result<TracedRun, String> {
    let mut tr = Tracer::new();
    let mut mismatches = 0usize;

    // The fleet replay talks to two in-process daemons; their base runtime
    // is the paper runtime a `seo-sweepd` builds at start.
    let probe =
        SweepPlan::parse(&workload.plan_text(seed, true, true, &[])?).map_err(|e| e.to_string())?;
    let base = Arc::new(
        probe.cells()[0]
            .0
            .runtime(probe.kernel)
            .map_err(|e| e.to_string())?,
    );
    let (fleet, hosts) = if workload.is_fleet() {
        let (fleet, addrs) = Fleet::start(&base)?;
        (Some(fleet), addrs)
    } else {
        (None, Vec::new())
    };
    let text = workload.plan_text(seed, false, false, &hosts)?;

    // -- engine replay: the structure of `SweepPlan::run_range` ---------
    tr.set_trace(0);
    let root = tr.open("engine.replay", ROOT);
    let plan = tr
        .time("setup.plan_parse", root, || SweepPlan::parse(&text))
        .map_err(|e| e.to_string())?;
    let points = tr.time("setup.plan_expand", root, || plan.expand());
    let mut summary = plan.run_summary();
    let mut counts = Counts::default();
    let mut reports: Vec<Option<EpisodeReport>> = vec![None; plan.n_specs()];
    let mut run_spec_ns = vec![0u64; plan.n_specs()];
    let picks = sampled(plan.n_specs());
    let mut runtimes = Vec::new();
    let mut scratch = EpisodeScratch::new();
    for (cell, shard) in plan.cells() {
        let runtime = tr
            .time("setup.runtime_build", root, || cell.runtime(plan.kernel))
            .map_err(|e| e.to_string())?;
        for i in shard.indices() {
            let span = tr.open("run_spec", root);
            let report = cell.run_spec(&runtime, points[i].spec, &mut scratch);
            run_spec_ns[i] = tr.close(span);
            counts.add(&report);
            tr.time("agg.record", root, || summary.record(i, &report));
            if picks.binary_search(&i).is_ok() {
                reports[i] = Some(report);
            }
        }
        runtimes.push((cell, runtime));
    }
    let engine_ns = tr.close(root);
    let summary_text = engine::summary_text(&summary);
    let digest = engine::digest(&summary_text);

    // -- step replay of the sampled episodes -----------------------------
    let per_cell = plan.axes.specs_per_cell();
    let mut c = Counters::default();
    let mut parks = 0u64;
    let mut replay_untraced_ns = 0u64;
    let mut admissible = 0;
    for &i in &picks {
        let (cell, runtime) = &runtimes[i / per_cell];
        let parts = Parts::for_cell(cell, runtime.config())?;
        admissible = parts.admissible_len();
        // The untraced time of the same episode, taken right next to its
        // replay so both see the same cache and clock state.
        let start = Instant::now();
        std::hint::black_box(cell.run_spec(runtime, points[i].spec, &mut scratch));
        replay_untraced_ns += start.elapsed().as_nanos() as u64;
        let replayed = replay_episode(cell, runtime, &parts, i, points[i].spec, &mut tr, &mut c);
        let expected = reports[i].as_ref().expect("sampled report kept");
        if replayed != *expected {
            eprintln!("perfbench: step replay of spec {i} differs from run_spec");
            mismatches += 1;
        }
        if plan.offload.is_async() {
            // The reactor's unit of work: a task polled until it completes,
            // parking at each offload await point.
            let mut task = cell.spawn_task(runtime, points[i].spec);
            let polled = loop {
                match task.poll() {
                    TaskPoll::Parked { .. } => parks += 1,
                    TaskPoll::Complete(report) => break report,
                }
            };
            if polled != *expected {
                eprintln!("perfbench: polled task of spec {i} differs from run_spec");
                mismatches += 1;
            }
        }
    }

    // -- the workload's own engine, timed whole ---------------------------
    let (workers, engine_wall_ns, remote) = if matches!(plan.mode, ExecMode::Serial) {
        (1, engine_ns, None)
    } else {
        let start = Instant::now();
        let outcome = engine::run(&plan)?;
        let wall = start.elapsed().as_nanos() as u64;
        if engine::summary_text(&outcome.summary) != summary_text {
            eprintln!(
                "perfbench: the {} engine's output differs from the serial fold",
                plan.mode
            );
            mismatches += 1;
        }
        let workers = match &plan.mode {
            ExecMode::Threads(threads) => *threads as u64,
            ExecMode::Hosts(pool) => pool.total_capacity(),
            _ => 1,
        };
        (workers, wall, outcome.remote)
    };
    if let Some(fleet) = fleet {
        fleet.stop();
    }

    // -- leases, wire frames and the summary fold -------------------------
    // The fleet workload's leases each go through the daemon's job entry
    // over a loopback socket; the other workloads ship their whole grid as
    // one lease's frames without a socket.
    let chunk = if workload.is_fleet() {
        FLEET_CHUNK
    } else {
        plan.n_specs()
    };
    tr.set_trace(0);
    let wire_root = tr.open("wire.replay", ROOT);
    let (mut job_bytes, mut summary_bytes, mut encode_ns, mut decode_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut lease_ms = Vec::new();
    let mut overhead_ns = 0i64;
    let mut fragments = Vec::new();
    let mut leases = 0u64;
    for start in (0..plan.n_specs()).step_by(chunk) {
        let shard = Shard::new(start, (start + chunk).min(plan.n_specs()));
        let request = JobRequest {
            scenarios: plan.n_specs(),
            seed: plan.axes.seeds.base,
            plan: Some(plan.clone()),
            shard,
        };
        let span = tr.open("wire.encode", wire_root);
        let frame = request.to_frame();
        encode_ns += tr.close(span);
        let span = tr.open("wire.decode", wire_root);
        let decoded = JobRequest::from_frame(&frame).map_err(|e| e.to_string())?;
        decode_ns += tr.close(span);
        job_bytes += frame.len() as u64;
        leases += 1;
        let summary_frame = if workload.is_fleet() {
            let span = tr.open("lease", wire_root);
            let frame = serve_lease(&decoded, &base)?;
            let ns = tr.close(span);
            lease_ms.push(ms(ns));
            let episodes_ns: u64 = run_spec_ns[shard.indices()].iter().sum();
            overhead_ns += ns as i64 - episodes_ns as i64;
            frame
        } else {
            summary_frame(shard, &summary.fragment())
        };
        summary_bytes += summary_frame.len() as u64;
        match parse_worker_frame(&summary_frame).map_err(|e| e.to_string())? {
            WorkerMsg::Summary { cells, .. } => fragments.push((shard, cells)),
            _ => return Err("expected a summary frame".to_owned()),
        }
    }
    let mut folded = plan.run_summary();
    let span = tr.open("agg.fold", wire_root);
    folded
        .fold_fragments(fragments)
        .map_err(|e| e.to_string())?;
    let fold_ns = tr.close(span);
    tr.close(wire_root);
    if engine::summary_text(&folded) != summary_text {
        eprintln!("perfbench: folded lease fragments differ from the serial fold");
        mismatches += 1;
    }

    // -- the deadline table build on its own ------------------------------
    let config = runtimes[0].1.config();
    let mut table_ns: Vec<u64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let evaluator = SafeIntervalEvaluator::default().with_horizon(config.delta_cap);
            std::hint::black_box(DeadlineTable::build_default(&evaluator));
            start.elapsed().as_nanos() as u64
        })
        .collect();
    table_ns.sort_unstable();

    let mut file = std::io::BufWriter::new(
        std::fs::File::create(spans_out).map_err(|e| format!("{}: {e}", spans_out.display()))?,
    );
    tr.write_ndjson(&mut file)
        .and_then(|()| file.flush())
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;

    // -- metrics -----------------------------------------------------------
    let engine_spans = tr.times_by_name(|t| t == 0);
    let step_spans = tr.times_by_name(|t| t != 0);
    let get = |map: &BTreeMap<&'static str, Times>, name: &str| {
        map.get(name).copied().unwrap_or_default()
    };
    let steps = c.steps;
    let self_per_step = |name: &str| per(get(&step_spans, name).self_ns, steps);
    let build_ns = get(&engine_spans, "setup.plan_parse").total_ns
        + get(&engine_spans, "setup.plan_expand").total_ns
        + get(&engine_spans, "setup.runtime_build").total_ns;
    let traced_ns = get(&step_spans, "episode.replay").total_ns;
    let run_spec_total: u64 = run_spec_ns.iter().sum();
    let check_ns = per(c.filter_passed_ns, c.filter_passed_calls);
    let remote = remote.unwrap_or_default();
    lease_ms.sort_by(f64::total_cmp);
    let record = get(&engine_spans, "agg.record");
    let world_gen = get(&step_spans, "setup.world_gen");

    let mut m = Metrics(Vec::new());
    m.put(
        "setup.plan_parse_ms",
        ms(get(&engine_spans, "setup.plan_parse").total_ns),
        "ms",
    );
    m.put(
        "setup.plan_expand_ms",
        ms(get(&engine_spans, "setup.plan_expand").total_ns),
        "ms",
    );
    let builds = get(&engine_spans, "setup.runtime_build");
    m.put(
        "setup.runtime_build_ms",
        per(builds.total_ns, builds.count) / 1e6,
        "ms",
    );
    m.put(
        "setup.table_build_ms",
        ms(table_ns[table_ns.len() / 2]),
        "ms",
    );
    m.put(
        "setup.world_gen_us",
        per(world_gen.total_ns, world_gen.count) / 1e3,
        "us",
    );
    m.put("setup.share", per(build_ns, engine_ns), "ratio");
    m.put("filter.ns_per_step", self_per_step("filter"), "ns");
    m.put("filter.calls", c.filter_calls as f64, "count");
    m.put("filter.corrections", c.filter_corrections as f64, "count");
    m.put(
        "filter.correction_rate",
        per(c.filter_corrections, c.filter_calls),
        "ratio",
    );
    m.put("filter.check_ns", check_ns, "ns");
    let correct_ns = if c.filter_corrections == 0 {
        0.0
    } else {
        per(c.filter_corrected_ns, c.filter_corrections) - check_ns
    };
    m.put("filter.correct_ns", correct_ns, "ns");
    m.put(
        "filter.candidate_rollouts",
        (c.filter_corrections as usize * admissible) as f64,
        "count",
    );
    m.put("controller.ns_per_step", self_per_step("controller"), "ns");
    m.put("controller.calls", c.controller_calls as f64, "count");
    m.put("sensing.ns_per_step", self_per_step("sensing"), "ns");
    m.put("sensing.calls", c.sensing_calls as f64, "count");
    m.put("lookup.ns_per_step", self_per_step("lookup"), "ns");
    m.put("lookup.queries", c.lookup_queries as f64, "count");
    m.put("interval.ns_per_step", self_per_step("interval"), "ns");
    m.put("interval.calls", c.interval_calls as f64, "count");
    m.put("scheduler.ns_per_step", self_per_step("scheduler"), "ns");
    m.put("scheduler.intervals", c.intervals as f64, "count");
    m.put("optimizer.ns_per_step", self_per_step("optimizer"), "ns");
    m.put("optimizer.full_slots", c.full_slots as f64, "count");
    m.put(
        "optimizer.optimized_slots",
        c.optimized_slots as f64,
        "count",
    );
    m.put("offload.ns_per_step", self_per_step("offload"), "ns");
    m.put("offload.issued", c.offload_issued as f64, "count");
    m.put("offload.successes", c.offload_successes as f64, "count");
    m.put("offload.fallbacks", c.offload_fallbacks as f64, "count");
    m.put(
        "offload.success_rate",
        per(c.offload_successes, c.offload_issued),
        "ratio",
    );
    m.put("episode.ns_per_step", self_per_step("episode"), "ns");
    m.put("episode.steps", steps as f64, "count");
    m.put("monitor.ns_per_step", self_per_step("monitor"), "ns");
    let polled = if plan.offload == OffloadExec::Blocking {
        0
    } else {
        picks.len() as u64
    };
    m.put("reactor.parks", parks as f64, "count");
    m.put("reactor.parks_per_episode", per(parks, polled), "count");
    m.put(
        "batch.efficiency",
        per(run_spec_total, workers * engine_wall_ns),
        "ratio",
    );
    m.put("lease.count", remote.leases as f64, "count");
    m.put("lease.jobs", remote.jobs as f64, "count");
    m.put("lease.reissues", remote.reissues as f64, "count");
    m.put("lease.retries", remote.retries as f64, "count");
    let p50 = lease_ms.get(lease_ms.len() / 2).copied().unwrap_or(0.0);
    m.put("lease.serve_ms_p50", p50, "ms");
    let overhead_ms = if lease_ms.is_empty() {
        0.0
    } else {
        overhead_ns as f64 / lease_ms.len() as f64 / 1e6
    };
    m.put("lease.overhead_ms", overhead_ms, "ms");
    m.put("wire.job_frame_bytes", per(job_bytes, leases), "B");
    m.put("wire.summary_frame_bytes", per(summary_bytes, leases), "B");
    m.put("wire.encode_us", per(encode_ns, leases) / 1e3, "us");
    m.put("wire.decode_us", per(decode_ns, leases) / 1e3, "us");
    m.put("agg.record_ns", per(record.total_ns, record.count), "ns");
    m.put("agg.fold_us", fold_ns as f64 / 1e3, "us");
    m.put("step.ns", per(traced_ns, steps), "ns");
    m.put(
        "trace.overhead_pct",
        (per(traced_ns, replay_untraced_ns) - 1.0) * 100.0,
        "%",
    );

    Ok(TracedRun {
        digest,
        counts,
        replayed: picks.len(),
        mismatches,
        metrics: m,
    })
}
