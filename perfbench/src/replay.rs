//! Step replay: one episode of Algorithm 1 rebuilt from the layers' public
//! functions, with a span around every call into a layer. The replay must
//! produce the same `EpisodeReport` as `CellConfig::run_spec`; the traced
//! run fails when it does not, because it would then be timing a different
//! program.

use crate::tracer::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seo_core::batch::ScenarioSpec;
use seo_core::config::{ControlMode, OffloadFallback, SeoConfig};
use seo_core::controller::Controller;
use seo_core::discretize::{discretize_deadline, discretize_period};
use seo_core::metrics::{DeltaMaxHistogram, EpisodeReport, ModelEnergyReport};
use seo_core::model::{ModelId, PipelineModel};
use seo_core::optimizer::{full_slot_cost, optimized_slot_cost, OptimizerKind};
use seo_core::plan::CellConfig;
use seo_core::runtime::RuntimeLoop;
use seo_core::scheduler::{SafeScheduler, SlotKind, StepPlan};
use seo_nn::kernel::ScalarKernel;
use seo_nn::policy::PolicyFeatures;
use seo_nn::InferenceScratch;
use seo_platform::energy::{EnergyCategory, EnergyLedger};
use seo_platform::units::Seconds;
use seo_safety::filter::{FilterDecision, SafetyFilter};
use seo_safety::interval::SafeIntervalEvaluator;
use seo_safety::monitor::SafetyMonitor;
use seo_sim::dynamics::DynamicWorld;
use seo_sim::episode::{Episode, EpisodeConfig, EpisodeStatus};
use seo_sim::sensing::RelativeObservation;
use seo_wireless::link::WirelessLink;
use seo_wireless::offload::{OffloadTransaction, ResponseEstimator};
use seo_wireless::server::EdgeServer;

/// Layer objects a cell's runtime holds privately, rebuilt from the same
/// public constructors `CellConfig::runtime` / `RuntimeLoop::new` use.
pub struct Parts {
    controller: Controller,
    filter: SafetyFilter,
    evaluator: SafeIntervalEvaluator,
    link: WirelessLink,
    server: EdgeServer,
}

impl Parts {
    /// The parts of `cell`'s runtime.
    pub fn for_cell(cell: &CellConfig, config: &SeoConfig) -> Result<Self, String> {
        Ok(Self {
            controller: cell.controller.build(),
            filter: SafetyFilter::default(),
            evaluator: SafeIntervalEvaluator::default().with_horizon(config.delta_cap),
            link: cell.channel.link().map_err(|e| e.to_string())?,
            server: EdgeServer::paper_default().map_err(|e| e.to_string())?,
        })
    }

    /// Size of Ψ's admissible set |U|.
    pub fn admissible_len(&self) -> usize {
        self.filter
            .admissible_set(seo_sim::vehicle::Control::new(0.0, 1.0))
            .len()
    }
}

/// Deterministic event counts gathered at the same boundaries as the
/// spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub steps: u64,
    pub sensing_calls: u64,
    pub controller_calls: u64,
    pub filter_calls: u64,
    pub filter_corrections: u64,
    /// Ψ time on calls that passed the raw control: one look-ahead check.
    pub filter_passed_ns: u64,
    pub filter_passed_calls: u64,
    /// Ψ time on calls that corrected the control.
    pub filter_corrected_ns: u64,
    pub lookup_queries: u64,
    pub interval_calls: u64,
    pub intervals: u64,
    pub full_slots: u64,
    pub optimized_slots: u64,
    pub offload_issued: u64,
    pub offload_successes: u64,
    pub offload_fallbacks: u64,
}

struct OffloadState {
    inflight: Option<OffloadTransaction>,
    estimator: ResponseEstimator,
    issued: usize,
    successes: usize,
    fallbacks: usize,
}

struct ModelState {
    id: ModelId,
    delta_i: u32,
    optimized: EnergyLedger,
    baseline: EnergyLedger,
    full_invocations: usize,
    optimized_slots: usize,
    offload: OffloadState,
}

/// Consumes the in-flight transaction if it completed by `now`.
fn resolve_offload(offload: &mut OffloadState, now: Seconds) -> bool {
    match offload.inflight {
        Some(tx) if tx.is_complete(now) => {
            offload.estimator.observe(tx.response_duration());
            offload.inflight = None;
            true
        }
        _ => false,
    }
}

/// Replays one episode step by step under trace id `1 + index`.
#[allow(clippy::too_many_lines)]
pub fn replay_episode(
    cell: &CellConfig,
    runtime: &RuntimeLoop,
    parts: &Parts,
    index: usize,
    spec: ScenarioSpec,
    tr: &mut Tracer,
    c: &mut Counters,
) -> EpisodeReport {
    tr.set_trace(1 + index as u64);
    let root = tr.open("episode.replay", crate::tracer::ROOT);
    let config = runtime.config();
    let models = runtime.models();
    let optimizer = runtime.optimizer();
    let tau = config.tau;
    let cap = config.delta_max_cap();

    let world = tr.time("setup.world_gen", root, || spec.world());
    let dynamic: Option<DynamicWorld> = cell.traffic.profile().map(|p| p.apply(&world));
    let episode_config = EpisodeConfig::default().with_dt(tau);
    let mut episode = match &dynamic {
        None => Episode::borrowed(&world, episode_config),
        Some(d) => Episode::new(d.snapshot(Seconds::ZERO), episode_config),
    };
    let road = episode.world().road();
    let mut link = parts.link;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut scheduler = SafeScheduler::from_model_set(models, tau);
    let mut monitor = SafetyMonitor::new(*parts.filter.barrier());
    let mut histogram = DeltaMaxHistogram::new();
    let mut nn = InferenceScratch::default();
    let mut plan = StepPlan::default();
    let mut states: Vec<ModelState> = models
        .normal()
        .map(|(id, m)| ModelState {
            id,
            delta_i: discretize_period(m.period(), tau),
            optimized: EnergyLedger::new(),
            baseline: EnergyLedger::new(),
            full_invocations: 0,
            optimized_slots: 0,
            offload: OffloadState {
                inflight: None,
                estimator: ResponseEstimator::from_models(&link, &parts.server),
                issued: 0,
                successes: 0,
                fallbacks: 0,
            },
        })
        .collect();
    let mut step: u64 = 0;
    let mut interval_start_step: u64 = 0;

    while episode.status() == EpisodeStatus::Running {
        let now = Seconds::new(step as f64 * tau.as_secs());
        if let Some(d) = &dynamic {
            let s = tr.open("episode", root);
            let status = episode.update_world(|w| d.snapshot_into(now, w));
            tr.close(s);
            if status.is_terminal() {
                break;
            }
        }
        let state = episode.state();
        // 1. Λ'' state estimation.
        let s = tr.open("sensing", root);
        let observation = RelativeObservation::observe(episode.world(), &state);
        let ahead = RelativeObservation::observe_ahead(episode.world(), &state);
        tr.close(s);
        c.sensing_calls += 2;
        // 2. Main control.
        let s = tr.open("controller", root);
        let features = PolicyFeatures::from_observation(&state, &ahead, road.length, road.width);
        let raw = parts
            .controller
            .act_scratch_with::<ScalarKernel>(&features, &mut nn);
        tr.close(s);
        c.controller_calls += 1;
        // 3. Safe control.
        let (control, decision) = match config.control_mode {
            ControlMode::Filtered => {
                let s = tr.open("filter", root);
                let out = parts.filter.filter(episode.world(), &state, raw);
                let ns = tr.close(s);
                c.filter_calls += 1;
                if out.1.is_correction() {
                    c.filter_corrections += 1;
                    c.filter_corrected_ns += ns;
                } else {
                    c.filter_passed_calls += 1;
                    c.filter_passed_ns += ns;
                }
                out
            }
            ControlMode::Unfiltered => (raw, FilterDecision::Passed),
        };
        let s = tr.open("monitor", root);
        monitor.record(&observation, decision.is_correction());
        tr.close(s);
        // 4. Deadline sampling + slot planning.
        let sched = tr.open("scheduler", root);
        let (mut queries, mut intervals_evaluated) = (0u64, 0u64);
        scheduler.plan_step_into(&mut plan, || {
            let delta_raw = match &dynamic {
                None => {
                    queries += 1;
                    tr.time("lookup", sched, || {
                        runtime.deadline_table().query(&observation)
                    })
                }
                Some(d) => {
                    intervals_evaluated += 1;
                    tr.time("interval", sched, || {
                        parts
                            .evaluator
                            .safe_interval_dynamic(d, now, &state, control)
                    })
                }
            };
            let delta = discretize_deadline(delta_raw, tau).min(cap);
            histogram.record(delta);
            delta
        });
        tr.close(sched);
        c.lookup_queries += queries;
        c.interval_calls += intervals_evaluated;
        if plan.interval_started {
            interval_start_step = step;
            c.intervals += 1;
        }
        // 5. Slots + energy accounting.
        let slots = tr.open("optimizer", root);
        for model_state in &mut states {
            let kind = plan
                .slot_for(model_state.id)
                .expect("scheduler covers every normal model");
            let model = models.get(model_state.id).expect("ids come from the set");
            let sampling_instant = step.is_multiple_of(u64::from(model_state.delta_i));
            if sampling_instant {
                full_slot_cost(model, config).apply_to(&mut model_state.baseline);
            }
            if optimizer == OptimizerKind::LocalBaseline {
                if sampling_instant {
                    full_slot_cost(model, config).apply_to(&mut model_state.optimized);
                    model_state.full_invocations += 1;
                }
                continue;
            }
            match kind {
                SlotKind::Idle => {}
                SlotKind::FullPeriodic => {
                    full_slot_cost(model, config).apply_to(&mut model_state.optimized);
                    model_state.full_invocations += 1;
                }
                SlotKind::FullDeadline => {
                    let response_arrived = optimizer == OptimizerKind::Offloading && {
                        let s = tr.open("offload", slots);
                        let arrived = resolve_offload(&mut model_state.offload, now);
                        tr.close(s);
                        arrived
                    };
                    if response_arrived {
                        model_state.offload.successes += 1;
                    }
                    let served_remotely = response_arrived
                        && config.offload_fallback == OffloadFallback::LocalOnTimeout;
                    if !served_remotely {
                        if optimizer == OptimizerKind::Offloading
                            && model_state.offload.inflight.take().is_some()
                        {
                            model_state.offload.fallbacks += 1;
                        }
                        full_slot_cost(model, config).apply_to(&mut model_state.optimized);
                        model_state.full_invocations += 1;
                    }
                }
                SlotKind::Optimized => {
                    model_state.optimized_slots += 1;
                    optimized_slot_cost(optimizer, model, config)
                        .apply_to(&mut model_state.optimized);
                    if optimizer == OptimizerKind::Offloading {
                        let s = tr.open("offload", slots);
                        offload_slot(
                            model_state,
                            model,
                            config,
                            parts,
                            &mut link,
                            now,
                            interval_start_step,
                            plan.delta_max,
                            &mut rng,
                        );
                        tr.close(s);
                    }
                }
            }
        }
        tr.close(slots);
        // 6. Actuate and advance.
        let s = tr.open("episode", root);
        episode.step(control);
        tr.close(s);
        step += 1;
    }

    let report = EpisodeReport {
        status: episode.status(),
        steps: episode.steps(),
        models: states
            .into_iter()
            .map(|s| {
                c.full_slots += s.full_invocations as u64;
                c.optimized_slots += s.optimized_slots as u64;
                c.offload_issued += s.offload.issued as u64;
                c.offload_successes += s.offload.successes as u64;
                c.offload_fallbacks += s.offload.fallbacks as u64;
                ModelEnergyReport {
                    name: models
                        .get(s.id)
                        .map(|m| m.name().to_owned())
                        .unwrap_or_default(),
                    delta_i: s.delta_i,
                    optimized: s.optimized,
                    baseline: s.baseline,
                    full_invocations: s.full_invocations,
                    optimized_slots: s.optimized_slots,
                    offloads_issued: s.offload.issued,
                    offload_successes: s.offload.successes,
                    offload_fallbacks: s.offload.fallbacks,
                }
            })
            .collect(),
        histogram,
        unsafe_steps: monitor.unsafe_steps(),
        corrections: monitor.corrections(),
        min_barrier: monitor.min_barrier(),
        min_distance: monitor.min_distance(),
    };
    tr.close(root);
    c.steps += step;
    report
}

/// An Ω slot under task offloading: issue the transmission when its
/// estimated response beats the fallback slot, otherwise run locally.
#[allow(clippy::too_many_arguments)]
fn offload_slot(
    model_state: &mut ModelState,
    model: &PipelineModel,
    config: &SeoConfig,
    parts: &Parts,
    link: &mut WirelessLink,
    now: Seconds,
    interval_start_step: u64,
    delta_max: u32,
    rng: &mut StdRng,
) {
    let tau = config.tau;
    let fallback_step =
        interval_start_step + u64::from(delta_max.saturating_sub(model_state.delta_i));
    let fallback_time = Seconds::new(fallback_step as f64 * tau.as_secs());
    if now + model_state.offload.estimator.estimate() > fallback_time {
        full_slot_cost(model, config).apply_to(&mut model_state.optimized);
        model_state.full_invocations += 1;
        return;
    }
    let _ = resolve_offload(&mut model_state.offload, now);
    let tx = OffloadTransaction::issue(link, &parts.server, now, rng);
    model_state
        .optimized
        .record(EnergyCategory::Transmission, tx.radio_energy());
    model_state.offload.inflight = Some(tx);
    model_state.offload.issued += 1;
}
