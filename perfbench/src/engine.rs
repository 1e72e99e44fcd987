//! The product path: the engine dispatch `sweep --plan` takes in pure
//! `summary` report mode, plus the output fingerprint the benchmark checks.

use seo_core::agg::RunSummary;
use seo_core::metrics::EpisodeReport;
use seo_core::plan::{ExecMode, SweepPlan};
use seo_core::shard::Shard;
use seo_core::transport::{RemoteCoordinator, RemoteRunStats};
use std::time::Duration;

/// Quantiles the workloads' report sections ask for.
pub const QUANTILES: [f64; 2] = [0.5, 0.99];

/// Exact deterministic counts of a sweep's output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Episodes folded.
    pub episodes: u64,
    /// Simulated control steps.
    pub steps: u64,
    /// Ψ corrections.
    pub corrections: u64,
    /// Offload transmissions issued; `None` when only summaries came back
    /// (the summary sketch does not carry this count).
    pub offloads_issued: Option<u64>,
}

impl Counts {
    /// Adds one episode report.
    pub fn add(&mut self, report: &EpisodeReport) {
        self.episodes += 1;
        self.steps += report.steps as u64;
        self.corrections += report.corrections as u64;
        let issued: usize = report.models.iter().map(|m| m.offloads_issued).sum();
        *self.offloads_issued.get_or_insert(0) += issued as u64;
    }

    /// The counts a folded summary carries (no offload count).
    pub fn from_summary(summary: &RunSummary) -> Self {
        let mut counts = Self::default();
        for cell in summary.cells() {
            counts.episodes += cell.episodes;
            counts.corrections += cell.corrections;
            let mean = cell.steps.mean().unwrap_or(0.0);
            counts.steps += (mean * cell.episodes as f64).round() as u64;
        }
        counts
    }
}

/// What one sweep produced.
pub struct Outcome {
    /// The folded per-cell summary.
    pub summary: RunSummary,
    /// Deterministic counts of the output.
    pub counts: Counts,
    /// Fleet statistics (hosts mode only).
    pub remote: Option<RemoteRunStats>,
}

/// Runs a parsed plan through the engine its execution section names —
/// the dispatch of `sweep --plan` in summary mode.
pub fn run(plan: &SweepPlan) -> Result<Outcome, String> {
    let mut summary = plan.run_summary();
    let mut counts = Counts::default();
    let mut remote = None;
    match &plan.mode {
        ExecMode::Serial => {
            plan.run_range(Shard::new(0, plan.n_specs()), plan.kernel, |i, report| {
                counts.add(&report);
                summary.record(i, &report);
                true
            })
            .map_err(|e| e.to_string())?;
        }
        ExecMode::Threads(threads) => {
            let reports = plan.run_threads(*threads).map_err(|e| e.to_string())?;
            for (i, report) in reports.iter().enumerate() {
                counts.add(report);
                summary.record(i, report);
            }
        }
        ExecMode::Hosts(pool) => {
            let coordinator = RemoteCoordinator::new(pool.clone())
                .with_timeout(Duration::from_secs_f64(plan.timeout_secs));
            let (folded, stats) = coordinator
                .run_plan_summary(plan)
                .map_err(|e| e.to_string())?;
            summary = folded;
            counts = Counts::from_summary(&summary);
            remote = Some(stats);
        }
        ExecMode::Processes(_) => return Err("no workload uses the processes engine".into()),
    }
    Ok(Outcome {
        summary,
        counts,
        remote,
    })
}

/// The summary-mode stdout bytes `sweep --plan` would print.
pub fn summary_text(summary: &RunSummary) -> String {
    let mut text = String::new();
    for line in summary.lines(&QUANTILES) {
        text.push_str(&line);
        text.push('\n');
    }
    text
}

/// FNV-1a 64 digest of the summary bytes, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}
