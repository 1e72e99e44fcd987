//! Golden deadline table: an absolute anchor for T(x, u).
//!
//! The runtime samples every static-world Δmax from the table that
//! `DeadlineTable::build_default` produces, so a change to φ, the rollout
//! or the table build shows up in every episode's gating and offload
//! schedule. This test pins the table to committed bytes: its length, the
//! bits of its horizon and an FNV-1a digest of the bits of every stored
//! value, at the paper evaluator (Δcap = 80 ms) and at a 200 ms horizon,
//! where more of the grid crosses the barrier before the cap.
//!
//! A change that intentionally alters the table re-blesses the file with
//! `SEO_BLESS=1 cargo test -p seo-integration --test golden_table` and says
//! why in CHANGES.md. Any other diff is a bug.

use seo_core::prelude::*;
use seo_platform::units::Seconds;
use seo_safety::interval::SafeIntervalEvaluator;
use seo_safety::lookup::DeadlineTable;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/deadline_table.ndjson"
);

/// Horizons of the pinned tables, milliseconds; the first is the paper's.
const HORIZONS_MS: [f64; 2] = [80.0, 200.0];

/// FNV-1a over the bits of every stored value.
fn values_fnv(table: &DeadlineTable) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for value in table.values() {
        for b in value.as_secs().to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn line(horizon_ms: f64, table: &DeadlineTable) -> String {
    format!(
        "{{\"horizon_ms\":{horizon_ms},\"len\":{},\"horizon_bits\":\"{:016x}\",\
         \"values_fnv\":\"{:016x}\"}}\n",
        table.len(),
        table.horizon().as_secs().to_bits(),
        values_fnv(table)
    )
}

fn render() -> String {
    HORIZONS_MS
        .iter()
        .map(|&ms| {
            let evaluator = SafeIntervalEvaluator::default().with_horizon(Seconds::from_millis(ms));
            line(ms, &DeadlineTable::build_default(&evaluator))
        })
        .collect()
}

#[test]
fn deadline_tables_match_the_golden_bytes() {
    let actual = render();
    if std::env::var_os("SEO_BLESS").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("committed golden");
    assert_eq!(
        actual, expected,
        "the deadline table changed; re-bless only for an intended semantic change"
    );
}

#[test]
fn the_paper_runtime_samples_the_golden_table() {
    if std::env::var_os("SEO_BLESS").is_some() {
        return; // the file is being rewritten by the test above
    }
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("paper models");
    let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("runtime");
    let expected = std::fs::read_to_string(GOLDEN).expect("committed golden");
    let paper = expected.lines().next().expect("paper line");
    assert_eq!(
        line(HORIZONS_MS[0], runtime.deadline_table()).trim_end(),
        paper
    );
}
