//! The energy optimization methods Ω — Section V.
//!
//! Two Ω instantiations are modeled, matching the paper:
//!
//! * **Task offloading** (eq. 7): a due slot transmits the input to an edge
//!   server (`E_Ω = T_tx · P_tx`); if the response has not arrived by the
//!   fallback slot `n == δmax − δᵢ`, the local model is re-invoked and its
//!   full energy `T_N · P_N` is additionally incurred.
//! * **Gating** (eq. 8): a due slot runs the model at a reduced gating
//!   level (model gating) or skips both the computation and the sensor
//!   measurement (sensor gating), in which case only the mechanical power
//!   `P_mech` keeps drawing (`E_Ω = τ · P_mech`).
//!
//! This module holds the *pure* per-slot energy arithmetic; the stochastic
//! offload mechanics (channel sampling, in-flight tracking) live in
//! [`crate::runtime`].

use crate::config::{EnergyAccounting, SeoConfig};
use crate::model::PipelineModel;
use seo_platform::energy::{EnergyCategory, EnergyLedger};
use seo_platform::units::Joules;
use std::fmt;

/// Which optimization method a Λ′ model uses for its Ω slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Hash)]
pub enum OptimizerKind {
    /// No optimization: the full model runs at every sampling instant
    /// (the baseline every experiment compares against).
    LocalBaseline,
    /// Task offloading over the wireless link with local fallback.
    Offloading,
    /// Model gating: the NN runs at the configured gating level; the sensor
    /// keeps measuring.
    ModelGating,
    /// Sensor gating: computation is skipped *and* the sensor measurement
    /// circuitry is gated; only `P_mech` keeps drawing.
    SensorGating,
}

impl OptimizerKind {
    /// All optimizer kinds, in reporting order.
    pub const ALL: [Self; 4] = [
        Self::LocalBaseline,
        Self::Offloading,
        Self::ModelGating,
        Self::SensorGating,
    ];
}

impl fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::LocalBaseline => "local-baseline",
            Self::Offloading => "offloading",
            Self::ModelGating => "model-gating",
            Self::SensorGating => "sensor-gating",
        };
        f.write_str(s)
    }
}

/// Energy cost of one slot, split by category.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlotCost {
    /// Local NN compute energy.
    pub compute: Joules,
    /// Radio transmission energy.
    pub transmission: Joules,
    /// Sensor measurement energy (`P_meas` share).
    pub sensor_measurement: Joules,
    /// Sensor mechanical energy (`P_mech` share).
    pub sensor_mechanical: Joules,
}

impl SlotCost {
    /// A zero-cost slot.
    pub const ZERO: Self = Self {
        compute: Joules::ZERO,
        transmission: Joules::ZERO,
        sensor_measurement: Joules::ZERO,
        sensor_mechanical: Joules::ZERO,
    };

    /// Total energy of the slot.
    #[must_use]
    pub fn total(&self) -> Joules {
        self.compute + self.transmission + self.sensor_measurement + self.sensor_mechanical
    }

    /// Accumulates this cost into a ledger.
    pub fn apply_to(&self, ledger: &mut EnergyLedger) {
        ledger.record(EnergyCategory::Compute, self.compute);
        ledger.record(EnergyCategory::Transmission, self.transmission);
        ledger.record(EnergyCategory::SensorMeasurement, self.sensor_measurement);
        ledger.record(EnergyCategory::SensorMechanical, self.sensor_mechanical);
    }
}

/// Sensor share of an *active* (measuring) slot under the configured
/// accounting.
fn active_sensor_cost(model: &PipelineModel, config: &SeoConfig) -> (Joules, Joules) {
    match config.accounting {
        EnergyAccounting::ComputeOnly => (Joules::ZERO, Joules::ZERO),
        EnergyAccounting::WithSensor => (
            config.tau * model.sensor().measurement_power(),
            config.tau * model.sensor().mechanical_power(),
        ),
    }
}

/// Cost of a **full local inference** slot (`E_N` of eq. 8): compute plus,
/// under sensor accounting, the active sensor window
/// `τ · (P_mech + P_meas)`.
#[must_use]
pub fn full_slot_cost(model: &PipelineModel, config: &SeoConfig) -> SlotCost {
    let (meas, mech) = active_sensor_cost(model, config);
    SlotCost {
        compute: model.compute().energy_per_inference(),
        transmission: Joules::ZERO,
        sensor_measurement: meas,
        sensor_mechanical: mech,
    }
}

/// Cost of an **optimized (Ω) slot** for the gating methods.
///
/// * [`OptimizerKind::ModelGating`]: compute scaled by the gating level;
///   the sensor keeps measuring.
/// * [`OptimizerKind::SensorGating`]: no compute; only `τ · P_mech` under
///   sensor accounting (eq. 8's `E_Ω`).
/// * [`OptimizerKind::LocalBaseline`]: a full slot (the baseline never
///   optimizes).
/// * [`OptimizerKind::Offloading`]: the *radio* part is stochastic and
///   sampled by the runtime; this function returns the sensor share only
///   (the frame must still be captured to be offloaded).
#[must_use]
pub fn optimized_slot_cost(
    kind: OptimizerKind,
    model: &PipelineModel,
    config: &SeoConfig,
) -> SlotCost {
    match kind {
        OptimizerKind::LocalBaseline => full_slot_cost(model, config),
        OptimizerKind::ModelGating => {
            let (meas, mech) = active_sensor_cost(model, config);
            SlotCost {
                compute: model.compute().energy_at_gating_level(config.gating_level),
                transmission: Joules::ZERO,
                sensor_measurement: meas,
                sensor_mechanical: mech,
            }
        }
        OptimizerKind::SensorGating => {
            let mech = match config.accounting {
                EnergyAccounting::ComputeOnly => Joules::ZERO,
                EnergyAccounting::WithSensor => config.tau * model.sensor().mechanical_power(),
            };
            SlotCost {
                compute: Joules::ZERO,
                transmission: Joules::ZERO,
                sensor_measurement: Joules::ZERO,
                sensor_mechanical: mech,
            }
        }
        OptimizerKind::Offloading => {
            let (meas, mech) = active_sensor_cost(model, config);
            SlotCost {
                compute: Joules::ZERO,
                transmission: Joules::ZERO, // sampled per transmission by the runtime
                sensor_measurement: meas,
                sensor_mechanical: mech,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeoConfig;
    use crate::model::{Criticality, PipelineModel};
    use seo_platform::compute::ComputeProfile;
    use seo_platform::sensor::SensorSpec;
    use seo_platform::units::Seconds;

    fn detector() -> PipelineModel {
        PipelineModel::paper_detector(1, Seconds::from_millis(20.0)).expect("valid")
    }

    fn lidar_model() -> PipelineModel {
        PipelineModel::new(
            "lidar-detector",
            Seconds::from_millis(20.0),
            ComputeProfile::px2_resnet152(),
            SensorSpec::velodyne_hdl32e(),
            Criticality::Normal,
        )
        .expect("valid")
    }

    #[test]
    fn full_slot_compute_only_is_en() {
        let cost = full_slot_cost(&detector(), &SeoConfig::paper_defaults());
        assert!((cost.compute.as_joules() - 0.119).abs() < 1e-12);
        assert_eq!(cost.sensor_measurement, Joules::ZERO);
        assert!((cost.total().as_joules() - 0.119).abs() < 1e-12);
    }

    #[test]
    fn full_slot_with_sensor_matches_eq8() {
        let config = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
        let cost = full_slot_cost(&lidar_model(), &config);
        // tau (Pmech + Pmeas) + T_N P_N = 0.02 * 12 + 0.119 = 0.359 J.
        assert!((cost.total().as_joules() - 0.359).abs() < 1e-12);
        assert!((cost.sensor_measurement.as_joules() - 0.02 * 9.6).abs() < 1e-12);
        assert!((cost.sensor_mechanical.as_joules() - 0.02 * 2.4).abs() < 1e-12);
    }

    #[test]
    fn model_gating_scales_compute_by_level() {
        let config = SeoConfig::paper_defaults(); // g = 0.5
        let cost = optimized_slot_cost(OptimizerKind::ModelGating, &detector(), &config);
        assert!((cost.compute.as_joules() - 0.0595).abs() < 1e-12);
        let config = config.with_gating_level(0.0);
        let cost = optimized_slot_cost(OptimizerKind::ModelGating, &detector(), &config);
        assert_eq!(cost.compute, Joules::ZERO);
    }

    #[test]
    fn sensor_gating_leaves_only_mechanical_power() {
        let config = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
        let cost = optimized_slot_cost(OptimizerKind::SensorGating, &lidar_model(), &config);
        // E_Omega = tau * P_mech = 0.02 * 2.4 = 0.048 J.
        assert!((cost.total().as_joules() - 0.048).abs() < 1e-12);
        assert_eq!(cost.compute, Joules::ZERO);
        assert_eq!(cost.sensor_measurement, Joules::ZERO);
    }

    #[test]
    fn table_iii_4tau_gains_reproduce_from_slot_costs() {
        // Validate the eq. (8) arithmetic against the paper's Table III
        // "4tau gains" column: one interval of delta_max = 4 with a
        // delta_i = 1 sensor has 3 gated + 1 full slot vs 4 full slots.
        let config = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
        let cases = [
            (SensorSpec::zed_camera(), 0.75),        // paper: 75 %
            (SensorSpec::navtech_cts350x(), 0.6893), // paper: 68.93 %
            (SensorSpec::velodyne_hdl32e(), 0.6482), // paper: 64.82 %
        ];
        for (sensor, expected) in cases {
            let model = detector().with_sensor(sensor.clone());
            let full = full_slot_cost(&model, &config).total().as_joules();
            let gated = optimized_slot_cost(OptimizerKind::SensorGating, &model, &config)
                .total()
                .as_joules();
            let gain = 1.0 - (3.0 * gated + full) / (4.0 * full);
            assert!(
                (gain - expected).abs() < 0.01,
                "{}: gain {gain:.4} vs paper {expected}",
                sensor.name()
            );
        }
    }

    #[test]
    fn table_iii_4tau_gains_p2tau_reproduce() {
        // p = 2 tau: one gated + one full slot vs two full slots.
        let config = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
        let cases = [
            (SensorSpec::zed_camera(), 0.50),        // paper: 50 %
            (SensorSpec::navtech_cts350x(), 0.4553), // paper: 45.53 %
            (SensorSpec::velodyne_hdl32e(), 0.4191), // paper: 41.91 %
        ];
        for (sensor, expected) in cases {
            let model = detector().with_sensor(sensor.clone());
            let full = full_slot_cost(&model, &config).total().as_joules();
            let gated = optimized_slot_cost(OptimizerKind::SensorGating, &model, &config)
                .total()
                .as_joules();
            let gain = 1.0 - (gated + full) / (2.0 * full);
            assert!(
                (gain - expected).abs() < 0.05,
                "{}: gain {gain:.4} vs paper {expected}",
                sensor.name()
            );
        }
    }

    #[test]
    fn baseline_never_optimizes() {
        let config = SeoConfig::paper_defaults();
        let full = full_slot_cost(&detector(), &config);
        let opt = optimized_slot_cost(OptimizerKind::LocalBaseline, &detector(), &config);
        assert_eq!(full, opt);
    }

    #[test]
    fn offloading_slot_cost_is_sensor_only() {
        let config = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
        let cost = optimized_slot_cost(OptimizerKind::Offloading, &lidar_model(), &config);
        assert_eq!(cost.compute, Joules::ZERO);
        assert_eq!(cost.transmission, Joules::ZERO);
        assert!(cost.sensor_measurement.as_joules() > 0.0);
    }

    #[test]
    fn slot_cost_applies_to_ledger_by_category() {
        let config = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
        let cost = full_slot_cost(&lidar_model(), &config);
        let mut ledger = EnergyLedger::new();
        cost.apply_to(&mut ledger);
        assert_eq!(ledger.by_category(EnergyCategory::Compute), cost.compute);
        assert_eq!(
            ledger.by_category(EnergyCategory::SensorMechanical),
            cost.sensor_mechanical
        );
        assert!((ledger.total().as_joules() - cost.total().as_joules()).abs() < 1e-15);
    }

    #[test]
    fn kind_display() {
        assert_eq!(OptimizerKind::Offloading.to_string(), "offloading");
        assert_eq!(OptimizerKind::SensorGating.to_string(), "sensor-gating");
        assert_eq!(OptimizerKind::ALL.len(), 4);
    }
}
