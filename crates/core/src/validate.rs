//! Cross-validation of the Markov models against the Monte-Carlo reference
//! (the methodology behind the paper's Fig. 4).
//!
//! A Monte-Carlo mission starts in OP and runs for a finite horizon, so its
//! estimand is the *interval* availability over that horizon, not the
//! steady-state availability: the two differ by a start-up bias of roughly
//! `U∞·τ/T` (τ the chain's relaxation time, T the horizon), which a tight
//! enough interval resolves. The check is therefore made against the exact
//! interval availability of the same chain
//! ([`TransientAvailability::interval_availability`]); the steady-state
//! value is kept as a labelled reference.

use crate::error::Result;
use crate::markov::{Raid5Conventional, Raid5FailOver};
use crate::mc::{AvailabilityEstimate, ConventionalMc, FailOverMc, McConfig};
use crate::params::ModelParams;
use crate::sensitivity::PolicyModel;
use crate::transient::TransientAvailability;

/// Result of one validation point.
#[derive(Debug, Clone)]
pub struct ValidationPoint {
    /// Disk failure rate λ.
    pub disk_failure_rate: f64,
    /// Human error probability.
    pub hep: f64,
    /// Exact interval availability over the Monte-Carlo horizon, starting
    /// in OP — the oracle the estimate is checked against.
    pub interval_availability: f64,
    /// Steady-state availability of the Markov model (a reference: the
    /// finite-horizon estimate converges to it only as the horizon grows).
    pub steady_state_availability: f64,
    /// The Monte-Carlo estimate.
    pub estimate: AvailabilityEstimate,
    /// Whether the interval availability falls inside the Monte-Carlo
    /// confidence interval.
    pub consistent: bool,
}

/// Validates one operating point: runs the Monte-Carlo model and checks the
/// exact interval availability over `config.horizon_hours` against its
/// confidence interval.
///
/// # Errors
/// Propagates model and configuration errors.
pub fn validate_point(
    model: PolicyModel,
    params: ModelParams,
    config: &McConfig,
) -> Result<ValidationPoint> {
    let (steady_state_availability, estimate) = match model {
        PolicyModel::Conventional => {
            let markov = Raid5Conventional::new(params)?.solve()?;
            let mc = ConventionalMc::new(params)?.run(config)?;
            (markov.availability(), mc)
        }
        PolicyModel::FailOver => {
            let markov = Raid5FailOver::new(params)?.solve()?;
            let mc = FailOverMc::new(params)?.run(config)?;
            (markov.availability(), mc)
        }
    };
    let interval_availability =
        TransientAvailability::new(model, params)?.interval_availability(config.horizon_hours)?;
    Ok(ValidationPoint {
        disk_failure_rate: params.disk_failure_rate,
        hep: params.hep.value(),
        interval_availability,
        steady_state_availability,
        consistent: estimate.is_consistent_with(interval_availability),
        estimate,
    })
}

/// Validates a sweep of failure rates (the Fig. 4 grid) for one hep.
///
/// # Errors
/// Propagates model and configuration errors.
pub fn validate_sweep(
    model: PolicyModel,
    base: ModelParams,
    failure_rates: &[f64],
    config: &McConfig,
) -> Result<Vec<ValidationPoint>> {
    failure_rates
        .iter()
        .map(|&lam| validate_point(model, base.with_failure_rate(lam)?, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use availsim_hra::Hep;

    fn config() -> McConfig {
        McConfig {
            iterations: 400,
            horizon_hours: 20_000.0,
            seed: 99,
            confidence: 0.99,
            threads: 2,
            ..McConfig::default()
        }
    }

    #[test]
    fn conventional_point_validates() {
        // High rates so the MC resolves the unavailability quickly.
        let params = ModelParams::raid5_3plus1(1e-3, Hep::new(0.01).unwrap()).unwrap();
        let v = validate_point(PolicyModel::Conventional, params, &config()).unwrap();
        assert!(
            v.consistent,
            "interval {} vs mc {}",
            v.interval_availability, v.estimate.availability
        );
    }

    #[test]
    fn failover_point_validates() {
        let params = ModelParams::raid5_3plus1(1e-3, Hep::new(0.01).unwrap()).unwrap();
        let v = validate_point(PolicyModel::FailOver, params, &config()).unwrap();
        assert!(
            v.consistent,
            "interval {} vs mc {}",
            v.interval_availability, v.estimate.availability
        );
    }

    #[test]
    fn sweep_produces_one_point_per_rate() {
        let params = ModelParams::raid5_3plus1(1e-3, Hep::new(0.001).unwrap()).unwrap();
        let rates = [5e-4, 1e-3, 2e-3];
        let points = validate_sweep(PolicyModel::Conventional, params, &rates, &config()).unwrap();
        assert_eq!(points.len(), 3);
        let consistent = points.iter().filter(|p| p.consistent).count();
        assert!(
            consistent >= 2,
            "at 99% confidence at most ~1 in 100 may fail"
        );
    }

    #[test]
    fn short_horizon_is_checked_against_the_interval_not_the_steady_state() {
        // A 1000 h mission from OP: the start-up bias (interval minus
        // steady-state availability, ~1.5e-4 here) is over three
        // half-widths of the estimate, so comparing with the steady state
        // must fail for every seed, while the interval oracle holds.
        let params = ModelParams::raid5_3plus1(1e-3, Hep::new(0.01).unwrap()).unwrap();
        let config = McConfig {
            iterations: 800_000,
            horizon_hours: 1_000.0,
            seed: 99,
            confidence: 0.99,
            threads: 0,
            ..McConfig::default()
        };
        let v = validate_point(PolicyModel::Conventional, params, &config).unwrap();
        let bias = v.interval_availability - v.steady_state_availability;
        let hw = v.estimate.availability.half_width;
        assert!(
            hw > 0.0 && hw < bias / 3.0,
            "half-width {hw:e} does not resolve the start-up bias {bias:e}"
        );
        assert!(
            v.consistent,
            "interval {} outside {}",
            v.interval_availability, v.estimate.availability
        );
        assert!(
            !v.estimate.is_consistent_with(v.steady_state_availability),
            "steady state {} inside {}",
            v.steady_state_availability,
            v.estimate.availability
        );
    }
}
