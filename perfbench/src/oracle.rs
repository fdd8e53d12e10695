//! Exact answers that Monte-Carlo and served results are checked against.
//!
//! A finite mission that starts with every disk working estimates the
//! *interval* availability over the horizon, so MC cells are held to
//! `TransientAvailability::interval_availability(horizon)`, not to the
//! steady state. No golden digests: a change that draws random numbers
//! differently still passes, a change that computes the wrong model
//! does not.

use availsim_core::markov::{Raid5Conventional, Raid5FailOver};
use availsim_core::sensitivity::PolicyModel;
use availsim_core::transient::TransientAvailability;
use availsim_core::ModelParams;
use availsim_exp::spec::Policy;
use availsim_hra::Hep;
use availsim_storage::RaidGeometry;

/// Allowed distance between an MC estimate and the exact value, in
/// standard errors. Where the estimate is normal, a correct program fails
/// it with probability at most 5.7e-7 per check (two-sided), about 7e-6
/// per 12-cell campaign.
pub const TOLERANCE_SE: f64 = 5.0;

/// Mission length of every Monte-Carlo run here: ten years, in hours.
pub const HORIZON: f64 = 87_600.0;

/// Confidence level the MC runs report their interval at, and its
/// two-sided normal quantile: the interval half-width over this is the
/// sample standard error.
pub const CONFIDENCE: f64 = 0.99;
const CONFIDENCE_Z: f64 = 2.575_829_303_548_901;

/// The exact answer for one cell, with what the check needs to know
/// about the estimator's spread.
#[derive(Debug, Clone, Copy)]
pub struct Exact {
    /// Unavailability averaged over the mission.
    pub unavailability: f64,
    /// The longest mean outage any down state can cause, hours: the
    /// slowest recovery rate's inverse.
    pub longest_outage_hours: f64,
}

impl Exact {
    /// The standard error the exact model implies for an estimate from
    /// `missions` missions of `horizon` hours. Downtime is a compound
    /// Poisson sum of outages; with outage lengths at most exponential of
    /// mean `ℓ`, Var(per-mission downtime) ≤ 2·U·T·ℓ. In rare-event cells
    /// the sample sees a handful of outages and its own standard error is
    /// unreliable, so the check uses the larger of the two.
    pub fn model_se(&self, missions: u64, horizon: f64) -> f64 {
        (2.0 * self.unavailability * self.longest_outage_hours / (missions as f64 * horizon)).sqrt()
    }
}

fn params(raid: RaidGeometry, lambda: f64, hep: f64) -> Result<ModelParams, String> {
    let hep = Hep::new(hep).map_err(|e| e.to_string())?;
    ModelParams::paper_defaults(raid, lambda, hep).map_err(|e| e.to_string())
}

/// Exact unavailability averaged over a mission of `horizon` hours that
/// starts in the all-working state.
///
/// # Errors
/// Model construction or solver failures, as text.
pub fn interval_unavailability(
    raid: RaidGeometry,
    policy: Policy,
    lambda: f64,
    hep: f64,
    horizon: f64,
) -> Result<Exact, String> {
    let model = match policy {
        Policy::Conventional => PolicyModel::Conventional,
        Policy::Failover => PolicyModel::FailOver,
    };
    let p = params(raid, lambda, hep)?;
    let availability = TransientAvailability::new(model, p)
        .and_then(|t| t.interval_availability(horizon))
        .map_err(|e| e.to_string())?;
    let slowest = [
        p.disk_repair_rate,
        p.ddf_recovery_rate,
        p.human_recovery_rate,
        p.disk_change_rate,
    ]
    .into_iter()
    .fold(f64::INFINITY, f64::min);
    Ok(Exact {
        unavailability: 1.0 - availability,
        longest_outage_hours: 1.0 / slowest,
    })
}

/// Steady-state unavailability from a direct CTMC solve of the policy's
/// chain, bypassing the campaign and serve layers.
///
/// # Errors
/// Model construction or solver failures, as text.
pub fn steady_unavailability(
    raid: RaidGeometry,
    policy: Policy,
    lambda: f64,
    hep: f64,
) -> Result<f64, String> {
    let p = params(raid, lambda, hep)?;
    let solved = match policy {
        Policy::Conventional => Raid5Conventional::new(p).and_then(|m| m.solve()),
        Policy::Failover => Raid5FailOver::new(p).and_then(|m| m.solve()),
    };
    solved
        .map(|s| s.unavailability())
        .map_err(|e| e.to_string())
}

/// Whether an MC estimate from `missions` missions of `horizon` hours,
/// with confidence half-width `ci_half_width` (at [`CONFIDENCE`]), agrees
/// with the exact value within [`TOLERANCE_SE`] standard errors.
pub fn mc_agrees(
    estimate: f64,
    ci_half_width: f64,
    exact: &Exact,
    missions: u64,
    horizon: f64,
) -> bool {
    let se = (ci_half_width / CONFIDENCE_Z).max(exact.model_se(missions, horizon));
    estimate.is_finite()
        && se.is_finite()
        && (estimate - exact.unavailability).abs() <= TOLERANCE_SE * se
}

/// Whether an exact answer equals the direct solve, up to the round-off
/// of solving the same chain along another path.
pub fn exact_agrees(answer: f64, direct: f64) -> bool {
    answer.is_finite() && (answer - direct).abs() <= 1e-9 * direct.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use availsim_core::mc::{ConventionalMc, McConfig};
    use availsim_exp::spec::parse_geometry_label;

    const MISSIONS: u64 = 200_000;

    fn mc_cell(hep: f64) -> (f64, f64) {
        let raid = parse_geometry_label("r5-3").unwrap();
        let est = ConventionalMc::new(params(raid, 3e-6, hep).unwrap())
            .unwrap()
            .run(&McConfig {
                iterations: MISSIONS,
                horizon_hours: HORIZON,
                seed: 11,
                confidence: CONFIDENCE,
                threads: 1,
                ..McConfig::default()
            })
            .unwrap();
        (est.unavailability(), est.availability.half_width)
    }

    #[test]
    fn the_paper_point_passes_and_a_wrong_answer_fails() {
        let raid = parse_geometry_label("r5-3").unwrap();
        let (u, hw) = mc_cell(0.01);
        let exact =
            interval_unavailability(raid, Policy::Conventional, 3e-6, 0.01, HORIZON).unwrap();
        assert!(
            mc_agrees(u, hw, &exact, MISSIONS, HORIZON),
            "u={u} hw={hw} {exact:?}"
        );
        // Deliberately wrong answers: the estimate doubled, halved, lost.
        assert!(!mc_agrees(u * 2.0, hw, &exact, MISSIONS, HORIZON));
        assert!(!mc_agrees(u * 0.5, hw, &exact, MISSIONS, HORIZON));
        assert!(!mc_agrees(f64::NAN, hw, &exact, MISSIONS, HORIZON));
    }

    #[test]
    fn an_oracle_that_ignores_hep_fails_the_check() {
        let raid = parse_geometry_label("r5-3").unwrap();
        let (u, hw) = mc_cell(0.01);
        let hep_blind =
            interval_unavailability(raid, Policy::Conventional, 3e-6, 0.0, HORIZON).unwrap();
        assert!(
            !mc_agrees(u, hw, &hep_blind, MISSIONS, HORIZON),
            "u={u} hw={hw} {hep_blind:?}"
        );
    }

    #[test]
    fn a_rare_event_cell_is_judged_by_the_model_spread_not_the_sample() {
        // A handful of outages: the sample's own half-width is tiny next
        // to the estimate's real spread, and alone would fail a correct
        // estimate that happened to see few outages.
        let raid = parse_geometry_label("r1").unwrap();
        let exact = interval_unavailability(raid, Policy::Failover, 3e-6, 0.01, HORIZON).unwrap();
        let low = exact.unavailability * 0.25;
        assert!(mc_agrees(low, low * 0.7, &exact, 1_000_000, HORIZON));
        assert!(!mc_agrees(
            exact.unavailability * 5.0,
            low,
            &exact,
            1_000_000,
            HORIZON
        ));
    }

    #[test]
    fn exact_check_rejects_a_perturbed_answer() {
        let raid = parse_geometry_label("r5-7").unwrap();
        let direct = steady_unavailability(raid, Policy::Failover, 3e-6, 0.001).unwrap();
        assert!(exact_agrees(direct, direct));
        assert!(!exact_agrees(direct * (1.0 + 1e-6), direct));
    }
}
