//! Outside timers for the Monte-Carlo layers: the jump-chain kernel, the
//! per-mission overhead around it, and one exponential draw.

use crate::oracle::HORIZON;
use crate::stats::median;
use availsim_core::mc::{ConventionalMc, FailOverMc, McConfig, SimWorkspace};
use availsim_core::ModelParams;
use availsim_exp::spec::{parse_geometry_label, Policy};
use availsim_hra::Hep;
use availsim_sim::rng::SimRng;
use std::hint::black_box;
use std::time::Instant;

const MISSIONS: u64 = 400_000;
const REPS: usize = 3;

/// Nanoseconds per mission, split in two.
pub struct McSplit {
    /// `simulate_once_with` alone, one RNG stream across missions.
    pub kernel_ns: f64,
    /// `run` at one thread: the kernel plus substream seeding, outcome
    /// accounting, Welford updates, and the block merge.
    pub run_ns: f64,
}

/// The paper point the serve misses and the campaign's r5-3 cells use:
/// RAID5(3+1), λ = 3e-6, hep = 0.01.
fn paper_params() -> Result<ModelParams, String> {
    let raid = parse_geometry_label("r5-3")?;
    let hep = Hep::new(0.01).map_err(|e| e.to_string())?;
    ModelParams::paper_defaults(raid, 3e-6, hep).map_err(|e| e.to_string())
}

fn per_mission_ns(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9 / MISSIONS as f64
}

/// Times the kernel and the full runner for one policy, alternating, and
/// keeps the medians.
///
/// # Errors
/// Model construction or run failures, as text.
pub fn mc_split(policy: Policy, seed: u64) -> Result<McSplit, String> {
    let params = paper_params()?;
    let config = McConfig {
        iterations: MISSIONS,
        horizon_hours: HORIZON,
        seed,
        threads: 1,
        ..McConfig::default()
    };
    let e = |e: availsim_core::CoreError| e.to_string();
    let conventional = ConventionalMc::new(params).map_err(e)?;
    let failover = FailOverMc::new(params).map_err(e)?;
    let mut ws = SimWorkspace::new();
    let (mut kernel, mut run) = (vec![], vec![]);
    for rep in 0..REPS {
        let mut rng = SimRng::seed_from(seed ^ rep as u64);
        let mut downtime = 0.0;
        let t = Instant::now();
        for _ in 0..MISSIONS {
            let outcome = match policy {
                Policy::Conventional => conventional.simulate_once_with(HORIZON, &mut rng, &mut ws),
                Policy::Failover => failover.simulate_once_with(HORIZON, &mut rng, &mut ws),
            };
            downtime += outcome.downtime_hours;
        }
        kernel.push(per_mission_ns(t));
        black_box(downtime);

        let t = Instant::now();
        let estimate = match policy {
            Policy::Conventional => conventional.run(&config),
            Policy::Failover => failover.run(&config),
        }
        .map_err(e)?;
        run.push(per_mission_ns(t));
        black_box(estimate.unavailability());
    }
    Ok(McSplit {
        kernel_ns: median(&kernel),
        run_ns: median(&run),
    })
}

/// Nanoseconds per `SimRng::sample_exp` draw at the paper's λ.
pub fn exp_draw_ns(seed: u64) -> f64 {
    const DRAWS: u32 = 4_000_000;
    let mut rng = SimRng::seed_from(seed);
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut sum = 0.0;
            let t = Instant::now();
            for _ in 0..DRAWS {
                sum += rng.sample_exp(black_box(3e-6)).unwrap_or(0.0);
            }
            black_box(sum);
            t.elapsed().as_secs_f64() * 1e9 / f64::from(DRAWS)
        })
        .collect();
    median(&times)
}
