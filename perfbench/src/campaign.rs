//! The two batch workloads: a campaign at the paper's operating point
//! and a coupled-fleet DR campaign, both driven through `exp`.

use crate::layers;
use crate::oracle::{self, HORIZON};
use crate::stats::{median, ms, Outcome};
use availsim_exp::plan::{expand, Plan};
use availsim_exp::report::to_json;
use availsim_exp::run::{run_with_progress, CampaignResult, RunConfig};
use availsim_exp::spec::{Policy, Scenario};
use availsim_sim::telemetry::Counter;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One batch workload: a generated spec and the runner's worker count.
pub struct Batch {
    pub spec: String,
    pub workers: usize,
    /// Whether this is the fleet campaign (array-missions, fleet checks).
    pub fleet: bool,
}

/// RAID {r1, r5-3} × policy {conventional, failover} × hep {0, 0.001,
/// 0.01} at λ = 3e-6, 1M naive missions per cell over ten years.
pub fn paper_campaign(seed: u64) -> Batch {
    Batch {
        spec: format!(
            "[campaign]\nname = paper-campaign\nseed = {seed}\nmodel = mc\n\
             [axes]\nraid = [r1, r5-3]\npolicy = [conventional, failover]\n\
             hep = [0, 0.001, 0.01]\nlambda = [3e-6]\n\
             [mc]\niterations = 1000000\nhorizon_hours = {HORIZON}\nconfidence = {}\nthreads = 1\n",
            oracle::CONFIDENCE
        ),
        workers: 1,
        fleet: false,
    }
}

/// 64 RAID5(3+1) arrays sharing two repair crews, with high THERP
/// dependence, shelf domains of 8, a two-slot queueing DR site, and live
/// latent sector errors, at λ = 1e-4 and hep {0, 0.01}.
pub fn fleet_dr(seed: u64) -> Batch {
    Batch {
        spec: format!(
            "[campaign]\nname = fleet-dr\nseed = {seed}\nmodel = mc\n\
             [axes]\nraid = r5-3\nlambda = [1e-4]\nhep = [0, 0.01]\n\
             [mc]\niterations = 60\nhorizon_hours = {HORIZON}\nconfidence = {}\nthreads = 1\n\
             [fleet]\narrays = 64\nrepairmen = 2\ndependence = high\n\
             domain_arrays = 8\ndomain_rate = 2e-5\n\
             failover_capacity = 2\nfailover_policy = queue\nfailback_rate = 0.25\n\
             [lse]\nlse_rate = 1e-4\nscrub_interval = 336\n",
            oracle::CONFIDENCE
        ),
        workers: 1,
        fleet: true,
    }
}

/// Set-up as a user pays it: parse the spec, validate it, expand the grid.
fn set_up(spec: &str) -> Result<Plan, String> {
    let scenario = Scenario::parse(spec).map_err(|e| e.to_string())?;
    scenario.validate().map_err(|e| e.to_string())?;
    expand(&scenario).map_err(|e| e.to_string())
}

/// One block of set-up repetitions: the medians of its timings.
#[derive(Debug, Clone, Copy)]
struct SetUpBlock {
    total_s: f64,
    parse_us: f64,
    expand_us: f64,
}

/// Times `reps` set-ups; one set-up is a few microseconds, too short to
/// time alone.
fn time_set_up(spec: &str, reps: usize) -> Result<SetUpBlock, String> {
    let (mut total, mut parse, mut expand_t) = (vec![], vec![], vec![]);
    for _ in 0..reps {
        let t0 = Instant::now();
        let scenario = Scenario::parse(black_box(spec)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        scenario.validate().map_err(|e| e.to_string())?;
        black_box(expand(&scenario).map_err(|e| e.to_string())?);
        let t2 = Instant::now();
        total.push((t2 - t0).as_secs_f64());
        parse.push((t1 - t0).as_secs_f64() * 1e6);
        expand_t.push((t2 - t1).as_secs_f64() * 1e6);
    }
    Ok(SetUpBlock {
        total_s: median(&total),
        parse_us: median(&parse),
        expand_us: median(&expand_t),
    })
}

fn missions(plan: &Plan) -> f64 {
    let arrays = plan.scenario.fleet.map_or(1, |f| f.arrays);
    (plan.len() as u64 * plan.scenario.mc.iterations * arrays) as f64
}

fn with_telemetry(plan: &Plan, on: bool) -> Plan {
    let mut plan = plan.clone();
    plan.scenario.telemetry.metrics = on.then(|| "perfbench".to_string());
    plan
}

/// Repeated campaigns over one measured window, with a block of set-up
/// repetitions after each.
///
/// The host this runs on may slow down for seconds at a time, and
/// interference only ever adds time, so the end-to-end figures are each
/// pass's best campaign and best set-up block: the cost of the code, not
/// of the neighbours. Spreading the set-up blocks across the window gives
/// them the same chance of a quiet moment.
struct Pass {
    /// Per campaign: missions per second over run + report rendering.
    throughput: Vec<f64>,
    /// Per campaign: submit to first cell answer, ms.
    first_answer_ms: Vec<f64>,
    /// Per campaign: run time (without report), ms.
    run_ms: Vec<f64>,
    json_us: Vec<f64>,
    worker_util: Vec<f64>,
    cell_max_ms: Vec<f64>,
    campaigns: u64,
    failed_cells: u64,
    /// Campaigns whose report differed from the reference report.
    diverged: u64,
    report_bytes: usize,
    set_up: Vec<SetUpBlock>,
}

impl Pass {
    fn best_throughput(&self) -> f64 {
        self.throughput.iter().copied().fold(f64::NAN, f64::max)
    }

    fn best_first_answer_ms(&self) -> f64 {
        self.first_answer_ms
            .iter()
            .copied()
            .fold(f64::NAN, f64::min)
    }

    /// The fastest set-up block, by total time.
    fn best_set_up(&self) -> SetUpBlock {
        self.set_up
            .iter()
            .copied()
            .min_by(|a, b| a.total_s.total_cmp(&b.total_s))
            .expect("every pass runs at least one campaign")
    }
}

fn timed_pass(
    spec: &str,
    plan: &Plan,
    workers: usize,
    window: Duration,
    reference: &str,
) -> Result<Pass, String> {
    let config = RunConfig {
        workers,
        keep_going: true,
    };
    let mut pass = Pass {
        throughput: vec![],
        first_answer_ms: vec![],
        run_ms: vec![],
        json_us: vec![],
        worker_util: vec![],
        cell_max_ms: vec![],
        campaigns: 0,
        failed_cells: 0,
        diverged: 0,
        report_bytes: 0,
        set_up: vec![],
    };
    let end = Instant::now() + window;
    while pass.campaigns == 0 || Instant::now() < end {
        let first = OnceLock::new();
        let sink = |_: &str| {
            let _ = first.set(Instant::now());
        };
        let t0 = Instant::now();
        let result = run_with_progress(plan, &config, Some(&sink)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let report = to_json(&result);
        let t2 = Instant::now();
        pass.throughput
            .push(missions(plan) / (t2 - t0).as_secs_f64());
        pass.first_answer_ms
            .push(ms(first.get().copied().unwrap_or(t1) - t0));
        pass.run_ms.push(ms(t1 - t0));
        pass.json_us.push((t2 - t1).as_secs_f64() * 1e6);
        pass.worker_util.push(result.worker_utilization());
        pass.cell_max_ms.push(
            result
                .cells
                .iter()
                .map(|c| c.elapsed_micros as f64 / 1e3)
                .fold(0.0, f64::max),
        );
        pass.campaigns += 1;
        pass.failed_cells += result.failed_cells as u64;
        pass.diverged += u64::from(report != reference);
        pass.report_bytes = report.len();
        pass.set_up.push(time_set_up(spec, 201)?);
    }
    Ok(pass)
}

/// The correctness checks of one campaign result.
fn check_result(out: &mut Outcome, batch: &Batch, result: &CampaignResult) {
    let plan_missions = result.scenario.mc.iterations;
    out.check("no failed cells", result.failed_cells == 0);
    for c in &result.cells {
        let cell = &c.cell;
        let label = format!(
            "cell {} ({} {} hep={})",
            cell.index,
            cell.raid.label(),
            cell.policy.as_str(),
            cell.hep
        );
        let finite = c.unavailability.is_finite() && (0.0..=1.0).contains(&c.unavailability);
        out.check(&format!("{label}: estimate is a probability"), finite);
        if batch.fleet {
            let credited = c.credited_unavailability.unwrap_or(f64::NAN);
            out.check(
                &format!("{label}: DR-credited <= plain unavailability"),
                credited.is_finite() && credited <= c.unavailability,
            );
            continue;
        }
        let hw = c.ci_half_width.unwrap_or(f64::NAN);
        match oracle::interval_unavailability(
            cell.raid,
            cell.policy,
            cell.lambda,
            cell.hep,
            HORIZON,
        ) {
            Ok(exact) => {
                let n = plan_missions;
                out.check(
                    &format!(
                        "{label}: U={} vs exact interval {} (±{hw})",
                        c.unavailability, exact.unavailability
                    ),
                    oracle::mc_agrees(c.unavailability, hw, &exact, n, HORIZON),
                );
                if cell.hep > 0.0 && cell.policy == Policy::Conventional {
                    // The check must have the power to see human error: an
                    // oracle that drops hep has to fail it on the cells where
                    // hep matters (fail-over's hot spare hides most of it).
                    let blind = oracle::interval_unavailability(
                        cell.raid,
                        cell.policy,
                        cell.lambda,
                        0.0,
                        HORIZON,
                    );
                    out.check(
                        &format!("{label}: a hep-blind oracle is rejected"),
                        blind.is_ok_and(|b| {
                            !oracle::mc_agrees(c.unavailability, hw, &b, n, HORIZON)
                        }),
                    );
                }
            }
            Err(e) => out.check(&format!("{label}: exact oracle ({e})"), false),
        }
    }
}

/// Runs a batch workload: one untimed telemetry-on campaign for the
/// checks, then timed campaigns, each followed by a block of set-up
/// repetitions. With `trace` the timed window is split into an untraced
/// and a traced half and the per-layer metrics are measured.
pub fn run(batch: &Batch, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = set_up(&batch.spec)?;

    // Reference campaign, telemetry on: the checks read its counters, and
    // telemetry-off runs must reproduce its report bit for bit.
    let traced_plan = with_telemetry(&plan, true);
    let plain_plan = with_telemetry(&plan, false);
    let reference = run_with_progress(
        &traced_plan,
        &RunConfig {
            workers: batch.workers,
            keep_going: true,
        },
        None,
    )
    .map_err(|e| e.to_string())?;
    let reference_json = to_json(&reference);
    check_result(&mut out, batch, &reference);
    let counters = reference.counters;
    if batch.fleet {
        for (what, c) in [
            ("crew waits", Counter::FleetCrewWaits),
            ("DR failovers", Counter::FleetFailovers),
            ("rebuild LSE hits", Counter::RebuildLseHits),
        ] {
            out.check(&format!("fleet counter live: {what}"), counters.get(c) > 0);
        }
    }

    let window = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let plain = timed_pass(
        &batch.spec,
        &plain_plan,
        batch.workers,
        window,
        &reference_json,
    )?;
    out.work(plain.campaigns * plan.len() as u64, plain.failed_cells);
    out.check(
        "telemetry-off campaigns reproduce the reference report",
        plain.diverged == 0,
    );
    out.metric("setup_s", plain.best_set_up().total_s, "s");
    let throughput = plain.best_throughput();
    out.metric("throughput_per_s", throughput, "1/s");
    out.metric("latency_ms", plain.best_first_answer_ms(), "ms");
    eprintln!(
        "{} campaigns, {} cells each, {:.0} missions/s",
        plain.campaigns,
        plan.len(),
        throughput
    );
    if !trace {
        return Ok(out);
    }

    let traced = timed_pass(
        &batch.spec,
        &traced_plan,
        batch.workers,
        window,
        &reference_json,
    )?;
    out.work(traced.campaigns * plan.len() as u64, traced.failed_cells);
    out.check(
        "traced campaigns reproduce the reference report",
        traced.diverged == 0,
    );
    let mut layer = Outcome::default();
    layer.metric(
        "trace.overhead_throughput_pct",
        (throughput - traced.best_throughput()) / throughput * 100.0,
        "%",
    );
    let (plain_ms, traced_ms) = (plain.best_first_answer_ms(), traced.best_first_answer_ms());
    layer.metric(
        "trace.overhead_latency_pct",
        (traced_ms - plain_ms) / plain_ms * 100.0,
        "%",
    );
    let set_up = traced.best_set_up();
    layer.metric("exp.spec.parse_us", set_up.parse_us, "us");
    layer.metric("exp.plan.expand_us", set_up.expand_us, "us");
    layer.metric("exp.plan.cells", plan.len() as f64, "count");
    layer.metric("exp.run.worker_util", median(&traced.worker_util), "ratio");
    layer.metric("exp.run.cell_max_ms", median(&traced.cell_max_ms), "ms");
    layer.metric("exp.run.cells_failed", traced.failed_cells as f64, "count");
    layer.metric("exp.report.json_us", median(&traced.json_us), "us");
    layer.metric("exp.report.bytes", traced.report_bytes as f64, "bytes");
    // Counters are deterministic: the reference campaign's are every
    // traced campaign's.
    let c = counters;
    let missions = c.get(Counter::Missions).max(1) as f64;
    let draws = c.get(Counter::RngExpDraws)
        + c.get(Counter::RngUniformDraws)
        + c.get(Counter::RngLifetimeDraws);
    if batch.fleet {
        let fired = c.get(Counter::QueueFired).max(1) as f64;
        layer.metric("sim.queue.fired_per_mission", fired / missions, "count");
        layer.metric(
            "sim.queue.depth_high_water",
            c.get(Counter::QueueDepthHighWater) as f64,
            "count",
        );
        layer.metric(
            "core.fleet.ns_per_event",
            median(&traced.run_ms) * 1e6 / fired,
            "ns",
        );
        layer.metric(
            "core.fleet.crew_waits",
            c.get(Counter::FleetCrewWaits) as f64,
            "count",
        );
        layer.metric(
            "core.fleet.failovers",
            c.get(Counter::FleetFailovers) as f64,
            "count",
        );
        layer.metric(
            "core.fleet.lse_hits",
            c.get(Counter::RebuildLseHits) as f64,
            "count",
        );
    } else {
        layer.metric(
            "core.mc.transitions_per_mission",
            c.get(Counter::JumpTransitions) as f64 / missions,
            "count",
        );
        layer.metric(
            "core.mc.rng_draws_per_mission",
            draws as f64 / missions,
            "count",
        );
        for policy in [Policy::Conventional, Policy::Failover] {
            let split = layers::mc_split(policy, seed)?;
            let name = policy.as_str();
            layer.metric(
                format!("core.mc.kernel_ns_per_mission.{name}"),
                split.kernel_ns,
                "ns",
            );
            layer.metric(
                format!("core.mc.overhead_ns_per_mission.{name}"),
                split.run_ns - split.kernel_ns,
                "ns",
            );
        }
    }
    layer.metric("sim.rng.exp_draw_ns", layers::exp_draw_ns(seed), "ns");
    out.metrics = layer.metrics;
    Ok(out)
}
