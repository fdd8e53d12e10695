//! `availsim` — command-line front end for the availability models.
//!
//! ```text
//! availsim solve    --lambda 1e-6 --hep 0.01 [--raid r5-3] [--policy failover]
//! availsim sweep    --hep 0.01 [--from 5e-7] [--to 5.5e-6] [--points 11]
//! availsim compare  [--lambda 1e-5] [--capacity 21]
//! availsim validate [--lambda 1e-3] [--hep 0.01] [--iterations 4000]
//! availsim fleet    [--arrays N] [--raid r5-3] [--lambda F] [--hep F] [--iterations N]
//!                   [--failover-capacity N|inf] [--failover-policy queue|loss]
//! availsim batch    <spec-file> [--workers N] [--out-dir DIR] [--dry-run] [--keep-going]
//! availsim serve    [--port N] [--workers N] [--queue-capacity N]
//!                   [--default-deadline-ms N] [--drain-ms N] [--cache-capacity N]
//! ```

use availsim::bench::snapshot::JsonSnapshot;
use availsim::core::markov::{GenericKofN, Raid5Conventional, Raid5FailOver};
use availsim::core::mc::{
    DomainFailures, FleetCoupling, FleetMc, McConfig, McVariance, DEGRADED_BINS,
};
use availsim::core::sensitivity::PolicyModel;
use availsim::core::validate::validate_point;
use availsim::core::volume::compare_equal_capacity;
use availsim::core::{nines, ModelParams};
use availsim::exp::spec::{MetricsFormat, Scenario, TelemetrySettings};
use availsim::exp::{plan, report, run};
use availsim::hra::{DependenceLevel, Hep};
use availsim::sim::telemetry::{
    percentile_u64, write_counters, CounterSnapshot, PhaseSpans, PrometheusWriter,
};
use availsim::storage::{FailoverPolicy, FleetFailover, FleetSpec, RaidGeometry, ScrubbingModel};
use std::collections::HashMap;
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Flags that take no value; their presence means `true`.
const BOOLEAN_FLAGS: &[&str] = &["dry-run", "progress", "keep-going"];

/// Parsed command line: `--key value` / `--key=value` flags plus bare
/// positional arguments (only the `batch` subcommand accepts one).
struct ParsedArgs {
    flags: HashMap<String, String>,
    positionals: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<ParsedArgs, String> {
    let mut flags = HashMap::new();
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(rest) = args[i].strip_prefix("--") else {
            positionals.push(args[i].clone());
            i += 1;
            continue;
        };
        let (key, value) = if let Some((key, value)) = rest.split_once('=') {
            if key.is_empty() {
                return Err(format!("missing flag name in `{}`", args[i]));
            }
            (key.to_string(), value.to_string())
        } else if BOOLEAN_FLAGS.contains(&rest) {
            (rest.to_string(), "true".to_string())
        } else {
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("--{rest} needs a value"))?;
            i += 1;
            (rest.to_string(), value.clone())
        };
        if flags.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate flag --{key}"));
        }
        i += 1;
    }
    Ok(ParsedArgs { flags, positionals })
}

/// Rejects flags a subcommand does not understand, so typos fail loudly
/// instead of silently falling back to defaults.
fn check_known(flags: &HashMap<String, String>, known: &[&str]) -> Result<(), String> {
    let mut unknown: Vec<&str> = flags
        .keys()
        .filter(|k| !known.contains(&k.as_str()))
        .map(String::as_str)
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        Some(k) => Err(format!("unknown flag --{k}")),
        None => Ok(()),
    }
}

/// Most subcommands take flags only; reject stray positionals with the
/// pre-existing error shape, and unknown flags with a clear error.
fn flags_only<'a>(
    parsed: &'a ParsedArgs,
    known: &[&str],
) -> Result<&'a HashMap<String, String>, String> {
    if let Some(p) = parsed.positionals.first() {
        return Err(format!("expected --flag, got `{p}`"));
    }
    check_known(&parsed.flags, known)?;
    Ok(&parsed.flags)
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value `{v}` for --{key}")),
    }
}

/// A flag with no default: absent means `None`.
fn opt_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value `{v}` for --{key}"))
        })
        .transpose()
}

/// The CLI's geometry grammar is the campaign spec's grammar (`r1`,
/// `r5-K`, `r6-K`) — one parser, shared with the exp subsystem.
fn geometry(name: &str) -> Result<RaidGeometry, String> {
    availsim::exp::spec::parse_geometry_label(name)
}

fn cmd_solve(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let lambda: f64 = flag(flags, "lambda", 1e-6)?;
    let hep = Hep::new(flag(flags, "hep", 0.0)?)?;
    let geom = geometry(&flag(flags, "raid", "r5-3".to_string())?)?;
    let policy: String = flag(flags, "policy", "conventional".to_string())?;
    let params = ModelParams::paper_defaults(geom, lambda, hep)?;

    let (u, mttdl) = match policy.as_str() {
        "conventional" if geom.fault_tolerance() == 1 => {
            let m = Raid5Conventional::new(params)?;
            (m.solve()?.unavailability(), m.mttdl_hours()?)
        }
        "conventional" => {
            let m = GenericKofN::new(params)?;
            (m.solve()?.unavailability(), m.mttdl_hours()?)
        }
        "failover" => {
            let m = Raid5FailOver::new(params)?;
            (m.solve()?.unavailability(), m.mttdl_hours()?)
        }
        other => return Err(format!("unknown policy `{other}`").into()),
    };
    println!(
        "{} λ={lambda:.3e} hep={} policy={policy}",
        geom.label(),
        hep.value()
    );
    println!("  unavailability : {u:.6e}");
    println!(
        "  availability   : {:.4} nines",
        nines::nines_from_unavailability(u)
    );
    println!(
        "  downtime       : {:.4} min/yr",
        nines::downtime_minutes_per_year(u)
    );
    println!(
        "  MTTDL          : {:.0} h ({:.1} yr)",
        mttdl,
        mttdl / 8766.0
    );
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let hep = Hep::new(flag(flags, "hep", 0.01)?)?;
    let from: f64 = flag(flags, "from", 5e-7)?;
    let to: f64 = flag(flags, "to", 5.5e-6)?;
    let points: usize = flag(flags, "points", 11)?;
    if !(from > 0.0 && to > from && points >= 2) {
        return Err("need 0 < from < to and points >= 2".into());
    }
    println!(
        "{:>12} {:>12} {:>10} {:>10}",
        "lambda", "U(hep)", "nines", "vs hep=0"
    );
    let step = (to - from) / (points - 1) as f64;
    for i in 0..points {
        let lam = from + i as f64 * step;
        let params = ModelParams::raid5_3plus1(lam, hep)?;
        let u = Raid5Conventional::new(params)?.solve()?.unavailability();
        let u0 = Raid5Conventional::new(params.with_hep(Hep::ZERO))?
            .solve()?
            .unavailability();
        println!(
            "{:>12.4e} {:>12.4e} {:>10.3} {:>9.1}x",
            lam,
            u,
            nines::nines_from_unavailability(u),
            u / u0
        );
    }
    Ok(())
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let lambda: f64 = flag(flags, "lambda", 1e-5)?;
    let capacity: u64 = flag(flags, "capacity", 21)?;
    println!(
        "{:<12} {:>7} {:>6} {:>9} {:>11} {:>10}",
        "config", "arrays", "disks", "hep=0", "hep=0.001", "hep=0.01"
    );
    let base = compare_equal_capacity(capacity, lambda, Hep::ZERO)?;
    for (i, row) in base.iter().enumerate() {
        let mut cells = vec![row.nines()];
        for h in [0.001, 0.01] {
            cells.push(compare_equal_capacity(capacity, lambda, Hep::new(h)?)?[i].nines());
        }
        println!(
            "{:<12} {:>7} {:>6} {:>9.3} {:>11.3} {:>10.3}",
            row.label, row.arrays, row.total_disks, cells[0], cells[1], cells[2]
        );
    }
    Ok(())
}

fn cmd_validate(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let lambda: f64 = flag(flags, "lambda", 1e-3)?;
    let hep = Hep::new(flag(flags, "hep", 0.01)?)?;
    let iterations: u64 = flag(flags, "iterations", 4_000)?;
    let threads: usize = flag(flags, "threads", 0)?;
    let tele = parse_telemetry_flags(flags)?;
    let lse = parse_lse_flags(flags)?;
    let mut params = ModelParams::raid5_3plus1(lambda, hep)?;
    if let Some(scrub) = lse {
        // The Fig. 2 exact chain splits the rebuild completion by the same
        // LSE probability the MC engines draw, so the cross-check below
        // covers the data-loss tier too.
        params = params.with_scrubbing(scrub);
    }
    let variance = parse_variance_flags(flags)?;
    let config = McConfig {
        iterations,
        horizon_hours: 87_600.0,
        seed: flag(flags, "seed", 42u64)?,
        confidence: 0.99,
        threads,
        variance,
        telemetry: tele.enabled(),
    };
    let mut phases = PhaseSpans::new();
    let started = Instant::now();
    let point = validate_point(PolicyModel::Conventional, params, &config)?;
    phases.record("run", started.elapsed().as_micros() as u64);
    let est = &point.estimate;
    println!(
        "exact interval      : {:.9} ({} h mission from OP; the oracle)",
        point.interval_availability, config.horizon_hours
    );
    println!(
        "markov availability : {:.9} (steady state; reference)",
        point.steady_state_availability
    );
    println!("mc availability     : {}", est.availability);
    if !matches!(variance, McVariance::Naive) {
        println!(
            "rare-event mode     : {variance} (ESS {:.0} of {}, max weight {:.3e})",
            est.effective_sample_size, est.iterations, est.max_weight
        );
    }
    println!(
        "verdict             : {}",
        if point.consistent {
            "consistent (exact interval availability inside the 99% CI)"
        } else {
            "INCONSISTENT — investigate"
        }
    );
    if lse.is_some() {
        println!("p(data loss)        : {}", est.p_data_loss);
        println!(
            "nomdl               : {:.4e} events/TB-mission",
            est.nomdl_per_tb
        );
        match est.mean_time_to_first_loss_hours {
            Some(t) => println!("mean 1st loss       : {t:.0} h"),
            None => println!("mean 1st loss       : none observed"),
        }
    }
    write_metrics(
        &tele,
        &MetricsReport {
            command: "validate",
            counters: &est.counters,
            threads: threads as u64,
            phases: &phases,
            cell_micros: None,
            utilization: None,
        },
    )?;
    Ok(())
}

fn cmd_fleet(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let arrays: u32 = flag(flags, "arrays", 100u32)?;
    let lambda: f64 = flag(flags, "lambda", 1e-6)?;
    let hep = Hep::new(flag(flags, "hep", 0.01)?)?;
    let geom = geometry(&flag(flags, "raid", "r5-3".to_string())?)?;
    let iterations: u64 = flag(flags, "iterations", 500)?;
    let horizon: f64 = flag(flags, "horizon", 87_600.0)?;
    let seed: u64 = flag(flags, "seed", 42u64)?;
    let threads: usize = flag(flags, "threads", 0)?;
    let tele = parse_telemetry_flags(flags)?;
    let lse = parse_lse_flags(flags)?;
    let repairmen: Option<u32> = opt_flag(flags, "repairmen")?;
    let dependence = match flags.get("dependence") {
        None => DependenceLevel::Zero,
        Some(v) => DependenceLevel::parse(v).ok_or_else(|| {
            format!("unknown dependence `{v}` (use zero, low, moderate, high, complete)")
        })?,
    };
    let domains = match (
        opt_flag::<u32>(flags, "domain-arrays")?,
        opt_flag::<f64>(flags, "domain-rate")?,
    ) {
        (None, None) => None,
        (Some(domain_arrays), Some(rate)) => Some(DomainFailures {
            domain_arrays,
            rate,
        }),
        _ => return Err("--domain-arrays and --domain-rate must be set together".into()),
    };
    let failover = match flags.get("failover-capacity") {
        None => {
            for k in ["failover-policy", "failback-rate"] {
                if flags.contains_key(k) {
                    return Err(format!("--{k} requires --failover-capacity").into());
                }
            }
            None
        }
        Some(v) => {
            let capacity = if v == "inf" {
                None
            } else {
                Some(v.parse::<u32>().map_err(|_| {
                    format!("invalid value `{v}` for --failover-capacity (use a count or `inf`)")
                })?)
            };
            let policy = match flags.get("failover-policy") {
                None => FailoverPolicy::default(),
                Some(p) => FailoverPolicy::parse(p)
                    .ok_or_else(|| format!("unknown failover policy `{p}` (use queue, loss)"))?,
            };
            Some((capacity, policy, opt_flag::<f64>(flags, "failback-rate")?))
        }
    };

    let mut spec = FleetSpec::new(arrays, geom)?;
    if let Some(crews) = repairmen {
        spec = spec.with_repairmen(crews)?;
    }
    let mut params = ModelParams::paper_defaults(geom, lambda, hep)?;
    if let Some(scrub) = lse {
        params = params.with_scrubbing(scrub);
    }
    if let Some((capacity, policy, rate)) = failover {
        // The fail-back default is the disk-change rate: switching back to
        // the primary is an operator-driven maintenance action.
        spec = spec.with_failover(FleetFailover {
            capacity,
            policy,
            failback_rate: rate.unwrap_or(params.disk_change_rate),
        })?;
    }
    let dc = spec.datacenter(lambda, hep.value())?;
    let mut phases = PhaseSpans::new();
    let started = Instant::now();
    let est = FleetMc::new(spec, params)?
        .with_coupling(FleetCoupling {
            dependence,
            domains,
        })?
        .run(&McConfig {
            iterations,
            horizon_hours: horizon,
            seed,
            confidence: 0.99,
            threads,
            variance: McVariance::Naive,
            telemetry: tele.enabled(),
        })?;
    phases.record("run", started.elapsed().as_micros() as u64);

    println!(
        "fleet {arrays} x {} ({} disks) λ={lambda:.3e} hep={} — {iterations} missions of {horizon} h",
        geom.label(),
        spec.total_disks(),
        hep.value()
    );
    println!(
        "  disk failures          : {:.3}/day (fleet MTBF {:.1} h)",
        dc.expected_failures_per_day(),
        dc.mean_time_between_failures_hours()
    );
    println!(
        "  human errors           : {:.3}/year (given hep per service action)",
        dc.expected_human_errors_per_year()
    );
    println!(
        "  repair crews           : {}",
        match spec.repairmen() {
            Some(c) => c.to_string(),
            None => "unlimited".to_string(),
        }
    );
    if dependence != DependenceLevel::Zero {
        println!("  operator dependence    : {dependence} (THERP)");
    }
    if let Some(d) = domains {
        println!(
            "  failure domains        : shelves of {} struck at {:.3e}/h",
            d.domain_arrays, d.rate
        );
    }
    if let Some(s) = lse {
        println!(
            "  lse scrubbing          : rate {:.3e}/disk-h, scrub every {} h",
            s.lse_rate, s.scrub_interval_hours
        );
    }
    if let Some(f) = spec.failover() {
        match f.capacity {
            None => println!("  DR failover            : unlimited slots (ideal site)"),
            Some(k) => println!(
                "  DR failover            : {k} slots ({} policy), fail-back {:.3e}/h",
                f.policy, f.failback_rate
            ),
        }
    }
    println!("  per-array availability : {}", est.availability);
    println!(
        "  per-array downtime     : {:.4} h/yr ({:.4} nines)",
        est.annual_array_downtime_hours,
        nines::nines_from_unavailability(est.array_unavailability())
    );
    println!(
        "  any-array-down         : {:.4} h/yr (fleet availability {:.9})",
        est.annual_any_down_hours, est.fleet_availability
    );
    if spec.failover().is_some() {
        println!("  DR-credited avail      : {}", est.credited_availability);
        println!(
            "  DR-credited fleet      : {:.9} (uncovered unavailability {:.4e})",
            est.credited_fleet_availability,
            est.credited_array_unavailability()
        );
        println!(
            "  DR site                : mean occupancy {:.4}, queue wait {:.4} array-h/mission",
            est.mean_dr_occupancy(),
            est.mean_dr_queue_wait_hours()
        );
        println!(
            "  DR events              : {} failovers, {} failbacks, {} queue waits, {} rejections",
            est.failovers, est.failbacks, est.dr_queue_waits, est.dr_rejections
        );
    }
    if lse.is_some() {
        println!("  p(data loss)           : {}", est.p_data_loss);
        println!(
            "  nomdl                  : {:.4e} events/TB-mission",
            est.nomdl_per_tb
        );
        match est.mean_time_to_first_loss_hours {
            Some(t) => println!("  mean time to 1st loss  : {t:.0} h"),
            None => println!("  mean time to 1st loss  : none observed"),
        }
    }
    println!(
        "  simultaneous degraded  : mean {:.4}, peak {}",
        est.mean_degraded(),
        est.max_degraded
    );
    // The head of the degraded distribution: every bin until the shares
    // become negligible (always at least the 0/1 bins).
    print!("  degraded time share    :");
    let mut printed = 0;
    for (k, &share) in est.degraded_time_share.iter().enumerate() {
        if k > 1 && share < 1e-6 {
            break;
        }
        let label = if k == DEGRADED_BINS - 1 {
            format!("{k}+")
        } else {
            k.to_string()
        };
        print!(" {label}:{:.4}%", share * 100.0);
        printed = k + 1;
    }
    // The last bin absorbs every k >= 32; surface it even when the
    // interior bins are empty (e.g. shelf-wide domain outages).
    let tail = est.degraded_time_share[DEGRADED_BINS - 1];
    if printed < DEGRADED_BINS && tail >= 1e-6 {
        print!(" .. {}+:{:.4}%", DEGRADED_BINS - 1, tail * 100.0);
    }
    println!();
    write_metrics(
        &tele,
        &MetricsReport {
            command: "fleet",
            counters: &est.counters,
            threads: threads as u64,
            phases: &phases,
            cell_micros: None,
            utilization: None,
        },
    )?;
    Ok(())
}

/// Parses `--variance naive|failure-biasing|splitting` plus its optional
/// tuning flags (`--bias`, `--levels`, `--effort`) into a [`McVariance`] —
/// the same vocabulary as the campaign spec's `[mc] variance` key.
fn parse_variance_flags(flags: &HashMap<String, String>) -> Result<McVariance, Box<dyn Error>> {
    let name: String = flag(flags, "variance", "naive".to_string())?;
    let variance = match name.as_str() {
        "naive" => {
            for (k, scheme) in [
                ("bias", "failure-biasing"),
                ("levels", "splitting"),
                ("effort", "splitting"),
            ] {
                if flags.contains_key(k) {
                    return Err(format!("--{k} requires --variance {scheme}").into());
                }
            }
            McVariance::Naive
        }
        "failure-biasing" => {
            for k in ["levels", "effort"] {
                if flags.contains_key(k) {
                    return Err(format!("--{k} requires --variance splitting").into());
                }
            }
            McVariance::FailureBiasing {
                bias: flag(flags, "bias", McVariance::DEFAULT_BIAS)?,
            }
        }
        "splitting" => {
            if flags.contains_key("bias") {
                return Err("--bias requires --variance failure-biasing".into());
            }
            McVariance::Splitting {
                levels: flag(flags, "levels", McVariance::DEFAULT_LEVELS)?,
                effort: flag(flags, "effort", McVariance::DEFAULT_EFFORT)?,
            }
        }
        other => {
            return Err(format!(
                "unknown variance `{other}` (use naive, failure-biasing, splitting)"
            )
            .into())
        }
    };
    Ok(variance)
}

/// Parses the `--lse-rate F --scrub-interval H` pair into an optional
/// scrubbing model — the same vocabulary (and pair-together rule) as the
/// campaign spec's `[lse]` section.
fn parse_lse_flags(
    flags: &HashMap<String, String>,
) -> Result<Option<ScrubbingModel>, Box<dyn Error>> {
    match (
        opt_flag::<f64>(flags, "lse-rate")?,
        opt_flag::<f64>(flags, "scrub-interval")?,
    ) {
        (None, None) => Ok(None),
        (Some(rate), Some(hours)) => Ok(Some(ScrubbingModel::new(rate, hours)?)),
        _ => Err("--lse-rate and --scrub-interval must be set together".into()),
    }
}

/// Parses `--metrics <path>`, `--metrics-format json|prom`, and
/// `--progress` into the spec layer's [`TelemetrySettings`] — the same
/// vocabulary as the campaign spec's `[telemetry]` section.
fn parse_telemetry_flags(
    flags: &HashMap<String, String>,
) -> Result<TelemetrySettings, Box<dyn Error>> {
    let metrics = flags.get("metrics").cloned();
    let format = match flags.get("metrics-format") {
        None => MetricsFormat::default(),
        Some(v) => {
            if metrics.is_none() {
                return Err("--metrics-format requires --metrics <path>".into());
            }
            MetricsFormat::parse(v).ok_or_else(|| {
                format!("unknown format `{v}` for --metrics-format (use json, prom)")
            })?
        }
    };
    Ok(TelemetrySettings {
        metrics,
        format,
        progress: flag(flags, "progress", false)?,
    })
}

/// Everything a `--metrics` snapshot reports. The counter snapshot is the
/// deterministic section (byte-identical at any worker count); the rest
/// is wall-clock and goes into a clearly-marked nondeterministic section.
struct MetricsReport<'a> {
    command: &'static str,
    counters: &'a CounterSnapshot,
    /// Requested worker threads (0 = auto). Nondeterministic section: the
    /// whole point of the block merge is that this does not change bytes.
    threads: u64,
    phases: &'a PhaseSpans,
    /// Per-cell wall times, ascending, microseconds (batch only).
    cell_micros: Option<&'a [u64]>,
    /// Worker utilization in [0, 1] (batch only).
    utilization: Option<f64>,
}

/// Renders a metrics snapshot in the requested exposition format.
fn render_metrics(r: &MetricsReport<'_>, format: MetricsFormat) -> String {
    match format {
        MetricsFormat::Json => {
            let mut w = JsonSnapshot::root();
            w.str_field("tool", "availsim");
            w.str_field("command", r.command);
            w.begin_object("deterministic");
            for (c, v) in r.counters.iter() {
                w.u64_field(c.name(), v);
            }
            w.end_object();
            w.begin_object("nondeterministic");
            w.str_field("note", "wall-clock measurements; vary run to run");
            w.u64_field("threads_requested", r.threads);
            if !r.phases.is_empty() {
                w.begin_object("phase_micros");
                for (phase, micros) in r.phases.iter() {
                    w.u64_field(phase, micros);
                }
                w.end_object();
            }
            if let Some(times) = r.cell_micros {
                w.begin_object("cell_micros");
                for (key, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("max", 100.0)] {
                    w.u64_field(key, percentile_u64(times, p));
                }
                w.end_object();
            }
            if let Some(u) = r.utilization {
                w.f64_field("worker_utilization", u);
            }
            w.end_object();
            w.finish()
        }
        MetricsFormat::Prometheus => {
            let mut w = PrometheusWriter::new();
            w.comment(&format!(
                "availsim {} metrics — deterministic section (byte-identical at any worker count)",
                r.command
            ));
            write_counters(&mut w, r.counters);
            w.comment("nondeterministic section: wall-clock measurements, vary run to run");
            w.metric_u64(
                "availsim_threads_requested",
                "Requested worker threads (0 = auto)",
                "gauge",
                r.threads,
            );
            for (phase, micros) in r.phases.iter() {
                w.metric_u64(
                    &format!("availsim_phase_{phase}_micros"),
                    "Phase wall time, microseconds",
                    "gauge",
                    micros,
                );
            }
            if let Some(times) = r.cell_micros {
                for (key, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("max", 100.0)] {
                    w.metric_u64(
                        &format!("availsim_cell_micros_{key}"),
                        "Per-cell wall time percentile, microseconds",
                        "gauge",
                        percentile_u64(times, p),
                    );
                }
            }
            if let Some(u) = r.utilization {
                w.gauge_f64(
                    "availsim_worker_utilization",
                    "Fraction of the worker pool busy inside cells",
                    u,
                );
            }
            w.finish()
        }
    }
}

/// Writes the metrics snapshot when `--metrics` (or the spec's
/// `[telemetry] metrics`) names a destination.
fn write_metrics(tele: &TelemetrySettings, r: &MetricsReport<'_>) -> Result<(), Box<dyn Error>> {
    let Some(path) = &tele.metrics else {
        return Ok(());
    };
    let text = render_metrics(r, tele.format);
    std::fs::write(path, text).map_err(|e| format!("cannot write metrics `{path}`: {e}"))?;
    eprintln!("wrote metrics {path}");
    Ok(())
}

fn cmd_batch(parsed: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let spec_path = parsed
        .positionals
        .first()
        .ok_or("batch needs a spec file: availsim batch <spec-file>")?;
    if let Some(extra) = parsed.positionals.get(1) {
        return Err(format!("unexpected extra argument `{extra}`").into());
    }
    let flags = &parsed.flags;
    check_known(
        flags,
        &[
            "workers",
            "out-dir",
            "dry-run",
            "keep-going",
            "metrics",
            "metrics-format",
            "progress",
        ],
    )?;
    let workers: usize = flag(flags, "workers", 0)?;
    let keep_going: bool = flag(flags, "keep-going", false)?;
    let dry_run: bool = flag(flags, "dry-run", false)?;
    let out_dir: String = flag(flags, "out-dir", String::new())?;
    let cli_tele = parse_telemetry_flags(flags)?;

    let mut phases = PhaseSpans::new();
    let plan_started = Instant::now();
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read `{spec_path}`: {e}"))?;
    let mut scenario = Scenario::parse(&text)?;
    // CLI telemetry flags override the spec's `[telemetry]` section.
    if cli_tele.metrics.is_some() {
        scenario.telemetry.metrics = cli_tele.metrics;
        scenario.telemetry.format = cli_tele.format;
    }
    scenario.telemetry.progress |= cli_tele.progress;
    let plan = plan::expand(&scenario)?;
    phases.record("plan", plan_started.elapsed().as_micros() as u64);

    if dry_run {
        print!("{}", plan.describe());
        return Ok(());
    }

    // Progress streams to stderr: stdout stays byte-deterministic for the
    // CSV/JSON report blocks.
    let sink = |line: &str| eprintln!("{line}");
    let progress: Option<&run::ProgressSink<'_>> = if scenario.telemetry.progress {
        Some(&sink)
    } else {
        None
    };
    let run_started = Instant::now();
    let result = run::run_with_progress(
        &plan,
        &run::RunConfig {
            workers,
            keep_going,
        },
        progress,
    )?;
    phases.record("run", run_started.elapsed().as_micros() as u64);

    let report_started = Instant::now();
    print!("{}", report::summary(&result));
    let csv = report::to_csv(&result);
    let json = report::to_json(&result);
    if out_dir.is_empty() {
        println!("\n--- csv ---");
        print!("{csv}");
        println!("--- json ---");
        print!("{json}");
    } else {
        let dir = Path::new(&out_dir);
        std::fs::create_dir_all(dir)?;
        let csv_path = dir.join(format!("{}.csv", scenario.name));
        let json_path = dir.join(format!("{}.json", scenario.name));
        std::fs::write(&csv_path, csv)?;
        std::fs::write(&json_path, json)?;
        println!("\nwrote {}", csv_path.display());
        println!("wrote {}", json_path.display());
    }
    phases.record("report", report_started.elapsed().as_micros() as u64);

    let mut cell_micros: Vec<u64> = result.cells.iter().map(|c| c.elapsed_micros).collect();
    cell_micros.sort_unstable();
    write_metrics(
        &scenario.telemetry,
        &MetricsReport {
            command: "batch",
            counters: &result.counters,
            threads: workers as u64,
            phases: &phases,
            cell_micros: Some(&cell_micros),
            utilization: Some(result.worker_utilization()),
        },
    )?;
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), Box<dyn Error>> {
    let config = availsim::serve::ServeConfig {
        port: flag(flags, "port", 0u16)?,
        workers: flag(flags, "workers", 0usize)?,
        queue_capacity: flag(flags, "queue-capacity", 64usize)?,
        default_deadline_ms: flag(flags, "default-deadline-ms", 0u64)?,
        drain_ms: flag(flags, "drain-ms", 2_000u64)?,
        cache_capacity: flag(flags, "cache-capacity", 1_024usize)?,
        ..availsim::serve::ServeConfig::default()
    };
    if config.queue_capacity == 0 {
        return Err("--queue-capacity must be at least 1".into());
    }
    // Install the handlers before binding so a SIGTERM racing startup
    // still drains instead of killing the process mid-accept.
    availsim::serve::signal::install_handlers();
    let server = availsim::serve::Server::bind(config)?;
    println!("listening on http://{}", server.addr());
    use std::io::Write as _;
    std::io::stdout().flush()?;
    let drained_clean = server.run(availsim::serve::signal::stop_flag())?;
    eprintln!(
        "drained {}",
        if drained_clean {
            "clean"
        } else {
            "with cooperative cancellation"
        }
    );
    Ok(())
}

fn usage() -> &'static str {
    "availsim — human-error-aware storage availability (DATE'17 reproduction)

USAGE:
  availsim solve    [--lambda F] [--hep F] [--raid r1|r5-K|r6-K] [--policy conventional|failover]
  availsim sweep    [--hep F] [--from F] [--to F] [--points N]
  availsim compare  [--lambda F] [--capacity N]
  availsim validate [--lambda F] [--hep F] [--iterations N] [--seed N] [--threads N]
                    [--variance naive|failure-biasing|splitting]
                    [--bias F] [--levels N] [--effort N]
                    [--lse-rate F --scrub-interval H]
                    [--metrics PATH] [--metrics-format json|prom]
  availsim fleet    [--arrays N] [--raid r1|r5-K|r6-K] [--lambda F] [--hep F]
                    [--iterations N] [--horizon F] [--seed N] [--threads N]
                    [--repairmen N] [--dependence zero|low|moderate|high|complete]
                    [--domain-arrays N --domain-rate F]
                    [--failover-capacity N|inf] [--failover-policy queue|loss]
                    [--failback-rate F]
                    [--lse-rate F --scrub-interval H]
                    [--metrics PATH] [--metrics-format json|prom]
  availsim batch    <spec-file> [--workers N] [--out-dir DIR] [--dry-run] [--keep-going]
                    [--metrics PATH] [--metrics-format json|prom] [--progress]
  availsim serve    [--port N] [--workers N] [--queue-capacity N]
                    [--default-deadline-ms N] [--drain-ms N] [--cache-capacity N]
  availsim --version | -V

Flags accept both `--flag value` and `--flag=value`; duplicates are errors.
`--threads 0` and `--workers 0` (the defaults) mean **auto**: use the
machine's available parallelism. Any other value pins the pool size; the
estimates are byte-identical either way (the block merge is
thread-count-invariant), so `0` is always safe. The campaign spec spells
it `[mc] threads = 0` with the same meaning.
`batch` runs an experiment campaign from a spec file (see examples/specs/).
`--metrics PATH` enables the deterministic telemetry layer and writes an
engine-counter snapshot (`--metrics-format prom` for Prometheus text
exposition); the counters are byte-identical at any worker count, with
wall-clock figures segregated into a nondeterministic section. `batch
--progress` streams `cell k/N done` lines to stderr as cells finish; both
can also come from the spec's [telemetry] section.
`validate --variance failure-biasing` turns on rare-event importance
sampling, so the cross-check works at paper-grade λ where naive MC would
observe no failures at all.
`fleet` simulates N arrays as one mission on a shared event queue and
reports fleet-level availability, annual downtime, and the distribution of
simultaneously degraded arrays (tail bin 32+ absorbs every count >= 32).
Couplings: `--repairmen` caps the shared repair-crew pool (FIFO queue),
`--dependence` escalates the per-incident HEP with operator workload
(THERP), and `--domain-arrays`/`--domain-rate` add shelf-wide strikes.
`--failover-capacity` adds a shared disaster-recovery site with that many
slots (`inf` = ideal site): arrays that leave service fail over and serve
degraded from DR; beyond capacity they queue FIFO (`--failover-policy
loss` rejects instead, Erlang-loss style). `--failback-rate` tunes the
switch-back rate (default: the disk-change rate). `batch --keep-going`
continues past failing cells and marks them in status/error report
columns instead of aborting the campaign.
`serve` runs an overload-safe HTTP availability service on 127.0.0.1
(`--port 0` picks an ephemeral port): POST /v1/query answers one
estimate per request, exact CTMC queries inline, Monte-Carlo queries
through a bounded queue with admission control (full queue answers 503 +
Retry-After), per-request deadlines (expired answers a fixed 408), a
canonical-key result cache (replays are byte-identical), GET /health and
GET /metrics, and graceful drain on SIGTERM within `--drain-ms`.
`--lse-rate F --scrub-interval H` (a pair) attach the latent-sector-error
scrubbing model: every rebuild completion risks reading an unreadable
sector, routing the mission to data loss. `validate` and `fleet` then
report p(data loss), NOMDL (loss events per usable-capacity unit and
mission), and the mean time to first loss; a campaign spec's [lse]
section does the same for `batch` and adds the p_data_loss/nomdl_per_tb
report columns.
"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let parsed = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "solve" => flags_only(&parsed, &["lambda", "hep", "raid", "policy"])
            .map_err(Into::into)
            .and_then(cmd_solve),
        "sweep" => flags_only(&parsed, &["hep", "from", "to", "points"])
            .map_err(Into::into)
            .and_then(cmd_sweep),
        "compare" => flags_only(&parsed, &["lambda", "capacity"])
            .map_err(Into::into)
            .and_then(cmd_compare),
        "validate" => flags_only(
            &parsed,
            &[
                "lambda",
                "hep",
                "iterations",
                "seed",
                "threads",
                "variance",
                "bias",
                "levels",
                "effort",
                "lse-rate",
                "scrub-interval",
                "metrics",
                "metrics-format",
            ],
        )
        .map_err(Into::into)
        .and_then(cmd_validate),
        "fleet" => flags_only(
            &parsed,
            &[
                "arrays",
                "raid",
                "lambda",
                "hep",
                "iterations",
                "horizon",
                "seed",
                "threads",
                "repairmen",
                "dependence",
                "domain-arrays",
                "domain-rate",
                "failover-capacity",
                "failover-policy",
                "failback-rate",
                "lse-rate",
                "scrub-interval",
                "metrics",
                "metrics-format",
            ],
        )
        .map_err(Into::into)
        .and_then(cmd_fleet),
        "batch" => cmd_batch(&parsed),
        "serve" => flags_only(
            &parsed,
            &[
                "port",
                "workers",
                "queue-capacity",
                "default-deadline-ms",
                "drain-ms",
                "cache-capacity",
            ],
        )
        .map_err(Into::into)
        .and_then(cmd_serve),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        "version" | "--version" | "-V" => {
            println!("availsim {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        other => Err(format!("unknown command `{other}`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
