//! End-to-end and per-layer benchmark of availsim.
//!
//! ```text
//! perfbench --workload <paper_campaign|fleet_dr|serve_mix> --seed N \
//!           --seconds S --trace <0|1>
//! ```
//!
//! Progress goes to stderr. The last line on stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics ([`END_TO_END`]); traced runs report the
//! per-layer metrics ([`per_layer`]), timed from outside around calls
//! into the crates' public functions. A layer a workload does not use
//! reports 0.

mod campaign;
mod layers;
mod loadgen;
mod oracle;
mod serve_mix;
mod stats;

use stats::Outcome;

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

const LAYERS: [(&str, &str); 38] = [
    ("exp.spec.parse_us", "us"),
    ("exp.plan.expand_us", "us"),
    ("exp.plan.cells", "count"),
    ("exp.run.worker_util", "ratio"),
    ("exp.run.cell_max_ms", "ms"),
    ("exp.run.cells_failed", "count"),
    ("exp.report.json_us", "us"),
    ("exp.report.bytes", "bytes"),
    ("core.mc.transitions_per_mission", "count"),
    ("core.mc.rng_draws_per_mission", "count"),
    ("core.mc.kernel_ns_per_mission.conventional", "ns"),
    ("core.mc.kernel_ns_per_mission.failover", "ns"),
    ("core.mc.overhead_ns_per_mission.conventional", "ns"),
    ("core.mc.overhead_ns_per_mission.failover", "ns"),
    ("sim.rng.exp_draw_ns", "ns"),
    ("sim.queue.fired_per_mission", "count"),
    ("sim.queue.depth_high_water", "count"),
    ("core.fleet.ns_per_event", "ns"),
    ("core.fleet.crew_waits", "count"),
    ("core.fleet.failovers", "count"),
    ("core.fleet.lse_hits", "count"),
    ("ctmc.exact_solve_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.query.decode_us", "us"),
    ("serve.query.key_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.server.unaccounted_ms.exact", "ms"),
    ("serve.server.unaccounted_ms.hit", "ms"),
    ("serve.server.unaccounted_ms.miss", "ms"),
    ("serve.exec.mc_ms", "ms"),
    ("serve.server.queue_high_water", "count"),
    ("serve.server.sheds", "count"),
    ("serve.server.deadline_expiries", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.ref_p99_ms", "ms"),
    ("trace.overhead_throughput_pct", "%"),
    ("trace.overhead_latency_pct", "%"),
];

/// Every per-layer metric with its unit: the fixed layers plus the
/// generator's sent/ok/failed counts at each ladder step.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for rate in serve_mix::LADDER {
        for what in ["sent", "ok", "failed"] {
            all.push((format!("loadgen.{what}.r{rate}"), "count"));
        }
    }
    all
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set of this process (the server runs in-process), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Puts the metrics in the declared order and checks that the workload
/// measured each one; per-layer metrics of layers the workload does not
/// use are 0.
fn finish(mut out: Outcome, trace: bool) -> Outcome {
    let names: Vec<(String, &'static str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut ordered = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = match out.get(&name) {
            Some(v) => v,
            None if trace => 0.0,
            None => {
                out.check(&format!("metric {name} was measured"), false);
                f64::NAN
            }
        };
        ordered.push((name, value, unit));
    }
    let extra: Vec<String> = out
        .metrics
        .iter()
        .filter(|(n, _, _)| !ordered.iter().any(|(o, _, _)| o == n))
        .map(|(n, _, _)| n.clone())
        .collect();
    for name in extra {
        out.check(&format!("metric {name} is declared"), false);
    }
    out.metrics = ordered;
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper_campaign" => campaign::run(
            &campaign::paper_campaign(args.seed),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "fleet_dr" => campaign::run(
            &campaign::fleet_dr(args.seed),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve_mix" => serve_mix::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    println!("{}", finish(out, args.trace).to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut out = Outcome::default();
        out.metric("setup_s", 0.1, "s");
        let out = finish(out, false);
        assert!(!out.correct());
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        use availsim_serve::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let Some(Json::Arr(list)) = doc.get(key) else {
            panic!("{key} is not a list");
        };
        list.iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_reported() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn benchmark_json_records_the_serve_latency_limit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let limit = format!("p99 limit {} ms", serve_mix::P99_LIMIT_MS);
        assert!(text.contains(&limit), "BENCHMARK.json must say {limit:?}");
    }

    #[test]
    fn unused_layers_report_zero_and_the_run_stays_correct() {
        let mut out = Outcome::default();
        out.metric("exp.plan.cells", 12.0, "count");
        let out = finish(out, true);
        assert!(out.correct());
        assert_eq!(out.metrics.len(), per_layer().len());
        assert_eq!(out.get("serve.cache.hit_ratio"), Some(0.0));
    }
}
