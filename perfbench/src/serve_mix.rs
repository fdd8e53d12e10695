//! The serve workload: an open-loop HTTP mix against an in-process
//! `availsim serve` with one Monte-Carlo worker.
//!
//! The mix, drawn from the workload seed: 60% exact CTMC queries with
//! jittered λ and hep (fresh keys, solved inline), 30% replays of keys
//! answered before the ladder (cache hits), and 10% Monte-Carlo queries
//! at the paper point with fresh seeds (cache misses that queue for the
//! worker). Two client slots send it on a schedule through a ladder of
//! offered rates; each request is timed from its due time.

use crate::layers;
use crate::loadgen::{run_open_loop, stratified_schedule, Sample};
use crate::oracle::{self, HORIZON};
use crate::stats::{median, ms, percentile, InputRng, Outcome};
use availsim_exp::spec::{parse_geometry_label, Policy};
use availsim_serve::cache::ResultCache;
use availsim_serve::exec;
use availsim_serve::json::Json;
use availsim_serve::{Query, ServeConfig, Server};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Offered rates, requests per second. The ladder stops at the first step
/// that misses the latency limit. Steps are 3× apart so that a capacity
/// swing of the host does not move the answer from one step to the next:
/// one MC worker saturates below 450 req/s (10% misses of ~25 ms each),
/// while 150 req/s stays within the limit even on a slowed host.
pub const LADDER: [u32; 4] = [150, 450, 1350, 4050];
/// The step whose latencies are the end-to-end latency metrics.
const REFERENCE: u32 = 150;
/// The p99 latency a step must meet, from due time.
pub const P99_LIMIT_MS: f64 = 250.0;
/// Client slots: at most this many requests (connections) in flight.
const SLOTS: usize = 2;
const MISS_ITERATIONS: u64 = 200_000;
const POOL_EXACT: usize = 24;
const POOL_MC: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Exact,
    Hit,
    Miss,
    Scrape,
}

/// What a query asks, for the checks.
#[derive(Debug, Clone, Copy)]
struct Model {
    raid: &'static str,
    policy: Policy,
    lambda: f64,
    hep: f64,
}

#[derive(Debug, Clone)]
struct Request {
    class: Class,
    model: Model,
    /// JSON body (empty for a metrics scrape).
    body: String,
    /// The whole HTTP request, rendered before the clock starts.
    wire: String,
}

impl Request {
    fn query(class: Class, model: Model, body: String) -> Request {
        let wire = format!(
            "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        Request {
            class,
            model,
            body,
            wire,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            class: Class::Scrape,
            model: PAPER_POINT,
            body: String::new(),
            wire: format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"),
        }
    }
}

const PAPER_POINT: Model = Model {
    raid: "r5-3",
    policy: Policy::Conventional,
    lambda: 3e-6,
    hep: 0.01,
};

fn exact_request(rng: &mut InputRng) -> Request {
    let raid = ["r1", "r5-3", "r5-7"][rng.below(3)];
    let (policy, model) = if rng.unit() < 0.5 {
        (Policy::Conventional, "markov-conventional")
    } else {
        (Policy::Failover, "markov-failover")
    };
    let lambda = 3e-6 * 2f64.powf(2.0 * rng.unit() - 1.0);
    let hep = [0.0, 0.001, 0.01][rng.below(3)] * (0.5 + rng.unit());
    let m = Model {
        raid,
        policy,
        lambda,
        hep,
    };
    let body = format!(
        "{{\"model\": \"{model}\", \"raid\": \"{raid}\", \"lambda\": {lambda:?}, \"hep\": {hep:?}}}"
    );
    Request::query(Class::Exact, m, body)
}

fn miss_request(rng: &mut InputRng) -> Request {
    let seed = rng.next_u64() >> 12;
    let m = PAPER_POINT;
    let body = format!(
        "{{\"model\": \"mc\", \"raid\": \"{}\", \"lambda\": {:?}, \"hep\": {:?}, \
         \"iterations\": {MISS_ITERATIONS}, \"horizon_hours\": {HORIZON:?}, \
         \"confidence\": {:?}, \"seed\": {seed}}}",
        m.raid,
        m.lambda,
        m.hep,
        oracle::CONFIDENCE
    );
    Request::query(Class::Miss, m, body)
}

/// The requests answered before the ladder; hits replay them.
fn pool(rng: &mut InputRng) -> Vec<Request> {
    let mut pool: Vec<Request> = (0..POOL_EXACT).map(|_| exact_request(rng)).collect();
    pool.extend((0..POOL_MC).map(|_| miss_request(rng)));
    pool
}

/// The classes of one block of ten requests: the mix's exact shares.
const BLOCK: [Class; 10] = [
    Class::Exact,
    Class::Exact,
    Class::Exact,
    Class::Exact,
    Class::Exact,
    Class::Exact,
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Miss,
];

/// `n` requests of the mix; every `scrape_every`-th is a `/metrics` scrape.
///
/// Classes are drawn as seed-shuffled blocks of ten with the exact shares,
/// not one by one: the shares hold in every block, so no seed bunches up
/// Monte-Carlo misses, whose clusters would otherwise decide the tail.
fn mix(
    rng: &mut InputRng,
    pool: &[Request],
    n: usize,
    scrape_every: Option<usize>,
) -> Vec<Request> {
    let mut block = BLOCK;
    (0..n)
        .map(|i| {
            if i % BLOCK.len() == 0 {
                for j in (1..block.len()).rev() {
                    block.swap(j, rng.below(j + 1));
                }
            }
            if scrape_every.is_some_and(|k| i % k == k - 1) {
                return Request::get("/metrics");
            }
            match block[i % BLOCK.len()] {
                Class::Hit => {
                    let mut hit = pool[rng.below(pool.len())].clone();
                    hit.class = Class::Hit;
                    hit
                }
                Class::Miss => miss_request(rng),
                _ => exact_request(rng),
            }
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Response {
    status: u16,
    hit: bool,
    body: String,
}

fn exchange(addr: SocketAddr, wire: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(wire.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed response");
    let text = String::from_utf8(raw).map_err(|_| bad())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let hit = head
        .lines()
        .any(|l| l.eq_ignore_ascii_case("x-availsim-cache: hit"));
    Ok(Response {
        status,
        hit,
        body: body.to_string(),
    })
}

/// A running in-process server.
struct Live {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<bool>>,
}

fn config() -> ServeConfig {
    ServeConfig {
        port: 0,
        workers: 1,
        cache_capacity: 1 << 16,
        ..ServeConfig::default()
    }
}

/// Binds, spawns the accept loop, and waits for `/health` to answer 200.
fn start() -> Result<Live, String> {
    let server = Server::bind(config()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = thread::spawn(move || server.run(&flag));
    let give_up = Instant::now() + Duration::from_secs(10);
    let health = Request::get("/health");
    loop {
        if matches!(exchange(addr, &health.wire), Ok(r) if r.status == 200) {
            return Ok(Live { addr, stop, thread });
        }
        if Instant::now() > give_up {
            return Err("server never became healthy".into());
        }
        thread::sleep(Duration::from_micros(200));
    }
}

impl Live {
    /// Stops the accept loop and drains; whether the drain was clean.
    fn stop(self) -> Result<bool, String> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.join() {
            Ok(Ok(drained)) => Ok(drained),
            Ok(Err(e)) => Err(format!("accept loop: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Set-up as an operator pays it: bind, spawn the worker, answer
/// `/health`. Median of repetitions.
fn time_set_up(reps: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let live = start()?;
        times.push(t.elapsed().as_secs_f64());
        live.stop()?;
    }
    Ok(median(&times))
}

struct Step {
    rate: u32,
    requests: Vec<Request>,
    samples: Vec<Sample>,
    responses: Vec<Option<Response>>,
}

impl Step {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| if s.ok { ms(s.latency()) } else { f64::INFINITY })
            .collect()
    }

    fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    /// Meets the limit: every request sent and answered, p99 within it.
    fn passes(&self, limit_ms: f64) -> bool {
        self.samples.len() == self.requests.len()
            && self.ok() == self.requests.len()
            && percentile(&self.latencies_ms(), 99.0) <= limit_ms
    }

    /// Completed requests per second over the step.
    fn achieved_rate(&self) -> f64 {
        let span = self
            .samples
            .iter()
            .map(|s| s.done)
            .max()
            .unwrap_or_default();
        self.ok() as f64 / span.as_secs_f64()
    }
}

fn run_step(
    addr: SocketAddr,
    rate: u32,
    requests: Vec<Request>,
    rng: &mut InputRng,
    limit_ms: f64,
) -> Step {
    let schedule = stratified_schedule(requests.len(), f64::from(rate), || rng.unit());
    let responses: Vec<Mutex<Option<Response>>> =
        requests.iter().map(|_| Mutex::new(None)).collect();
    let give_up = Duration::from_secs_f64(4.0 * limit_ms / 1e3);
    let samples = run_open_loop(&schedule, SLOTS, give_up, |i| {
        let response = exchange(addr, &requests[i].wire).ok();
        let ok = response.as_ref().is_some_and(|r| r.status == 200);
        *responses[i].lock().expect("response lock") = response;
        ok
    });
    Step {
        rate,
        requests,
        samples,
        responses: responses
            .into_iter()
            .map(|m| m.into_inner().expect("response lock"))
            .collect(),
    }
}

/// One pass over the ladder, stopping at the first step that fails.
struct Ladder {
    steps: Vec<Step>,
    /// Achieved rate at the highest step that met the limit.
    max_rate: f64,
    reference_p50_ms: f64,
}

fn run_ladder(
    addr: SocketAddr,
    rng: &mut InputRng,
    pool: &[Request],
    per_step: usize,
    limit_ms: f64,
    scrape_every: Option<usize>,
) -> Ladder {
    let mut ladder = Ladder {
        steps: vec![],
        max_rate: 0.0,
        reference_p50_ms: f64::NAN,
    };
    for rate in LADDER {
        let requests = mix(rng, pool, per_step, scrape_every);
        let step = run_step(addr, rate, requests, rng, limit_ms);
        let passed = step.passes(limit_ms);
        let lat = step.latencies_ms();
        eprintln!(
            "  {rate:>5} req/s: sent {}/{} ok {} p50 {:.2} ms p99 {:.2} ms -> {}",
            step.samples.len(),
            step.requests.len(),
            step.ok(),
            percentile(&lat, 50.0),
            percentile(&lat, 99.0),
            if passed {
                "meets the limit"
            } else {
                "misses the limit"
            }
        );
        if rate == REFERENCE {
            ladder.reference_p50_ms = percentile(&lat, 50.0);
        }
        if passed {
            ladder.max_rate = step.achieved_rate();
        }
        ladder.steps.push(step);
        if !passed {
            break;
        }
    }
    ladder
}

/// `"unavailability": x` or `"ci_half_width": x` from a response body.
fn field(body: &str, name: &str) -> Option<f64> {
    let tail = &body[body.find(&format!("\"{name}\":"))? + name.len() + 3..];
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    tail[..end].trim().parse().ok()
}

/// Checks every answer: exact ones against a direct CTMC solve, hits
/// byte for byte against the answer that filled the cache, misses
/// against the exact interval availability. Returns failed requests.
fn check_answers(
    requests: &[Request],
    responses: &[Option<Response>],
    filled: &HashMap<String, String>,
    mc_exact: &oracle::Exact,
) -> Vec<String> {
    let mut failures = vec![];
    for (req, resp) in requests.iter().zip(responses) {
        let Some(resp) = resp else { continue };
        if resp.status != 200 {
            failures.push(format!(
                "{:?} answered {}: {}",
                req.class, resp.status, resp.body
            ));
            continue;
        }
        let u = field(&resp.body, "unavailability").unwrap_or(f64::NAN);
        let ok = match req.class {
            Class::Scrape => resp.body.contains("availsim_serve_requests_total"),
            Class::Hit => resp.hit && filled.get(&req.body) == Some(&resp.body),
            Class::Exact => {
                let m = req.model;
                let direct = parse_geometry_label(m.raid).and_then(|raid| {
                    oracle::steady_unavailability(raid, m.policy, m.lambda, m.hep)
                });
                !resp.hit && direct.is_ok_and(|d| oracle::exact_agrees(u, d))
            }
            Class::Miss => {
                let hw = field(&resp.body, "ci_half_width").unwrap_or(f64::NAN);
                !resp.hit && oracle::mc_agrees(u, hw, mc_exact, MISS_ITERATIONS, HORIZON)
            }
        };
        if !ok {
            failures.push(format!(
                "{:?} answer failed its check: {}",
                req.class, resp.body
            ));
        }
    }
    failures
}

/// The server's own counters, from `/metrics`.
fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let r = exchange(addr, &Request::get("/metrics").wire).map_err(|e| e.to_string())?;
    Ok(r.body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect())
}

fn median_us(mut f: impl FnMut(usize) -> bool, n: usize) -> f64 {
    let mut times = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        if f(i) {
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&times)
}

/// Per-layer timings of the reference step's requests, re-run from
/// outside after the server stopped.
fn layer_metrics(
    out: &mut Outcome,
    step: &Step,
    pool: &[Request],
    rng: &mut InputRng,
) -> Result<(), String> {
    let reqs: Vec<&Request> = step
        .requests
        .iter()
        .filter(|r| r.class != Class::Scrape)
        .collect();
    let docs: Vec<Json> = reqs
        .iter()
        .map(|r| Json::parse(&r.body))
        .collect::<Result<_, _>>()?;
    let queries: Vec<Query> = docs
        .iter()
        .map(Query::from_json)
        .collect::<Result<_, _>>()?;
    let keys: Vec<String> = queries.iter().map(Query::canonical_key).collect();
    let cache = ResultCache::new(1 << 16);
    for q in pool.iter().filter_map(|r| Json::parse(&r.body).ok()) {
        if let Ok(q) = Query::from_json(&q) {
            cache.insert(&q.canonical_key(), "{}");
        }
    }
    let parse_us = median_us(
        |i| Json::parse(black_box(&reqs[i].body)).is_ok(),
        reqs.len(),
    );
    let decode_us = median_us(
        |i| Query::from_json(black_box(&docs[i])).is_ok_and(|q| exec::validate(&q).is_ok()),
        reqs.len(),
    );
    let key_us = median_us(
        |i| !black_box(queries[i].canonical_key()).is_empty(),
        reqs.len(),
    );
    let get_us = median_us(
        |i| {
            black_box(cache.get(&keys[i]));
            true
        },
        reqs.len(),
    );
    let exact_idx: Vec<usize> = (0..reqs.len())
        .filter(|&i| reqs[i].class == Class::Exact)
        .collect();
    let exec_exact_us = median_us(
        |i| exec::execute(&queries[exact_idx[i]], None).is_ok(),
        exact_idx.len(),
    );
    let solve_us = median_us(
        |i| {
            let m = reqs[exact_idx[i]].model;
            parse_geometry_label(m.raid)
                .and_then(|raid| oracle::steady_unavailability(raid, m.policy, m.lambda, m.hep))
                .is_ok()
        },
        exact_idx.len(),
    );
    let fresh: Vec<Query> = (0..5)
        .map(|_| Query::from_json(&Json::parse(&miss_request(rng).body)?))
        .collect::<Result<_, _>>()?;
    let mc_ms = median_us(|i| exec::execute(&fresh[i], None).is_ok(), fresh.len()) / 1e3;

    let front_ms = (parse_us + decode_us + key_us + get_us) / 1e3;
    for (class, name, work_ms) in [
        (Class::Exact, "exact", front_ms + exec_exact_us / 1e3),
        (Class::Hit, "hit", front_ms),
        (Class::Miss, "miss", front_ms + mc_ms),
    ] {
        let service: Vec<f64> = step
            .samples
            .iter()
            .filter(|s| s.ok && step.requests[s.index].class == class)
            .map(|s| ms(s.service()))
            .collect();
        out.metric(
            format!("serve.server.unaccounted_ms.{name}"),
            median(&service) - work_ms,
            "ms",
        );
    }
    out.metric("serve.json.parse_us", parse_us, "us");
    out.metric("serve.query.decode_us", decode_us, "us");
    out.metric("serve.query.key_us", key_us, "us");
    out.metric("serve.cache.get_us", get_us, "us");
    out.metric("ctmc.exact_solve_us", solve_us, "us");
    out.metric("serve.exec.mc_ms", mc_ms, "ms");
    Ok(())
}

struct Pass {
    ladder: Ladder,
    /// Whether every warm-up answer was computed, not replayed.
    warmed_cold: bool,
    counters: HashMap<String, f64>,
    drained: bool,
}

/// Starts a server, warms the pool into its cache, runs the ladder, and
/// stops it. `filled` collects the body that first answered each key.
fn serve_pass(
    rng: &mut InputRng,
    pool: &[Request],
    filled: &mut HashMap<String, String>,
    per_step: usize,
    limit_ms: f64,
    scrape_every: Option<usize>,
) -> Result<Pass, String> {
    let live = start()?;
    let mut warmed_cold = true;
    for req in pool {
        let r = exchange(live.addr, &req.wire).map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up answered {}: {}", r.status, r.body));
        }
        warmed_cold &= !r.hit;
        filled.entry(req.body.clone()).or_insert(r.body);
    }
    let ladder = run_ladder(live.addr, rng, pool, per_step, limit_ms, scrape_every);
    let counters = scrape(live.addr)?;
    let drained = live.stop()?;
    Ok(Pass {
        ladder,
        warmed_cold,
        counters,
        drained,
    })
}

fn account(
    out: &mut Outcome,
    pass: &Pass,
    filled: &HashMap<String, String>,
    mc_exact: &oracle::Exact,
) {
    for step in &pass.ladder.steps {
        let failures = check_answers(&step.requests, &step.responses, filled, mc_exact);
        for f in failures.iter().take(5) {
            eprintln!("check failed: {f}");
        }
        // Failures cover every non-200 answer; add the requests that got
        // no answer at all.
        let lost = step.responses.iter().filter(|r| r.is_none()).count()
            - (step.requests.len() - step.samples.len());
        out.work(step.samples.len() as u64, (failures.len() + lost) as u64);
    }
    out.check(
        "warm-up answers were computed, not cached",
        pass.warmed_cold,
    );
    out.check("server drained clean", pass.drained);
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let limit_ms = P99_LIMIT_MS;
    let mut out = Outcome::default();
    let mut rng = InputRng::new(seed);
    let pool = pool(&mut rng);
    // At least 1000 requests a step, so that ten lie beyond the p99.
    let per_step = 1000usize.max((100.0 * seconds) as usize);
    let raid = parse_geometry_label(PAPER_POINT.raid)?;
    let mc_exact = oracle::interval_unavailability(
        raid,
        PAPER_POINT.policy,
        PAPER_POINT.lambda,
        PAPER_POINT.hep,
        HORIZON,
    )?;

    let mut filled = HashMap::new();
    let plain = serve_pass(&mut rng, &pool, &mut filled, per_step, limit_ms, None)?;
    account(&mut out, &plain, &filled, &mc_exact);
    // Timed after the ladder, on warmed-up cores.
    let setup_s = time_set_up(31)?;
    let max_rate = plain.ladder.max_rate;
    let p50 = plain.ladder.reference_p50_ms;

    let queries: Vec<&Request> = plain
        .ladder
        .steps
        .iter()
        .flat_map(|s| s.samples.iter().map(|x| &s.requests[x.index]))
        .filter(|r| r.class != Class::Scrape)
        .collect();
    let share =
        |c: Class| queries.iter().filter(|r| r.class == c).count() as f64 / queries.len() as f64;
    let hits = plain
        .ladder
        .steps
        .iter()
        .flat_map(|s| s.responses.iter().flatten())
        .filter(|r| r.hit)
        .count() as f64;
    let hit_ratio = hits / queries.len() as f64;
    eprintln!(
        "mix: exact {:.3} hit {:.3} miss {:.3}; cache hit ratio {hit_ratio:.3}; max rate {max_rate:.1} req/s",
        share(Class::Exact),
        share(Class::Hit),
        share(Class::Miss)
    );

    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", max_rate, "1/s");
    out.metric("latency_ms", p50, "ms");
    if !trace {
        return Ok(out);
    }

    let traced = serve_pass(&mut rng, &pool, &mut filled, per_step, limit_ms, Some(50))?;
    account(&mut out, &traced, &filled, &mc_exact);
    let mut layer = Outcome::default();
    layer.metric(
        "trace.overhead_throughput_pct",
        (max_rate - traced.ladder.max_rate) / max_rate * 100.0,
        "%",
    );
    layer.metric(
        "trace.overhead_latency_pct",
        (traced.ladder.reference_p50_ms - p50) / p50 * 100.0,
        "%",
    );
    let reference = plain
        .ladder
        .steps
        .iter()
        .find(|s| s.rate == REFERENCE)
        .ok_or("the reference step did not run")?;
    let lateness: Vec<f64> = reference.samples.iter().map(|s| ms(s.lateness())).collect();
    layer.metric("loadgen.late_p99_ms", percentile(&lateness, 99.0), "ms");
    layer.metric(
        "loadgen.ref_p99_ms",
        percentile(&reference.latencies_ms(), 99.0),
        "ms",
    );
    for step in &plain.ladder.steps {
        let ok = step.ok();
        layer.metric(
            format!("loadgen.sent.r{}", step.rate),
            step.samples.len() as f64,
            "count",
        );
        layer.metric(format!("loadgen.ok.r{}", step.rate), ok as f64, "count");
        layer.metric(
            format!("loadgen.failed.r{}", step.rate),
            (step.samples.len() - ok) as f64,
            "count",
        );
    }
    layer.metric("serve.cache.hit_ratio", hit_ratio, "ratio");
    let c = |name: &str| plain.counters.get(name).copied().unwrap_or(0.0);
    layer.metric(
        "serve.server.queue_high_water",
        c("availsim_serve_queue_depth_high_water"),
        "count",
    );
    layer.metric(
        "serve.server.sheds",
        c("availsim_serve_sheds_total"),
        "count",
    );
    layer.metric(
        "serve.server.deadline_expiries",
        c("availsim_serve_deadline_expiries_total"),
        "count",
    );
    let missions = c("availsim_missions_total").max(1.0);
    layer.metric(
        "core.mc.transitions_per_mission",
        c("availsim_jump_transitions_total") / missions,
        "count",
    );
    layer.metric(
        "core.mc.rng_draws_per_mission",
        (c("availsim_rng_exp_draws_total")
            + c("availsim_rng_uniform_draws_total")
            + c("availsim_rng_lifetime_draws_total"))
            / missions,
        "count",
    );
    let split = layers::mc_split(Policy::Conventional, seed)?;
    layer.metric(
        "core.mc.kernel_ns_per_mission.conventional",
        split.kernel_ns,
        "ns",
    );
    layer.metric(
        "core.mc.overhead_ns_per_mission.conventional",
        split.run_ns - split.kernel_ns,
        "ns",
    );
    layer.metric("sim.rng.exp_draw_ns", layers::exp_draw_ns(seed), "ns");
    layer_metrics(&mut layer, reference, &pool, &mut rng)?;
    out.metrics = layer.metrics;
    Ok(out)
}
