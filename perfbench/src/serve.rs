//! The daemon workloads, `serve-keepalive` and `serve-fresh-conn`: an
//! in-process `mlscale_serve::Server` on loopback, driven by a closed
//! loop of `nproc` client threads posting scenarios to `/sweep`.

use crate::inputs;
use crate::stats::{median, tail, Report};
use crate::sweep::{replay, Layers};
use crate::trace::Tracer;
use crate::{Config, Workload};
use mlscale_core::straggler::OrderStatCachePool;
use mlscale_scenario::{run_pooled, ScenarioSpec};
use mlscale_serve::http::read_request;
use mlscale_serve::Server;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One request in this many carries a cold body (`serve-keepalive`).
const COLD_EVERY: u32 = 4;
/// Grid points of a cold body (2 collectives × 2 latencies).
const COLD_POINTS: usize = 4;
/// Retry budget per request: a `503` shed or a dropped connection backs
/// off with seeded jitter (start `BACKOFF_BASE_MS`, doubling to
/// `BACKOFF_CAP_MS`) and tries again; after `MAX_ATTEMPTS` the request
/// counts as failed.
const MAX_ATTEMPTS: u32 = 8;
const BACKOFF_BASE_MS: u64 = 5;
const BACKOFF_CAP_MS: u64 = 200;
/// Cold replies per client kept for the traced replay.
const KEPT_COLD: usize = 4;
/// Parses per request text when timing the HTTP parser.
const PARSE_REPS: usize = 200;

/// What the clients post, with the grid points each body covers, and
/// the first reply seen for each preset (from any server of the run):
/// every later reply must match it byte for byte.
struct Bodies {
    presets: Vec<String>,
    preset_points: Vec<usize>,
    first_reply: Mutex<Vec<Option<String>>>,
}

impl Bodies {
    /// Records `reply` as preset `i`'s first reply, or compares it with
    /// the one recorded.
    fn check(&self, i: usize, reply: &str) -> Result<(), String> {
        // A client that panicked while holding the lock has already
        // failed the run (its panic is re-raised at join).
        let mut first = self
            .first_reply
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match &first[i] {
            Some(want) if want != reply => Err(format!(
                "preset {} answered with different bytes",
                inputs::HOT_PRESETS[i]
            )),
            Some(_) => Ok(()),
            None => {
                first[i] = Some(reply.to_string());
                Ok(())
            }
        }
    }
}

/// One request as the client saw it.
struct Sample {
    sent: Instant,
    latency: Duration,
    /// Time to open the connection it went out on (zero when reused).
    connect: Duration,
    /// Server-side handling time from `x-mlscale-micros`.
    micros: u64,
    hit: bool,
}

/// One client's results. Untraced runs keep only what the end-to-end
/// metrics need, in 4 bytes a request, so the benchmark's own buffers
/// barely move `peak_rss_mb` as throughput changes; traced runs keep a
/// full [`Sample`] per request.
#[derive(Default)]
struct ClientOut {
    latency_ms: Vec<f32>,
    miss_ms: Vec<f32>,
    points: u64,
    samples: Vec<Sample>,
    connects: Vec<Duration>,
    attempted: u64,
    failed: u64,
    retries: u64,
    shed: u64,
    mismatches: Vec<String>,
    /// `(body, reply)` of the first few cold requests, for the replay.
    cold: Vec<(String, String)>,
}

struct Reply {
    status: u16,
    micros: u64,
    hit: bool,
    body: String,
}

fn request_bytes(body: &str, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST /sweep HTTP/1.1\r\nHost: perfbench\r\n{connection}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A client connection: write half plus buffered read half.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn exchange(&mut self, request: &str) -> std::io::Result<Reply> {
        self.writer.write_all(request.as_bytes())?;
        read_reply(&mut self.reader)
    }
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> std::io::Result<Reply> {
    let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let (mut length, mut micros, mut hit) = (0usize, 0u64, false);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| bad(format!("bad header {header:?}")))?;
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                length = value
                    .parse()
                    .map_err(|_| bad(format!("bad length {value:?}")))?;
            }
            "x-mlscale-micros" => {
                micros = value
                    .parse()
                    .map_err(|_| bad(format!("bad micros {value:?}")))?;
            }
            "x-mlscale-cache" => hit = value == "hit",
            _ => {}
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(Reply {
        status,
        micros,
        hit,
        body: String::from_utf8(body).map_err(|_| bad("reply is not UTF-8".into()))?,
    })
}

/// One request under the retry budget. Keep-alive clients reuse `conn`;
/// fresh-connection clients open (and time) a new one per attempt.
fn post(
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    request: &str,
    fresh: bool,
    rng: &mut StdRng,
    out: &mut ClientOut,
) -> Option<(Reply, Duration)> {
    let mut delay_ms = BACKOFF_BASE_MS;
    let mut connect = Duration::ZERO;
    for attempt in 0..MAX_ATTEMPTS {
        if attempt > 0 {
            out.retries += 1;
            std::thread::sleep(Duration::from_millis(
                delay_ms + rng.gen_range(0..=delay_ms),
            ));
            delay_ms = (delay_ms * 2).min(BACKOFF_CAP_MS);
        }
        if conn.is_none() {
            // lint: allow(determinism): connection set-up time is a measured layer
            let started = Instant::now();
            match Conn::open(addr) {
                Ok(c) => {
                    connect = started.elapsed();
                    out.connects.push(connect);
                    *conn = Some(c);
                }
                Err(_) => continue,
            }
        }
        let Some(live) = conn.as_mut() else { continue };
        let result = live.exchange(request);
        if fresh {
            *conn = None;
        }
        match result {
            Ok(reply) if reply.status == 503 => {
                out.shed += 1;
                *conn = None;
            }
            Ok(reply) => return Some((reply, connect)),
            Err(_) => *conn = None,
        }
    }
    None
}

/// One client's closed loop until `deadline`.
fn client(
    cfg: &Config,
    addr: SocketAddr,
    bodies: &Bodies,
    id: u64,
    deadline: Instant,
) -> ClientOut {
    let fresh = cfg.workload == Workload::ServeFreshConn;
    let mut rng = inputs::rng(cfg.seed, 100 + id);
    let mut conn = None;
    let mut out = ClientOut::default();
    let mut cold_index = 0u64;
    // lint: allow(determinism): the closed loop runs until its deadline
    while Instant::now() < deadline {
        let cold = !fresh && rng.gen_range(0..COLD_EVERY) == 0;
        let (body, preset, points) = if cold {
            cold_index += 1;
            (
                inputs::cold_body(cfg.seed, id, cold_index),
                None,
                COLD_POINTS,
            )
        } else {
            let i = rng.gen_range(0..bodies.presets.len());
            (bodies.presets[i].clone(), Some(i), bodies.preset_points[i])
        };
        let request = request_bytes(&body, fresh);
        out.attempted += 1;
        // lint: allow(determinism): per-request latency sample
        let sent = Instant::now();
        let Some((reply, connect)) = post(addr, &mut conn, &request, fresh, &mut rng, &mut out)
        else {
            out.failed += 1;
            continue;
        };
        let latency = sent.elapsed();
        if reply.status != 200 {
            out.failed += 1;
            out.mismatches
                .push(format!("status {}: {}", reply.status, reply.body));
            continue;
        }
        match preset {
            Some(i) => {
                if let Err(e) = bodies.check(i, &reply.body) {
                    out.mismatches.push(e);
                }
            }
            None if out.cold.len() < KEPT_COLD => out.cold.push((body, reply.body.clone())),
            None => {}
        }
        if cfg.trace {
            out.samples.push(Sample {
                sent,
                latency,
                connect,
                micros: reply.micros,
                hit: reply.hit,
            });
        } else {
            let ms = (latency.as_secs_f64() * 1e3) as f32;
            out.latency_ms.push(ms);
            if !reply.hit {
                out.miss_ms.push(ms);
            }
            out.points += points as u64;
        }
    }
    out
}

/// Runs `clients` client threads against `addr` for `budget`.
fn closed_loop(
    cfg: &Config,
    addr: SocketAddr,
    bodies: &Bodies,
    budget: Duration,
) -> (Vec<ClientOut>, f64) {
    // lint: allow(determinism): the benchmark's measurement window
    let start = Instant::now();
    let deadline = start + budget;
    // lint: allow(par-only-threads): client threads drive the server from outside its own pool
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients as u64)
            .map(|id| {
                // lint: allow(par-only-threads): one socket client per thread is the measurement harness
                scope.spawn(move || client(cfg, addr, bodies, id, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect::<Vec<_>>()
    });
    (outs, start.elapsed().as_secs_f64())
}

/// A running server and the handle that drains it.
struct Running {
    addr: SocketAddr,
    drain: mlscale_serve::DrainHandle,
}

impl Drop for Running {
    fn drop(&mut self) {
        self.drain.request_shutdown();
    }
}

/// Bind and start a server sized to the engine, then warm it up: every
/// preset once, on one keep-alive connection (`serve-keepalive`) or each
/// on a fresh one (`serve-fresh-conn`). The presets then sit in the
/// response cache. Returns the server and the warm-up requests, which
/// all missed the cache.
fn setup_once(cfg: &Config, bodies: &Bodies, rep: u64) -> Result<(Running, Vec<Sample>), String> {
    let server = Server::bind("127.0.0.1:0", cfg.threads).map_err(|e| format!("bind: {e}"))?;
    let drain = server.drain_handle();
    let addr = server.start().map_err(|e| format!("start: {e}"))?;
    let running = Running { addr, drain };
    let fresh = cfg.workload == Workload::ServeFreshConn;
    let mut conn = None;
    let mut rng = inputs::rng(cfg.seed, 50 + rep);
    let mut out = ClientOut::default();
    let mut warm = Vec::new();
    for (i, body) in bodies.presets.iter().enumerate() {
        let request = request_bytes(body, fresh);
        // lint: allow(determinism): warm-up latency sample
        let sent = Instant::now();
        let (reply, connect) = post(addr, &mut conn, &request, fresh, &mut rng, &mut out)
            .ok_or("warm-up request failed")?;
        if reply.status != 200 || reply.hit {
            return Err(format!(
                "warm-up of {} answered {} (cache hit: {}): {}",
                inputs::HOT_PRESETS[i],
                reply.status,
                reply.hit,
                reply.body
            ));
        }
        bodies.check(i, &reply.body)?;
        warm.push(Sample {
            sent,
            latency: sent.elapsed(),
            connect,
            micros: reply.micros,
            hit: false,
        });
    }
    Ok((running, warm))
}

/// Reads the presets and counts their grid points.
fn load_presets() -> Result<(Vec<String>, Vec<usize>), String> {
    let presets = inputs::hot_presets()?;
    let points = presets
        .iter()
        .map(|p| {
            ScenarioSpec::from_json(p)
                .and_then(|s| s.grid_len())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((presets, points))
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut bodies = Bodies {
        presets: Vec::new(),
        preset_points: Vec::new(),
        first_reply: Mutex::new(vec![None; inputs::HOT_PRESETS.len()]),
    };
    let mut times = Vec::new();
    let mut running = None;
    let mut warm = Vec::new();
    for rep in 0..crate::SETUP_REPS as u64 {
        // The previous set-up's server is asked to drain; its threads
        // are idle from here on.
        drop(running.take());
        // lint: allow(determinism): the benchmark times set-up by design
        let start = Instant::now();
        (bodies.presets, bodies.preset_points) = load_presets()?;
        let (server, samples) = setup_once(cfg, &bodies, rep)?;
        times.push(start.elapsed().as_secs_f64());
        running = Some(server);
        warm.extend(samples);
    }
    let running = running.ok_or("no set-up ran")?;
    let setup_s = median(&times);
    println!(
        "# {}: server with {} worker thread(s), {} client thread(s)",
        cfg.workload.name(),
        cfg.threads,
        cfg.clients
    );

    let mut report = Report::default();
    let mut problems = Vec::new();
    if !cfg.trace {
        let (outs, elapsed) = closed_loop(cfg, running.addr, &bodies, cfg.budget());
        let latencies_ms: Vec<f64> = outs
            .iter()
            .flat_map(|o| &o.latency_ms)
            .map(|&ms| f64::from(ms))
            .collect();
        let cold_ms: Vec<f64> = match cfg.workload {
            Workload::ServeKeepalive => outs
                .iter()
                .flat_map(|o| &o.miss_ms)
                .map(|&ms| f64::from(ms))
                .collect(),
            _ => warm.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect(),
        };
        let (tail_ms, pct) = tail(&latencies_ms);
        let (attempted, failed) = totals(&outs);
        println!(
            "# {} requests attempted, {} failed (failed_ratio {:.6}); latency_tail_ms is p{pct:.2} of {} samples; cold_p50_ms over {} cache misses",
            attempted,
            failed,
            failed as f64 / attempted.max(1) as f64,
            latencies_ms.len(),
            cold_ms.len()
        );
        if cold_ms.is_empty() {
            problems.push("no request missed the response cache".to_string());
        }
        report.push("setup_s", setup_s, "s");
        report.push(
            "points_per_s",
            outs.iter().map(|o| o.points).sum::<u64>() as f64 / elapsed,
            "1/s",
        );
        report.push("req_per_s", latencies_ms.len() as f64 / elapsed, "1/s");
        report.push("latency_p50_ms", median(&latencies_ms), "ms");
        report.push("latency_tail_ms", tail_ms, "ms");
        report.push("cold_p50_ms", median(&cold_ms), "ms");
        report.push("peak_rss_mb", crate::stats::peak_rss_mb()?, "MB");
        report.attempted = attempted;
        report.failed = failed;
        collect_problems(&outs, &mut problems);
    } else {
        traced(cfg, &running, &bodies, &warm, &mut report, &mut problems)?;
    }
    drop(running);
    report.correct = problems.is_empty();
    for p in &problems {
        eprintln!("{}: check failed: {p}", cfg.workload.name());
    }
    Ok(report)
}

fn totals(outs: &[ClientOut]) -> (u64, u64) {
    (
        outs.iter().map(|o| o.attempted).sum(),
        outs.iter().map(|o| o.failed).sum(),
    )
}

fn collect_problems(outs: &[ClientOut], problems: &mut Vec<String>) {
    let (_, failed) = totals(outs);
    if failed > 0 {
        problems.push(format!(
            "{failed} request(s) got no 200 within the retry budget"
        ));
    }
    for o in outs {
        problems.extend(o.mismatches.iter().take(3).cloned());
    }
}

/// The traced run: half the budget untraced (the base), half traced —
/// each request becomes a span with its connection set-up and the
/// server's handling as children — then the layers behind a cache miss
/// (spec validation, engine, the daemon's JSON rendering) and the HTTP
/// parser are replayed on the bodies that missed.
fn traced(
    cfg: &Config,
    running: &Running,
    bodies: &Bodies,
    warm: &[Sample],
    report: &mut Report,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let half = cfg.budget() / 2;
    let (base, _) = closed_loop(cfg, running.addr, bodies, half);
    let mut tracer = Tracer::new();
    let (outs, _) = closed_loop(cfg, running.addr, bodies, half);
    collect_problems(&base, problems);
    collect_problems(&outs, problems);

    let mut op = 0u64;
    let (mut staged, mut traced_s, mut wait_ms) = (Vec::new(), Vec::new(), Vec::new());
    for s in outs.iter().flat_map(|o| &o.samples) {
        op += 1;
        let handle = Duration::from_micros(s.micros);
        let root = tracer.record("request", op, None, s.sent, s.latency);
        if !s.connect.is_zero() {
            tracer.record("serve.connect", op, Some(root), s.sent, s.connect);
        }
        tracer.record(
            "serve.handle",
            op,
            Some(root),
            s.sent + s.latency.saturating_sub(handle),
            handle,
        );
        staged.push((s.connect + handle).as_secs_f64());
        traced_s.push(s.latency.as_secs_f64());
        wait_ms.push(s.latency.saturating_sub(handle).as_secs_f64() * 1e3);
    }
    let hits = outs
        .iter()
        .flat_map(|o| &o.samples)
        .filter(|s| s.hit)
        .count() as f64;
    let lookups = outs.iter().map(|o| o.samples.len()).sum::<usize>() as f64;
    let hot_us: Vec<f64> = outs
        .iter()
        .flat_map(|o| &o.samples)
        .filter(|s| s.hit)
        .map(|s| s.micros as f64)
        .collect();
    // As for cold_p50_ms: the loop's misses, or the warm-up requests of
    // serve-fresh-conn, whose loop only repeats cached presets.
    let cold_us: Vec<f64> = match cfg.workload {
        Workload::ServeKeepalive => outs
            .iter()
            .flat_map(|o| &o.samples)
            .filter(|s| !s.hit)
            .map(|s| s.micros as f64)
            .collect(),
        _ => warm.iter().map(|s| s.micros as f64).collect(),
    };
    let untraced_s = median(
        &base
            .iter()
            .flat_map(|o| &o.samples)
            .map(|s| s.latency.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    // Replay what a miss costs on the bodies that missed: the cold
    // bodies (keep-alive) or the presets' first requests (fresh
    // connections).
    let missed: Vec<(String, String)> = match cfg.workload {
        Workload::ServeKeepalive => outs.iter().flat_map(|o| o.cold.iter().cloned()).collect(),
        _ => {
            let first = bodies
                .first_reply
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            bodies
                .presets
                .iter()
                .zip(first.iter())
                .filter_map(|(body, reply)| Some((body.clone(), reply.clone()?)))
                .collect()
        }
    };
    let mut layers = Layers::default();
    let (mut validate, mut engine, mut render, mut points, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (n, (body, reply)) in missed.iter().enumerate() {
        let op = 1_000_000 + n as u64;
        let root = tracer.open("miss", op, None);
        let (spec, id) = tracer.span("spec.validate", op, Some(root), || {
            ScenarioSpec::from_json(body)
        });
        validate.push(tracer.seconds(id));
        let spec = spec.map_err(|e| e.to_string())?;
        let pool = OrderStatCachePool::new();
        let (outcome, id) = tracer.span("engine.eval", op, Some(root), || run_pooled(&spec, &pool));
        engine.push(tracer.seconds(id));
        let outcome = outcome.map_err(|e| e.to_string())?;
        points.push(outcome.points.len() as f64);
        let (rendered, id) = tracer.span("render.json", op, Some(root), || {
            serde_json::to_string_pretty(&Value::Map(vec![
                ("name".to_string(), Value::Str(outcome.name.clone())),
                (
                    "points".to_string(),
                    Value::Seq(outcome.points.iter().map(Serialize::to_value).collect()),
                ),
                ("rollup".to_string(), outcome.rollup.to_value()),
            ]))
        });
        render.push(tracer.seconds(id));
        let rendered = rendered.map_err(|e| e.to_string())?;
        bytes.push(rendered.len() as f64);
        if rendered != *reply {
            problems.push(format!(
                "the daemon's reply to {} differs from the engine's rendering",
                spec.name
            ));
        }
        tracer.close(root);
        replay(&mut tracer, op, body, &mut layers)?;
    }
    let replays = missed.len().max(1) as f64;

    let mut parse_us = Vec::new();
    let parsed_bodies = missed.iter().map(|(body, _)| body).chain(&bodies.presets);
    for (n, body) in parsed_bodies.enumerate() {
        let raw = request_bytes(body, cfg.workload == Workload::ServeFreshConn);
        let (parsed, id) = tracer.span("http.parse", 2_000_000 + n as u64, None, || {
            (0..PARSE_REPS).try_for_each(|_| {
                std::hint::black_box(read_request(&mut raw.as_bytes())).map(|_| ())
            })
        });
        parsed.map_err(|e| format!("the HTTP parser rejected a request: {e}"))?;
        parse_us.push(tracer.seconds(id) * 1e6 / PARSE_REPS as f64);
    }

    let connects: Vec<f64> = outs
        .iter()
        .flat_map(|o| &o.connects)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let (attempted, failed) = totals(&outs);
    let (base_attempted, base_failed) = totals(&base);
    println!(
        "# trace.coverage = (serve.connect + serve.handle) per request / untraced request latency ({untraced_s:.6} s, {} requests)",
        base.iter().map(|o| o.samples.len()).sum::<usize>()
    );
    println!(
        "# spec.*, engine.*, render.*, grid.*, kernel.* and model.* replay {} cache-missing bodies",
        missed.len()
    );
    crate::push_layers(
        report,
        &[
            ("spec.validate_s", median(&validate)),
            ("spec.points", median(&points)),
            ("grid.decode_s", layers.decode / replays),
            ("grid.resolve_s", layers.resolve / replays),
            ("engine.eval_s", median(&engine)),
            ("engine.points", median(&points)),
            ("render.json_s", median(&render)),
            ("render.bytes", median(&bytes)),
            ("kernel.orderstat_s", layers.kernel / replays),
            (
                "kernel.orderstat_calls",
                layers.kernel_calls as f64 / replays,
            ),
            ("kernel.pool_entries", layers.pool_entries as f64 / replays),
            ("model.curve_s", layers.curve / replays),
            ("model.planner_s", layers.planner / replays),
            ("http.parse_us", median(&parse_us)),
            ("serve.handle_hot_us", median(&hot_us)),
            ("serve.handle_cold_us", median(&cold_us)),
            ("lru.hits", hits),
            ("lru.misses", lookups - hits),
            ("lru.hit_ratio", hits / lookups.max(1.0)),
            (
                "serve.shed_503",
                outs.iter().map(|o| o.shed).sum::<u64>() as f64,
            ),
            (
                "serve.retries",
                outs.iter().map(|o| o.retries).sum::<u64>() as f64,
            ),
            ("serve.connect_ms", median(&connects)),
            ("serve.wait_ms", median(&wait_ms)),
            (
                "failed_ratio",
                (failed + base_failed) as f64 / (attempted + base_attempted).max(1) as f64,
            ),
            ("trace.coverage", median(&staged) / untraced_s),
            ("trace.overhead_s", median(&traced_s) - untraced_s),
        ],
    );
    report.attempted = attempted + base_attempted;
    report.failed = failed + base_failed;
    tracer
        .write(&cfg.work_dir().join("trace.ndjson"))
        .map_err(|e| format!("cannot write the trace: {e}"))
}
