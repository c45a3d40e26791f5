//! `serve-mix`: an `mkss-serve` daemon (default config, started by the
//! benchmark as a child process) under a closed loop of nproc client
//! connections sending seeded simulate/compare/sweep lines built from
//! paper-generator task sets.
//!
//! Every response is checked after the timed window against in-process
//! `mkss_serve::execute` of the same line: bytes must match and the
//! response must be `"ok":true`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_obs::{HistogramId, Percentile};
use mkss_policies::PolicyKind;
use mkss_serve::json::{self, JsonValue};
use mkss_serve::{execute, Client, ExecEnv, Op, Request};
use mkss_sim::pool::WorkspacePool;
use mkss_workload::{BucketPlan, WorkloadConfig};

use crate::layers::{self, SpanFold};
use crate::probe::{self, ProbeCall};
use crate::report::Outcome;
use crate::spans::{union_ns, Span, Tracer};
use crate::stats::Samples;
use crate::{cpu, gen, median_of, Opts};

/// Policies the request lines cycle through, as `loadgen` does.
const POLICIES: [PolicyKind; 6] = [
    PolicyKind::Static,
    PolicyKind::DualPriority,
    PolicyKind::Greedy,
    PolicyKind::Selective,
    PolicyKind::StaticEven,
    PolicyKind::DualPriorityTheta,
];

/// Requests a run must complete, so that ten lie beyond its p99.
pub const MIN_REQUESTS: usize = layers::MIN_TAIL_SAMPLES;

/// The traced run alternates untraced and traced slices of this length.
const SLICE_S: f64 = 0.5;

fn ms(t: Time) -> String {
    format!("{}.{:03}", t.ticks() / 1000, t.ticks() % 1000)
}

/// `ts` in the daemon's task-set schema, with exact tick values.
pub fn task_set_json(ts: &TaskSet) -> String {
    let tasks: Vec<String> = ts
        .iter()
        .map(|(_, t)| {
            format!(
                "{{\"period_ms\":{},\"deadline_ms\":{},\"wcet_ms\":{},\"m\":{},\"k\":{}}}",
                ms(t.period()),
                ms(t.deadline()),
                ms(t.wcet()),
                t.mk().m(),
                t.mk().k()
            )
        })
        .collect();
    format!("{{\"tasks\":[{}]}}", tasks.join(","))
}

/// SplitMix64 of the seed and line index: a fixed mixer, so the traffic
/// for a seed does not depend on the standard library's hasher.
fn mix(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded request lines: every 7th (from the 4th) a sweep, every
/// 5th (from the 3rd) a compare of the three paper policies, the rest
/// simulate; horizons 100–200 ms.
pub fn request_lines(sets: &[TaskSet], count: usize, seed: u64) -> Vec<String> {
    (0..count)
        .map(|i| {
            let id = i + 1;
            let ts = task_set_json(&sets[i % sets.len()]);
            let policy = POLICIES[i % POLICIES.len()].id();
            let r = mix(seed, i);
            let horizon = 100 + r % 101;
            let fault_seed = r % 1_000_000_007;
            if i % 7 == 3 {
                format!(
                    "{{\"id\":{id},\"op\":\"sweep\",\"task_set\":{ts},\"policy\":\"{policy}\",\"horizon_ms\":{horizon},\
                     \"faults\":{{\"transient_per_ms\":0.001}},\"seeds\":4,\"seed_from\":{}}}",
                    fault_seed % 1_000_000
                )
            } else if i % 5 == 2 {
                format!(
                    "{{\"id\":{id},\"op\":\"compare\",\"task_set\":{ts},\"horizon_ms\":{horizon},\
                     \"policies\":[\"st\",\"dp\",\"selective\"],\"faults\":{{\"seed\":{fault_seed},\"transient_per_ms\":0.0005}}}}"
                )
            } else {
                format!(
                    "{{\"id\":{id},\"op\":\"simulate\",\"task_set\":{ts},\"policy\":\"{policy}\",\"horizon_ms\":{horizon},\
                     \"faults\":{{\"seed\":{fault_seed},\"transient_per_ms\":0.0005,\"permanent\":{{\"proc\":{},\"at_ms\":{}}}}}}}",
                    i % 2,
                    horizon * 3 / 5
                )
            }
        })
        .collect()
}

/// A daemon child process: this binary's `daemon` subcommand.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    /// The daemon's CPU seconds from exec until it answered its first ping.
    pub start_cpu_s: f64,
}

impl Daemon {
    /// Starts the daemon and waits until it answers a ping.
    pub fn start(socket: &Path) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(std::env::current_exe()?)
            .arg("daemon")
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
            start_cpu_s: 0.0,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut client) = daemon.client() {
                if client.request("{\"id\":0,\"op\":\"ping\"}").is_ok() {
                    let pid = daemon.pid().expect("child present while starting");
                    daemon.start_cpu_s = cpu::live_threads_s(pid)
                        .ok_or_else(|| io::Error::other("daemon CPU counters unreadable"))?;
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                daemon.child = None;
                return Err(io::Error::other(format!("daemon exited early: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not answer within 20 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn client(&self) -> io::Result<Client> {
        Client::connect_unix(&self.socket)
    }

    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Asks the daemon to drain and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        let mut client = self.client()?;
        client.request("{\"id\":0,\"op\":\"shutdown\"}")?;
        let mut child = self
            .child
            .take()
            .expect("daemon child present until stopped");
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                child.wait()?;
                return Err(io::Error::other("daemon did not drain within 20 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One request/response exchange of the closed loop.
pub struct Exchange {
    pub line: usize,
    pub rt_ns: u64,
    pub traced: bool,
    /// Hash and length of the response line, or the transport error.
    pub reply: Result<(u64, usize), String>,
}

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Runs `clients` closed-loop connections over `lines` (cycled) until
/// `seconds` have passed and at least `min_requests` were sent. With
/// `alternate`, odd `SLICE_S` slices of the window are traced (a `serve.request`
/// span per round trip, grouped by the line's id), even ones are not.
pub fn closed_loop(
    daemon: &Daemon,
    lines: &[String],
    clients: usize,
    seconds: f64,
    min_requests: usize,
    alternate: bool,
    tracer: &Tracer,
) -> Vec<Exchange> {
    let start = Instant::now();
    let cursor = AtomicUsize::new(0);
    let exchanges = Mutex::new(Vec::new());
    let hard_stop = seconds * 3.0 + 30.0;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut local = Vec::new();
                let mut client = match daemon.client() {
                    Ok(client) => client,
                    Err(e) => {
                        local.push(Exchange {
                            line: 0,
                            rt_ns: 0,
                            traced: false,
                            reply: Err(e.to_string()),
                        });
                        exchanges
                            .lock()
                            .expect("exchange log poisoned")
                            .extend(local);
                        return;
                    }
                };
                loop {
                    // Relaxed: a ticket; results are gathered after the scope joins.
                    let n = cursor.fetch_add(1, Ordering::Relaxed);
                    let elapsed = start.elapsed().as_secs_f64();
                    if (elapsed >= seconds && n >= min_requests) || elapsed >= hard_stop {
                        break;
                    }
                    let line = n % lines.len();
                    let traced = alternate && (elapsed / SLICE_S) as u64 % 2 == 1;
                    let t0 = Instant::now();
                    let reply = if traced {
                        tracer.span("serve.request", 0, line as u64 + 1, |_| {
                            client.request(&lines[line])
                        })
                    } else {
                        client.request(&lines[line])
                    };
                    let rt_ns = t0.elapsed().as_nanos() as u64;
                    let failed = reply.is_err();
                    local.push(Exchange {
                        line,
                        rt_ns,
                        traced,
                        reply: reply
                            .map(|r| (hash_str(&r), r.len()))
                            .map_err(|e| e.to_string()),
                    });
                    if failed {
                        break;
                    }
                }
                exchanges
                    .lock()
                    .expect("exchange log poisoned")
                    .extend(local);
            });
        }
    });
    exchanges.into_inner().expect("exchange log poisoned")
}

/// In-process expectation for each line, as the daemon must answer it.
pub struct Expected {
    pub responses: Vec<String>,
    /// Per line: median in-process `execute` time (ns).
    pub execute_ns: Vec<f64>,
}

/// Executes every line in-process `passes` times (parse and execute
/// spans grouped by the line's id when tracing).
pub fn replay(lines: &[String], passes: usize, tracer: &Tracer) -> Expected {
    let pool = WorkspacePool::new();
    let env = ExecEnv {
        pool: &pool,
        global: None,
        fanout: 1,
    };
    let mut per_line: Vec<Samples> = vec![Samples::new(); lines.len()];
    let mut responses = vec![String::new(); lines.len()];
    for _ in 0..passes {
        for (i, line) in lines.iter().enumerate() {
            let group = i as u64 + 1;
            let request = tracer.span("serve.parse", 0, group, |_| Request::parse(line));
            let t0 = Instant::now();
            responses[i] = match request {
                Ok(request) => tracer.span("serve.execute", 0, group, |_| execute(&request, &env)),
                Err(e) => mkss_serve::protocol::error_line(e.id, &e.message),
            };
            per_line[i].push(t0.elapsed().as_nanos() as f64);
        }
    }
    Expected {
        responses,
        execute_ns: per_line
            .iter_mut()
            .map(|s| s.median().unwrap_or(0.0))
            .collect(),
    }
}

/// Counts one check per exchange: transport ok, `"ok":true`, bytes equal
/// to the in-process response.
pub fn check_exchanges(out: &mut Outcome, exchanges: &[Exchange], expected: &Expected) {
    let hashes: Vec<u64> = expected.responses.iter().map(|r| hash_str(r)).collect();
    for ex in exchanges {
        let response = &expected.responses[ex.line];
        let ok = response.contains("\"ok\":true")
            && ex.reply.as_ref().is_ok_and(|&(h, _)| h == hashes[ex.line]);
        out.check(ok, || match &ex.reply {
            Err(e) => format!("serve line {}: transport error {e}", ex.line + 1),
            Ok(_) if !response.contains("\"ok\":true") => {
                format!("serve line {}: {response}", ex.line + 1)
            }
            Ok(_) => format!(
                "serve line {}: daemon bytes differ from in-process execute",
                ex.line + 1
            ),
        });
    }
}

/// Serve-layer metrics from a daemon session: round trip, transport
/// (round trip minus in-process execute of the same line), queue depth,
/// rejections, response size.
pub fn serve_layers(
    out: &mut Outcome,
    exchanges: &[Exchange],
    expected: &Expected,
    metrics_doc: &str,
    tracer_spans: &mut SpanFold,
) {
    let mut rt = Samples::new();
    let mut transport = Samples::new();
    let mut bytes = 0usize;
    for ex in exchanges {
        if let Ok((_, len)) = ex.reply {
            rt.push(ex.rt_ns as f64);
            transport.push(ex.rt_ns as f64 - expected.execute_ns[ex.line]);
            bytes += len;
        }
    }
    out.layer_median("serve.roundtrip_us_p50", &mut rt, 1e-3, "us");
    out.layer_median("serve.transport_us_p50", &mut transport, 1e-3, "us");
    out.layer(
        "serve.response_bytes",
        bytes as f64 / rt.len().max(1) as f64,
        "bytes",
        rt.len() as u64,
    );
    out.layer_median(
        "serve.parse_us_p50",
        tracer_spans.samples("serve.parse"),
        1e-3,
        "us",
    );
    out.layer_median(
        "serve.execute_us_p50",
        tracer_spans.samples("serve.execute"),
        1e-3,
        "us",
    );
    out.layer_percentile(
        "serve.execute_us_p99",
        tracer_spans.samples("serve.execute"),
        99.0,
        1e-3,
        "us",
    );
    let doc = json::parse(metrics_doc).ok();
    let result = doc.as_ref().and_then(|d| d.get("result"));
    let rejected = result
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("serve_rejected"))
        .and_then(JsonValue::as_u64);
    out.layer(
        "serve.rejected",
        rejected.map_or(f64::NAN, |r| r as f64),
        "count",
        1,
    );
    let counts: Option<Vec<u64>> = result
        .and_then(|r| r.get("histograms"))
        .and_then(|h| h.get(HistogramId::ServeQueueDepth.name()))
        .and_then(|h| h.get("counts"))
        .and_then(JsonValue::as_array)
        .map(|a| a.iter().filter_map(JsonValue::as_u64).collect());
    let total: u64 = counts.iter().flatten().sum();
    if total >= layers::MIN_TAIL_SAMPLES as u64 {
        let p99 = counts
            .and_then(|c| HistogramId::ServeQueueDepth.percentile(&c, 99))
            .map(|p| match p {
                Percentile::AtMost(b) => b as f64,
                Percentile::Over(b) => b as f64 + 1.0,
            });
        out.layer(
            "serve.queue_depth_p99",
            p99.unwrap_or(f64::NAN),
            "count",
            total,
        );
    }
}

/// Mean MKSS_selective / MKSS_ST total energy over the compare lines.
fn selective_norm(lines: &[String], expected: &Expected) -> f64 {
    let mut ratios = Vec::new();
    for (line, response) in lines.iter().zip(&expected.responses) {
        if !line.contains("\"op\":\"compare\"") {
            continue;
        }
        let Ok(doc) = json::parse(response) else {
            continue;
        };
        let Some(rows) = doc
            .get("result")
            .and_then(|r| r.get("rows"))
            .and_then(JsonValue::as_array)
        else {
            continue;
        };
        let energy = |row: &JsonValue| {
            row.get("energy")
                .and_then(|e| e.get("total"))
                .and_then(JsonValue::as_f64)
        };
        if let (Some(st), Some(sel)) = (rows.first().and_then(energy), rows.get(2).and_then(energy))
        {
            if st > 0.0 {
                ratios.push(sel / st);
            }
        }
    }
    mkss_core::fold::mean_f64(&ratios)
}

fn socket_path(opts: &Opts) -> PathBuf {
    opts.out_dir
        .join(format!("daemon-{}.sock", std::process::id()))
}

/// A short daemon session for a workload whose own traffic does not use
/// the daemon: the lines go through the closed loop once, are checked,
/// and feed the serve-layer metrics.
pub fn probe_session(opts: &Opts, out: &mut Outcome, lines: &[String], tracer: &Tracer) {
    let daemon = match Daemon::start(&socket_path(opts)) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("probe daemon failed to start: {e}"));
            return;
        }
    };
    let clients = mkss_core::par::effective_jobs(0);
    let exchanges = closed_loop(&daemon, lines, clients, 0.0, MIN_REQUESTS, false, tracer);
    let doc = daemon
        .client()
        .and_then(|mut c| c.request("{\"id\":0,\"op\":\"metrics\"}"))
        .unwrap_or_default();
    let stopped = daemon.stop();
    out.check(stopped.is_ok(), || {
        format!("probe daemon stop: {stopped:?}")
    });
    let expected = replay(lines, MIN_REQUESTS.div_ceil(lines.len()), tracer);
    let mut fold = SpanFold::default();
    fold.add(&tracer.take());
    check_exchanges(out, &exchanges, &expected);
    serve_layers(out, &exchanges, &expected, &doc, &mut fold);
}

pub fn run(opts: &Opts, out: &mut Outcome) {
    let tracer = Tracer::new(opts.trace);
    let clients = mkss_core::par::effective_jobs(0);
    let plan = BucketPlan {
        from: 0.1,
        to: 0.7,
        width: 0.1,
        sets_per_bucket: if opts.tiny { 2 } else { 600 },
        max_generated: 100_000,
    };

    // Set-up, three times: daemon start until it answers (the daemon's
    // CPU to its first answer plus ours), plus the request lines
    // (paper-generator sets; the traced run keeps the last set-up's spans).
    let mut setups = Samples::new();
    let mut daemon = None;
    let mut lines = Vec::new();
    let mut buckets = Vec::new();
    let mut setup_spans = Vec::new();
    for round in 0..3 {
        let cpu0 = cpu::process_s();
        let started = Daemon::start(&socket_path(opts));
        buckets = tracer.span("setup", 0, 0, |s| {
            gen::generate(&tracer, s, WorkloadConfig::paper(), plan, opts.seed, 1)
        });
        let sets = gen::flatten(&buckets);
        lines = request_lines(&sets, sets.len(), opts.seed);
        let daemon_cpu = started.as_ref().map_or(0.0, |d| d.start_cpu_s);
        setups.push(cpu::process_s() - cpu0 + daemon_cpu);
        setup_spans = tracer.take();
        match started {
            Ok(d) if round < 2 => {
                let stopped = d.stop();
                out.check(stopped.is_ok(), || format!("daemon stop: {stopped:?}"));
            }
            Ok(d) => daemon = Some(d),
            Err(e) => {
                out.check(false, || format!("daemon failed to start: {e}"));
                return;
            }
        }
    }
    let daemon = daemon.expect("third set-up keeps its daemon");
    out.e2e("setup_s", median_of(&mut setups), "s", setups.len() as u64);

    let window_start = tracer.now_ns();
    let daemon_pid = daemon.pid().expect("running daemon has a pid");
    let cpu0 = cpu::process_s() + cpu::pid_s(daemon_pid).unwrap_or(f64::NAN);
    let wall = Instant::now();
    // A traced window spans at least two untraced and two traced slices.
    let seconds = if opts.trace {
        opts.seconds.max(4.0 * SLICE_S)
    } else {
        opts.seconds
    };
    let exchanges = closed_loop(
        &daemon,
        &lines,
        clients,
        seconds,
        MIN_REQUESTS,
        opts.trace,
        &tracer,
    );
    let window_s = wall.elapsed().as_secs_f64();
    // Client and daemon CPU per response over the window.
    let window_cpu = cpu::process_s() + cpu::pid_s(daemon_pid).unwrap_or(f64::NAN) - cpu0;
    let window_end = tracer.now_ns();
    let request_spans = tracer.take();

    let doc = daemon
        .client()
        .and_then(|mut c| c.request("{\"id\":0,\"op\":\"metrics\"}"))
        .unwrap_or_default();
    let rss = layers::peak_rss_mb(&daemon_pid.to_string());
    let stopped = daemon.stop();
    out.check(stopped.is_ok(), || format!("daemon stop: {stopped:?}"));

    // Checks, and the in-process side of the traced numbers: enough
    // replay passes for an execute p99 in the traced run.
    let passes = if opts.trace {
        MIN_REQUESTS.div_ceil(lines.len())
    } else {
        1
    };
    let expected = replay(&lines, passes, &tracer);
    check_exchanges(out, &exchanges, &expected);

    let mut rt_plain = Samples::new();
    let mut rt_traced = Samples::new();
    for ex in exchanges.iter().filter(|ex| ex.reply.is_ok()) {
        if ex.traced {
            &mut rt_traced
        } else {
            &mut rt_plain
        }
        .push(ex.rt_ns as f64 / 1e3);
    }
    let plain_share = rt_plain.len() as f64 / exchanges.len().max(1) as f64;
    let req_per_s = exchanges.len() as f64 / window_s;
    out.e2e(
        "cpu_per_op_ms",
        window_cpu / exchanges.len().max(1) as f64 * 1e3,
        "ms",
        exchanges.len() as u64,
    );
    out.e2e("req_per_s", req_per_s, "req/s", exchanges.len() as u64);
    out.e2e(
        "latency_p50_us",
        rt_plain.median().unwrap_or(f64::NAN),
        "us",
        rt_plain.len() as u64,
    );
    if let Some(p99) = rt_plain.percentile(99.0) {
        out.e2e("latency_p99_us", p99, "us", rt_plain.len() as u64);
    }
    out.e2e(
        "selective_energy_norm",
        selective_norm(&lines, &expected),
        "ratio",
        lines.len() as u64,
    );
    out.e2e("peak_rss_mb", rss.unwrap_or(f64::NAN), "MiB", 1);
    out.notes.push(format!(
        "serve-mix: {} requests from {clients} closed-loop clients over {} distinct lines in {window_s:.2} s",
        exchanges.len(),
        lines.len()
    ));
    if !opts.trace {
        return;
    }
    out.notes.push(format!(
        "serve-mix: {:.0}% of requests were in untraced slices",
        plain_share * 100.0
    ));

    let mut fold = SpanFold::default();
    let replay_spans = tracer.take();
    fold.add(&setup_spans);
    fold.add(&replay_spans);
    let mut shares = layers::slowest_bucket_shares(&setup_spans);
    layers::generation(out, &mut fold, &mut shares, &buckets, 1.0);
    serve_layers(out, &exchanges, &expected, &doc, &mut fold);
    let busy: f64 = exchanges.iter().map(|e| e.rt_ns as f64).sum();
    out.layer(
        "par.busy_share",
        busy / (clients as f64 * window_s * 1e9),
        "ratio",
        exchanges.len() as u64,
    );
    let window = (window_end - window_start) as f64 / 1e9;
    let traced_wall: f64 = (0..=(window / SLICE_S) as u64)
        .filter(|k| k % 2 == 1)
        .map(|k| (window - k as f64 * SLICE_S).clamp(0.0, SLICE_S))
        .sum();
    // A request is traced by the slice it starts in; clip it to that slice.
    let slice_ns = (SLICE_S * 1e9) as u64;
    let covered = union_ns(
        request_spans
            .iter()
            .map(|s| {
                let slice_end = window_start
                    + (s.start_ns.saturating_sub(window_start) / slice_ns + 1) * slice_ns;
                (s.start_ns, s.end_ns.min(slice_end).min(window_end))
            })
            .filter(|(start, end)| start < end)
            .collect(),
    );
    out.layer(
        "trace.coverage",
        covered as f64 / (traced_wall * 1e9).max(1.0),
        "ratio",
        request_spans.len() as u64,
    );
    let plain_p50 = rt_plain.median().unwrap_or(f64::NAN);
    out.layer(
        "trace.overhead",
        rt_traced.median().unwrap_or(f64::NAN) / plain_p50,
        "ratio",
        rt_traced.len() as u64,
    );

    let calls: Vec<ProbeCall> = lines
        .iter()
        .filter_map(|line| match Request::parse(line).ok()?.op {
            Op::Simulate(job) => Some(ProbeCall {
                task_set: job.task_set,
                policy: job.policy,
                config: job.config,
            }),
            _ => None,
        })
        .collect();
    let mut spans: Vec<Span> = setup_spans;
    spans.extend(request_spans);
    spans.extend(replay_spans);
    probe::run(opts, out, &tracer, &calls, &mut spans);
    crate::write_spans(opts, out, "serve-mix", &spans);
}
