//! End-to-end and per-layer benchmark of the ft-http serving stack.
//!
//! One run starts the in-process `HttpServer` with the default
//! `ServiceConfig` (one shard, as `serve` runs it), drives one workload
//! over loopback sockets from at most [`workload::CONNECTIONS`] client
//! threads and connections, verifies every product bit-exact, and
//! reports either the end-to-end metrics (untraced) or the per-layer
//! metrics (traced). See `perfbench/README.md`.

pub mod conn;
pub mod cpu;
pub mod layers;
pub mod pool;
pub mod stats;
pub mod trace;
pub mod workload;

use conn::Conn;
use ft_http::{HttpConfig, HttpServer};
use ft_service::plan_cache::PlanCache;
use ft_service::{MetricsSnapshot, ServiceConfig};
use pool::{product_field, product_matches, MulCase, BIG_CLASSES};
use stats::{mean, median, tail};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;
use trace::Tracer;
use workload::{Ctx, Inputs, Samples, Tally};

/// Server start-ups per run; `setup_s` is the median of their CPU time.
pub const SETUPS: usize = 21;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans (JSON lines).
    pub spans_out: Option<std::path::PathBuf>,
}

impl Options {
    #[must_use]
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            spans_out: None,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The run record: host, seed, counts, sample sizes (one JSON object).
    pub record: String,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Start a server and get one verified product from it: (server,
/// seconds from start to the verified product, CPU seconds the process
/// used meanwhile beyond this thread's own).
fn set_up(first: &MulCase) -> Result<(HttpServer, f64, f64), String> {
    let (process0, thread0) = (cpu::process_s(), cpu::thread_s());
    let t0 = Instant::now();
    let server = HttpServer::start(&HttpConfig::default(), ServiceConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut conn = Conn::new(server.local_addr());
    let rsp = conn
        .request("POST", "/v1/mul", Some(&first.body))
        .map_err(|e| format!("first request: {e}"))?;
    let ok = rsp.status == 200
        && product_field(&rsp.text()).is_some_and(|p| product_matches(&p, &first.product_hex));
    let secs = t0.elapsed().as_secs_f64();
    let cpu_s = cpu::process_s() - process0 - (cpu::thread_s() - thread0);
    if !ok {
        return Err(format!(
            "first product wrong or refused: {} {}",
            rsp.status,
            rsp.text()
        ));
    }
    Ok((server, secs, cpu_s))
}

/// Point-in-time copies of every server-side counter set.
struct Snap {
    service: MetricsSnapshot,
    http: ft_http::metrics::HttpSnapshot,
    net: ft_http::prom::NetStats,
}

impl Snap {
    fn take(server: &HttpServer) -> Snap {
        Snap {
            service: server.router().metrics(),
            http: server.http_metrics(),
            net: server.net_stats(),
        }
    }

    /// (sum µs, count) of one HTTP route's handler durations.
    fn route(&self, route: &str) -> (f64, f64) {
        self.http
            .histograms
            .iter()
            .find(|h| h.route == route)
            .map_or((0.0, 0.0), |h| (h.sum_us as f64, h.count as f64))
    }

    fn kernel_served(&self, name: &str) -> u64 {
        self.service
            .per_kernel
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, c)| c)
    }

    fn net_errors(&self) -> u64 {
        self.net.parse_errors
            + self.net.request_timeouts
            + self.net.rejected_over_cap
            + self.net.accept_errors
    }
}

/// Run one workload; `Err` when it cannot produce every metric.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if !workload::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {:?}",
            opts.workload,
            workload::WORKLOADS
        ));
    }
    let built = Instant::now();
    let inputs = Inputs::build(opts.seed);
    let inputs_s = built.elapsed().as_secs_f64();
    let first = inputs
        .small
        .iter()
        .find(|c| c.bits == 2_048)
        .expect("a 2 kbit single");

    // Each set-up is a fresh server; the previous one is shut down
    // first, so that nothing else runs while one is timed.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setups_cpu = Vec::with_capacity(SETUPS);
    let mut server: Option<HttpServer> = None;
    let setup_phase = Instant::now();
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            drop(previous.shutdown());
        }
        let (s, secs, cpu_s) = set_up(first)?;
        setups.push(secs);
        setups_cpu.push(cpu_s);
        server = Some(s);
    }
    let setup_phase_s = setup_phase.elapsed().as_secs_f64();
    let server: HttpServer = server.expect("at least one set-up");

    let tracer = Tracer::new(opts.trace);
    let ctx = Ctx {
        server: &server,
        addr: server.local_addr(),
        inputs: &inputs,
        seed: opts.seed,
        tally: Tally::default(),
        tracer: &tracer,
        connects: Default::default(),
        traced: Mutex::new(Default::default()),
    };
    let before = Snap::take(&server);
    let started = Instant::now();
    let samples = workload::run(&ctx, &opts.workload, opts.seconds, !opts.trace);
    let measured_s = started.elapsed().as_secs_f64();
    let after = Snap::take(&server);

    let mut layers = Vec::new();
    let mut spans = "null".to_string();
    if opts.trace {
        layers = per_layer(&ctx, &samples, &before, &after);
        spans = span_summary(&tracer.spans());
        if let Some(path) = &opts.spans_out {
            tracer
                .write(path)
                .map_err(|e| format!("writing spans: {e}"))?;
        }
    }
    drop(ctx.traced);
    let tally = ctx.tally;
    let connects = ctx.connects.load(Ordering::Relaxed);
    let (final_metrics, leftover) = server.shutdown();

    let attempted = tally.attempted.load(Ordering::Relaxed);
    let failed = tally.failed.load(Ordering::Relaxed);
    let wrong = tally.wrong.load(Ordering::Relaxed);
    let metrics = if opts.trace {
        layers
    } else {
        end_to_end(&samples, &setups_cpu, attempted, failed)?
    };
    let record = record(
        opts,
        &samples,
        &setups,
        &setups_cpu,
        setup_phase_s,
        inputs_s,
        measured_s,
        [attempted, failed, wrong, connects],
        leftover,
        &final_metrics,
        &spans,
    );
    Ok(Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        metrics,
        record,
    })
}

/// Per span name: count, mean duration and mean self time (duration
/// less the time its child spans cover), µs, as one JSON object.
fn span_summary(spans: &[trace::Span]) -> String {
    let self_us = trace::self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, (usize, f64, f64)> = Default::default();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.us();
        e.2 += self_us[&s.id];
    }
    let rows: Vec<String> = by_name
        .iter()
        .map(|(name, (n, total, own))| {
            let n_f = *n as f64;
            format!(
                r#""{name}": {{"n": {n}, "mean_us": {}, "self_us": {}}}"#,
                total / n_f,
                own / n_f
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metrics; `Err` when a sample needed for one is
/// empty. Besides the success rate they are the server's CPU time: per
/// set-up, per batch pair, and per large single of each class.
/// Wall-clock latencies and throughputs are in the run record, not here:
/// on a shared 2-core host the wake-ups that dominate them cost what the
/// host's load makes them cost, and their run-to-run spread is wider than
/// any bound a regression gate could use.
fn end_to_end(
    s: &Samples,
    setups_cpu: &[f64],
    attempted: u64,
    failed: u64,
) -> Result<Vec<Metric>, String> {
    let mut out = vec![
        metric("setup_s", median(setups_cpu), "s"),
        metric(
            "success_rate",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("batch_cpu_us", median(&s.batch_cpu_us), "us"),
    ];
    for (i, (label, _)) in BIG_CLASSES.iter().enumerate() {
        out.push(metric(
            &format!("big_cpu_ms.{label}"),
            median(&s.big_cpu_ms[i]),
            "ms",
        ));
    }
    match out.iter().find(|m| !(m.value.is_finite() && m.value > 0.0)) {
        Some(m) => Err(format!("no samples for {} ({})", m.name, m.value)),
        None => Ok(out),
    }
}

/// Ratio with a zero denominator read as 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, which runs the main phase
/// alone; server counters are deltas over the run.
fn per_layer(ctx: &Ctx<'_>, s: &Samples, before: &Snap, after: &Snap) -> Vec<Metric> {
    let t = ctx.traced.lock().unwrap();
    let tracer = ctx.tracer;
    let mut out = Vec::new();
    // A count too small for its statistic reads 0, never NaN.
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(metric(
            name,
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    };

    // net
    let healthz = median(&t.healthz_us);
    push("net.healthz_rtt_us.p50", healthz, "us");
    let (mul_sum, mul_n) = after.route("mul");
    let (mul_sum0, mul_n0) = before.route("mul");
    let mul_handler = ratio(mul_sum - mul_sum0, mul_n - mul_n0);
    let (batch_sum, batch_n) = after.route("mul_batch");
    let (batch_sum0, batch_n0) = before.route("mul_batch");
    let batch_handler = ratio(batch_sum - batch_sum0, batch_n - batch_n0);
    let net_self = if t.mul_exchange_us.is_empty() {
        mean(&t.batch_exchange_us) - batch_handler
    } else {
        mean(&t.mul_exchange_us) - mul_handler
    };
    push("net.self_us", net_self, "us");
    push(
        "net.connections",
        (after.net.total_connections - before.net.total_connections) as f64,
        "count",
    );
    push(
        "net.errors",
        (after.net_errors() - before.net_errors()) as f64,
        "count",
    );

    // http
    push("http.mul_handler_us.mean", mul_handler, "us");
    push("http.batch_handler_us.mean", batch_handler, "us");
    push(
        "http.streamed_results",
        (after.http.streamed_results - before.http.streamed_results) as f64,
        "count",
    );

    // codec, kernel and verify: replays on this run's own inputs.
    let small_of = |bits: u64| {
        ctx.inputs
            .small
            .iter()
            .find(|c| c.bits == bits)
            .expect("small class")
    };
    let big_of = |label: &str| {
        let i = BIG_CLASSES
            .iter()
            .position(|(l, _)| *l == label)
            .expect("class");
        &ctx.inputs.big[i]
    };
    let small_codec: Vec<layers::Codec> = pool::SMALL_BITS
        .iter()
        .map(|&b| layers::codec(tracer, small_of(b)))
        .collect();
    let codec_1m = layers::codec(tracer, big_of("1m"));
    let codec_2k = small_codec[1];
    push("codec.hex_parse_us.2k", codec_2k.hex_parse, "us");
    push("codec.hex_parse_us.1m", codec_1m.hex_parse, "us");
    push("codec.to_hex_us.2k", codec_2k.to_hex, "us");
    push("codec.to_hex_us.1m", codec_1m.to_hex, "us");
    push("codec.json_parse_us.2k", codec_2k.json_parse, "us");
    push("codec.json_parse_us.1m", codec_1m.json_parse, "us");

    let plans = PlanCache::new(8);
    let mut kernel_us = std::collections::HashMap::new();
    let mut verify_us = std::collections::HashMap::new();
    for &bits in &pool::SMALL_BITS {
        kernel_us.insert(bits, layers::kernel(tracer, small_of(bits), &plans));
        verify_us.insert(bits, layers::verify(tracer, small_of(bits)));
    }
    let mut big_kernel = Vec::new();
    let mut big_verify = Vec::new();
    for (label, _) in BIG_CLASSES {
        big_kernel.push((label, layers::kernel(tracer, big_of(label), &plans)));
        big_verify.push((label, layers::verify(tracer, big_of(label))));
    }

    // service
    let rtt: Vec<f64> = t.service_us.iter().map(|&(_, us)| us).collect();
    push("service.rtt_us.p50", median(&rtt), "us");
    push(
        "service.rtt_us.p99",
        tail(&rtt).map_or(f64::NAN, |(_, v)| v),
        "us",
    );
    let queue: Vec<f64> = t
        .service_us
        .iter()
        .map(|&(bits, us)| us - kernel_us[&bits] - verify_us[&bits])
        .collect();
    push(
        "service.queue_us.p99",
        tail(&queue).map_or(f64::NAN, |(_, v)| v),
        "us",
    );
    let (m0, m1) = (&before.service, &after.service);
    push(
        "service.batch_fill",
        ratio(
            (m1.batched_requests - m0.batched_requests) as f64,
            (m1.batches - m0.batches) as f64,
        ),
        "ratio",
    );
    push(
        "service.queue_high_water",
        m1.queue_depth_high_water as f64,
        "count",
    );
    let refused = |m: &MetricsSnapshot| m.rejected_queue_full + m.shed + m.timed_out;
    push(
        "service.refused",
        (refused(&after.service) - refused(m0)) as f64,
        "count",
    );
    push(
        "service.tuner_retunes",
        (m1.tuner_retunes - m0.tuner_retunes) as f64,
        "count",
    );
    let hits = (m1.plan_cache_hits - m0.plan_cache_hits) as f64;
    let misses = (m1.plan_cache_misses - m0.plan_cache_misses) as f64;
    push(
        "service.plan_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );

    // verify
    for (label, us) in &big_verify {
        push(&format!("verify.residue_us.{label}"), *us, "us");
    }
    push(
        "verify.dual_checks",
        (m1.verify.dual_checks - m0.verify.dual_checks) as f64,
        "count",
    );
    push(
        "verify.dual_cost_share",
        ratio(
            (m1.verify.dual_cost_us - m0.verify.dual_cost_us) as f64,
            (m1.latency_total_us - m0.latency_total_us) as f64,
        ),
        "ratio",
    );

    // supervisor
    let a = &after.service;
    push(
        "supervisor.retries",
        (a.retries - m0.retries) as f64,
        "count",
    );
    push(
        "supervisor.fallbacks",
        (a.fallbacks - m0.fallbacks) as f64,
        "count",
    );
    push(
        "supervisor.worker_faults",
        (a.worker_faults - m0.worker_faults) as f64,
        "count",
    );

    // kernel
    push("kernel.us.2k", kernel_us[&2_048], "us");
    push("kernel.us.8k", kernel_us[&8_192], "us");
    for (label, us) in &big_kernel {
        push(&format!("kernel.us.{label}"), *us, "us");
    }
    for (name, _) in after.service.per_kernel {
        push(
            &format!("kernel.served.{name}"),
            (after.kernel_served(name) - before.kernel_served(name)) as f64,
            "count",
        );
    }

    // client and trace
    let late: Vec<f64> = s.small.iter().map(|x| x.late_ms).collect();
    push(
        "client.lateness_ms.p99",
        tail(&late).map_or(f64::NAN, |(_, v)| v),
        "ms",
    );
    push(
        "client.lateness_growing",
        f64::from(u8::from(s.lateness_growing)),
        "bool",
    );
    let traced_p50 = median(&t.traced_small_ms);
    let untraced_p50 = median(&t.untraced_small_ms);
    push(
        "trace.overhead_pct",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        "%",
    );
    // What no layer explains, per request of the main kind: its time
    // from due to verified, less the generator's lateness, the client's
    // verification, a bare round trip (net + http framing), the server's
    // codec calls and the in-process service round trip.
    let e2e = mean(&t.requests.iter().map(|r| r.0).collect::<Vec<_>>());
    let lateness = mean(&t.requests.iter().map(|r| r.1).collect::<Vec<_>>());
    let verify_client = mean(&t.requests.iter().map(|r| r.2).collect::<Vec<_>>());
    let (codec_cost, service_cost) = if t.service_batch_us.is_empty() {
        (
            mean(
                &small_codec
                    .iter()
                    .map(layers::Codec::per_request)
                    .collect::<Vec<_>>(),
            ),
            mean(&rtt),
        )
    } else {
        (
            layers::batch_codec(tracer, &ctx.inputs.batches[0]),
            mean(&t.service_batch_us),
        )
    };
    let unexplained = e2e - lateness - verify_client - healthz - codec_cost - service_cost;
    push("trace.unexplained_us", unexplained, "us");
    push("trace.unexplained_share", ratio(unexplained, e2e), "ratio");
    out
}

/// Host fingerprint: `nproc`, CPU model, compiler and commit.
#[must_use]
pub fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = cpu_model();
    format!(
        r#"{{"nproc": {nproc}, "cpu": {}, "rustc": {}, "commit": {}}}"#,
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit())
    )
}

/// The CPU's brand string from `cpuid` (no file outside the checkout is
/// read); `unknown` where the instruction or its leaves are missing.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: `cpuid` exists on every x86_64 processor, and the brand
        // leaves are read only when the maximum extended leaf covers them.
        #[allow(unused_unsafe)]
        let leaves = unsafe {
            (__cpuid(0x8000_0000).eax >= 0x8000_0004).then(|| {
                [
                    __cpuid(0x8000_0002),
                    __cpuid(0x8000_0003),
                    __cpuid(0x8000_0004),
                ]
            })
        };
        if let Some(leaves) = leaves {
            let bytes: Vec<u8> = leaves
                .iter()
                .flat_map(|r| [r.eax, r.ebx, r.ecx, r.edx])
                .flat_map(u32::to_le_bytes)
                .collect();
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    "unknown".to_string()
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    ft_service::json::Json::Str(s.to_string()).dump()
}

/// A figure for JSON: an empty sample's median is NaN, which JSON cannot
/// carry, so it reads `null`.
fn finite(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".to_string()
    }
}

/// The run record, one JSON object.
#[allow(clippy::too_many_arguments)]
fn record(
    opts: &Options,
    s: &Samples,
    setups: &[f64],
    setups_cpu: &[f64],
    setup_phase_s: f64,
    inputs_s: f64,
    measured_s: f64,
    [attempted, failed, wrong, connects]: [u64; 4],
    leftover: usize,
    service: &MetricsSnapshot,
    spans: &str,
) -> String {
    let small: Vec<f64> = s.small.iter().map(|t| t.latency_ms).collect();
    let late: Vec<f64> = s.small.iter().map(|t| t.late_ms).collect();
    let tail_json = |v: &[f64]| match tail(v) {
        Some((pct, value)) => format!(r#"{{"n": {}, "pct": {pct}, "value": {value}}}"#, v.len()),
        None => format!(r#"{{"n": {}, "pct": null, "value": null}}"#, v.len()),
    };
    let big: Vec<String> = BIG_CLASSES
        .iter()
        .zip(&s.big)
        .map(|((label, _), v)| format!(r#""{label}": {}"#, v.len()))
        .collect();
    format!(
        concat!(
            r#"{{"record": {{"host": {}, "workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "#,
            r#""counts": {{"attempted": {}, "ok": {}, "failed": {}, "wrong": {}, "error_rate": {}}}, "#,
            r#""connections": {}, "undrained_connections": {}, "setups_s": {:?}, "setups_cpu_s": {:?}, "setup_phase_s": {}, "inputs_s": {}, "measured_s": {}, "#,
            r#""samples": {{"small": {}, "small_tail": {}, "batch": {}, "batch_tail": {}, "big": {{{}}}, "capacity_windows": {}}}, "#,
            r#""lateness_ms": {{"p50": {}, "tail": {}, "max": {}, "growing": {}}}, "served_by_kernel": {:?}, "#,
            r#""wall": {{"small_p50_ms": {}, "capacity_rps": {}, "batch_pairs_per_s": {}, "big_ms": [{}]}}, "#,
            r#""big_ms": {:?}, "windows": {{"small_p50_ms": {:?}, "capacity_rps": {:?}, "batch_pairs_per_s": {:?}}}, "#,
            r#""cpu": {{"batch_us_per_pair": {:?}, "big_ms": {:?}}}, "spans": {}}}}}"#
        ),
        host(),
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        attempted,
        attempted - failed,
        failed,
        wrong,
        failed as f64 / attempted.max(1) as f64,
        connects,
        leftover,
        setups,
        setups_cpu,
        setup_phase_s,
        inputs_s,
        measured_s,
        small.len(),
        tail_json(&small),
        s.batch.len(),
        tail_json(&s.batch),
        big.join(", "),
        s.capacity.len(),
        finite(median(&late)),
        tail_json(&late),
        late.iter().copied().fold(0.0, f64::max),
        s.lateness_growing,
        service
            .per_kernel
            .iter()
            .map(|(n, c)| format!("{n}={c}"))
            .collect::<Vec<_>>(),
        finite(median(&small)),
        finite(median(&s.capacity)),
        finite(median(&s.batch_pairs)),
        s.big
            .iter()
            .map(|v| finite(median(v)))
            .collect::<Vec<_>>()
            .join(", "),
        s.big,
        s.small_windows,
        s.capacity,
        s.batch_pairs,
        s.batch_cpu_us,
        s.big_cpu_ms,
        spans,
    )
}
