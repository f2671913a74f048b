//! The workloads, built from a few traffic phases driven over real
//! loopback sockets against one in-process `HttpServer`.
//!
//! Every workload reports every end-to-end metric. Each has a main
//! phase that gives it its character and takes most of the run; the
//! metrics the main phase does not produce come from short probe phases
//! after it, against the same server.

use crate::conn::{by_due, ms, open_loop, Conn, Timed};
use crate::cpu;
use crate::pool::{
    product_field, product_matches, splitmix64, BatchCase, MulCase, BIG_CLASSES, SMALL_BITS,
};
use crate::stats::{lateness_growing, median, window_rates};
use crate::trace::Tracer;
use ft_http::HttpServer;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections (and client threads) the benchmark uses at once.
pub const CONNECTIONS: usize = 2;
/// Total open-loop rate of small singles in `batch_stream`'s probe,
/// requests/s: about a third of `capacity_rps` on a 2-core host.
pub const SMALL_RATE: f64 = 1_500.0;
/// Rate of connection A's small singles on `big_mixed`, requests/s.
pub const LIGHT_RATE: f64 = 150.0;
/// Pairs per `/v1/mul/batch` request.
pub const BATCH_LEN: usize = 64;
/// One closed-loop cycle of large singles on `big_mixed`: (class index,
/// count).
pub const BIG_CYCLE: [(usize, usize); 4] = [(0, 8), (1, 4), (2, 2), (3, 1)];
/// In a traced run, every n-th request is followed by a `/healthz`.
const HEALTHZ_EVERY: u64 = 8;
/// In a traced second, every n-th small single goes in-process through
/// `Router::submit` instead of over HTTP.
const SERVICE_EVERY: u64 = 2;
/// In a traced run, every n-th batch is replayed through
/// `Router::submit_many`.
const SERVICE_BATCH_EVERY: u64 = 4;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["big_mixed", "batch_stream"];

/// Small singles per operand size in a run's pool.
pub const SMALL_PER_SIZE: usize = 64;
/// Distinct batches in a run's pool.
pub const BATCHES: usize = 24;

/// The generated inputs of one run.
pub struct Inputs {
    /// Small singles, the sizes interleaved.
    pub small: Vec<MulCase>,
    /// One large single per class of [`BIG_CLASSES`].
    pub big: Vec<MulCase>,
    pub batches: Vec<BatchCase>,
}

impl Inputs {
    /// Build every input from `seed`: [`SMALL_PER_SIZE`] singles per
    /// small size, one per large class, [`BATCHES`] batches.
    #[must_use]
    pub fn build(seed: u64) -> Inputs {
        let small = (0..SMALL_PER_SIZE)
            .flat_map(|i| {
                SMALL_BITS.iter().map(move |&bits| {
                    MulCase::new(splitmix64(seed ^ 0x51 ^ (i as u64) << 8 ^ bits), bits)
                })
            })
            .collect();
        let big = std::thread::scope(|s| {
            let handles: Vec<_> = BIG_CLASSES
                .iter()
                .map(|&(_, bits)| {
                    s.spawn(move || MulCase::new(splitmix64(seed ^ 0xb1 ^ bits), bits))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread"))
                .collect()
        });
        let batches = (0..BATCHES)
            .map(|i| BatchCase::new(splitmix64(seed ^ 0xba ^ (i as u64) << 8), BATCH_LEN))
            .collect();
        Inputs {
            small,
            big,
            batches,
        }
    }
}

/// Requests attempted, failed (any non-200, transport error or wrong
/// product) and wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
    pub wrong: AtomicU64,
}

impl Tally {
    fn fail(&self, wrong: bool) -> bool {
        self.failed.fetch_add(1, Ordering::Relaxed);
        if wrong {
            self.wrong.fetch_add(1, Ordering::Relaxed);
        }
        false
    }
}

/// Shared state of one run.
pub struct Ctx<'a> {
    pub server: &'a HttpServer,
    pub addr: SocketAddr,
    pub inputs: &'a Inputs,
    pub seed: u64,
    pub tally: Tally,
    pub tracer: &'a Tracer,
    /// TCP connections opened by the client, reconnects included.
    pub connects: AtomicU64,
    /// Traced-run samples, filled only when tracing.
    pub traced: Mutex<TraceSamples>,
}

/// What a traced run records besides spans.
#[derive(Default)]
pub struct TraceSamples {
    /// `/healthz` round trips, µs.
    pub healthz_us: Vec<f64>,
    /// In-process `Router::submit(..).wait()` round trips: (bits, µs).
    pub service_us: Vec<(u64, f64)>,
    /// In-process `Router::submit_many(..).wait()` round trips, µs.
    pub service_batch_us: Vec<f64>,
    /// Client round trips of `/v1/mul` (all sizes) and `/v1/mul/batch`, µs.
    pub mul_exchange_us: Vec<f64>,
    pub batch_exchange_us: Vec<f64>,
    /// Small-single latencies from due time in untraced and traced
    /// blocks of the same phase, ms.
    pub untraced_small_ms: Vec<f64>,
    pub traced_small_ms: Vec<f64>,
    /// Per traced request of the workload's main kind: (due→verified,
    /// lateness, client verify) µs.
    pub requests: Vec<(f64, f64, f64)>,
}

/// Samples a run produces.
#[derive(Default)]
pub struct Samples {
    /// Small-single open-loop timings, each phase in due-time order, and
    /// the median latency (ms) of each window of due times.
    pub small: Vec<Timed>,
    pub small_windows: Vec<f64>,
    /// Whether the generator's lateness kept growing within any one
    /// open-loop phase ([`lateness_growing`]).
    pub lateness_growing: bool,
    /// Closed-loop small singles per second, one figure per window.
    pub capacity: Vec<f64>,
    /// Large-single exchange times per class, ms.
    pub big: [Vec<f64>; 4],
    /// Batch exchange times, ms, and batch pairs per second, one figure
    /// per window.
    pub batch: Vec<f64>,
    pub batch_pairs: Vec<f64>,
    /// Server CPU time (the process's, less the client threads'): µs
    /// per batch pair, one figure per batch phase; ms per large single,
    /// one per exchange.
    pub batch_cpu_us: Vec<f64>,
    pub big_cpu_ms: [Vec<f64>; 4],
}

impl Ctx<'_> {
    fn pick_small(&self, stream: u64, i: u64) -> &MulCase {
        let n = self.inputs.small.len() as u64;
        &self.inputs.small[(splitmix64(self.seed ^ stream << 48 ^ i) % n) as usize]
    }

    fn pick_batch(&self, stream: u64, i: u64) -> &BatchCase {
        let n = self.inputs.batches.len() as u64;
        &self.inputs.batches[(splitmix64(self.seed ^ 0xba7c ^ stream << 48 ^ i) % n) as usize]
    }

    fn attempt(&self) {
        self.tally.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// POST one single and check its product. Returns (ok, sent, got):
    /// whether it succeeded, and when it went out and came back. A
    /// nonzero `request` records its spans.
    fn mul(&self, conn: &mut Conn, case: &MulCase, request: u64) -> (bool, Instant, Instant) {
        self.attempt();
        let sent = Instant::now();
        let rsp = conn.request("POST", "/v1/mul", Some(&case.body));
        let got = Instant::now();
        let ok = match rsp {
            Ok(rsp) if rsp.status == 200 => {
                let check = || {
                    product_field(&rsp.text())
                        .is_some_and(|p| product_matches(&p, &case.product_hex))
                };
                let good = if request == 0 {
                    check()
                } else {
                    self.tracer.record("http.mul", request, request, sent, got);
                    self.tracer.time("client.verify", request, request, check)
                };
                good || self.tally.fail(true)
            }
            _ => self.tally.fail(false),
        };
        (ok, sent, got)
    }

    /// POST one batch, checking every streamed product. Returns ok. A
    /// slot that streams an error fails the batch; one that streams a
    /// product other than the reference makes it wrong.
    fn batch(&self, conn: &mut Conn, case: &BatchCase, request: u64) -> bool {
        self.attempt();
        let (mut slot, mut errors, mut wrong) = (0usize, 0usize, 0usize);
        let sent = Instant::now();
        let rsp = conn.request_streaming("POST", "/v1/mul/batch", Some(&case.body), |line| {
            match product_field(line) {
                None => errors += 1,
                Some(p)
                    if !case
                        .products
                        .get(slot)
                        .is_some_and(|want| product_matches(&p, want)) =>
                {
                    wrong += 1
                }
                Some(_) => {}
            }
            slot += 1;
        });
        if request != 0 {
            let got = Instant::now();
            self.tracer
                .record("http.batch", request, request, sent, got);
            self.traced
                .lock()
                .unwrap()
                .batch_exchange_us
                .push(ms(got - sent) * 1e3);
        }
        match rsp {
            Ok(rsp) if rsp.status == 200 && wrong > 0 => self.tally.fail(true),
            Ok(rsp) if rsp.status == 200 && errors == 0 && slot == case.products.len() => true,
            _ => self.tally.fail(false),
        }
    }

    /// Traced runs only: a `/healthz` round trip after every
    /// [`HEALTHZ_EVERY`]-th request.
    fn maybe_healthz(&self, conn: &mut Conn, i: u64) {
        if !self.tracer.enabled() || i % HEALTHZ_EVERY != HEALTHZ_EVERY - 1 {
            return;
        }
        let start = Instant::now();
        let ok = conn
            .request("GET", "/healthz", None)
            .is_ok_and(|r| r.status == 200);
        let end = Instant::now();
        let request = self.tracer.id();
        self.tracer.record("net.healthz", 0, request, start, end);
        if ok {
            self.traced
                .lock()
                .unwrap()
                .healthz_us
                .push(ms(end - start) * 1e3);
        }
    }

    /// Open-loop small singles on `streams` connections at `rate` in
    /// total from `start` until `end`, in due-time order. In a traced
    /// run, whole seconds alternate between untraced and traced so the
    /// tracing overhead is measured in the same phase.
    pub fn open_small(
        &self,
        streams: usize,
        rate: f64,
        start: Instant,
        end: Instant,
    ) -> Vec<Timed> {
        let tick = Duration::from_secs_f64(streams as f64 / rate);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..streams)
                .map(|stream| {
                    s.spawn(move || {
                        let mut conn = Conn::new(self.addr);
                        let offset = tick.mul_f64(stream as f64 / streams as f64);
                        let stream = stream as u64;
                        let mut exchanges = Vec::new();
                        let mut untraced = Vec::new();
                        let timed = open_loop(start, offset, tick, end, |i, due| {
                            let case = self.pick_small(stream, i);
                            let traced = self.tracer.enabled() && (due - start).as_secs() % 2 == 1;
                            let request = if traced { self.tracer.id() } else { 0 };
                            if traced && i % SERVICE_EVERY == 0 {
                                // Sent in-process at its due time instead of over
                                // HTTP, so it meets the queue an HTTP request would.
                                return self.replay_single(case, request);
                            }
                            let (ok, sent, got) = self.mul(&mut conn, case, request);
                            if self.tracer.enabled() && ok {
                                exchanges.push(ms(got - sent) * 1e3);
                            }
                            if !traced {
                                if self.tracer.enabled() && ok {
                                    untraced.push(ms(got - due));
                                }
                                return ok;
                            }
                            let done = Instant::now();
                            self.tracer
                                .record("client.wait", request, request, due, sent);
                            self.tracer.record_root("request", request, due, done);
                            if ok {
                                let mut t = self.traced.lock().unwrap();
                                t.traced_small_ms.push(ms(got - due));
                                t.requests.push((
                                    ms(done - due) * 1e3,
                                    ms(sent - due) * 1e3,
                                    ms(done - got) * 1e3,
                                ));
                            }
                            self.maybe_healthz(&mut conn, i);
                            ok
                        });
                        self.connects.fetch_add(conn.connects, Ordering::Relaxed);
                        let mut t = self.traced.lock().unwrap();
                        t.untraced_small_ms.extend(untraced);
                        t.mul_exchange_us.extend(exchanges);
                        timed
                    })
                })
                .collect();
            by_due(handles.into_iter().map(|h| h.join().expect("small stream")))
        })
    }

    /// In-process `Router::submit(..).wait()` on a single's operands,
    /// counted and checked like an HTTP request; returns ok.
    fn replay_single(&self, case: &MulCase, request: u64) -> bool {
        self.attempt();
        let start = Instant::now();
        let product = self
            .server
            .router()
            .submit(case.a.clone(), case.b.clone())
            .ok()
            .and_then(|h| h.wait().ok());
        let end = Instant::now();
        self.tracer.record("service.submit", 0, request, start, end);
        match product {
            Some(p) if p == case.product => {
                self.traced
                    .lock()
                    .unwrap()
                    .service_us
                    .push((case.bits, ms(end - start) * 1e3));
                true
            }
            Some(_) => self.tally.fail(true),
            None => self.tally.fail(false),
        }
    }

    /// Closed-loop small singles on every connection until `end`:
    /// (completion times, s from the phase's start; phase length, s).
    pub fn closed_small(&self, streams: usize, end: Instant) -> (Vec<f64>, f64) {
        let start = Instant::now();
        let mut done: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..streams)
                .map(|stream| {
                    s.spawn(move || {
                        let mut conn = Conn::new(self.addr);
                        let mut done = Vec::new();
                        let stream = 0x100 + stream as u64;
                        for i in 0u64.. {
                            if Instant::now() >= end {
                                break;
                            }
                            let (ok, _, got) = self.mul(&mut conn, self.pick_small(stream, i), 0);
                            if ok {
                                done.push((got - start).as_secs_f64());
                            }
                        }
                        self.connects.fetch_add(conn.connects, Ordering::Relaxed);
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("closed stream"))
                .collect()
        });
        done.sort_by(f64::total_cmp);
        (done, start.elapsed().as_secs_f64())
    }

    /// Closed-loop large singles on one connection, repeating `cycle`
    /// until `end`, checked before each request once the first whole
    /// cycle is done (so every class is sampled): exchange times per
    /// class, ms; the CPU milliseconds the process used in each exchange
    /// beyond this thread's own, per class; and the instants at which
    /// each whole cycle ended.
    pub fn big_loop(
        &self,
        cycle: &[(usize, usize)],
        end: Instant,
    ) -> ([Vec<f64>; 4], [Vec<f64>; 4], Vec<Instant>) {
        let mut conn = Conn::new(self.addr);
        let mut out: [Vec<f64>; 4] = Default::default();
        let mut cpu_ms: [Vec<f64>; 4] = Default::default();
        let mut cycle_ends = Vec::new();
        'cycles: loop {
            for &(class, count) in cycle {
                for _ in 0..count {
                    if !cycle_ends.is_empty() && Instant::now() >= end {
                        break 'cycles;
                    }
                    let case = &self.inputs.big[class];
                    let request = if self.tracer.enabled() {
                        self.tracer.id()
                    } else {
                        0
                    };
                    let (process0, thread0) = (cpu::process_s(), cpu::thread_s());
                    let (ok, sent, got) = self.mul(&mut conn, case, request);
                    let server_s = cpu::process_s() - process0 - (cpu::thread_s() - thread0);
                    self.tracer
                        .record_root("request", request, sent, Instant::now());
                    if ok {
                        out[class].push(ms(got - sent));
                        cpu_ms[class].push(server_s * 1e3);
                    }
                }
            }
            cycle_ends.push(Instant::now());
        }
        self.connects.fetch_add(conn.connects, Ordering::Relaxed);
        if self.tracer.enabled() {
            self.traced
                .lock()
                .unwrap()
                .mul_exchange_us
                .extend(out.iter().flatten().map(|x| x * 1e3));
        }
        (out, cpu_ms, cycle_ends)
    }

    /// Closed-loop batches on `streams` connections until `end`:
    /// exchanges in completion order (s from the phase's start, ms,
    /// pairs), the phase's length, s, and the CPU seconds the client
    /// threads used.
    pub fn batches(&self, streams: usize, end: Instant) -> (Vec<(f64, f64, u64)>, f64, f64) {
        let start = Instant::now();
        type Done = Vec<(f64, f64, u64)>;
        let (done, cpu): (Vec<Done>, Vec<f64>) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..streams)
                .map(|stream| {
                    s.spawn(move || {
                        let cpu0 = cpu::thread_s();
                        let mut conn = Conn::new(self.addr);
                        let mut done = Vec::new();
                        for i in 0u64.. {
                            if Instant::now() >= end {
                                break;
                            }
                            let case = self.pick_batch(stream as u64, i);
                            let request = if self.tracer.enabled() {
                                self.tracer.id()
                            } else {
                                0
                            };
                            let t0 = Instant::now();
                            let ok = self.batch(&mut conn, case, request);
                            let got = Instant::now();
                            if ok {
                                done.push((
                                    (got - start).as_secs_f64(),
                                    ms(got - t0),
                                    case.products.len() as u64,
                                ));
                            }
                            if self.tracer.enabled() {
                                self.tracer.record_root("request", request, t0, got);
                                if ok {
                                    self.traced.lock().unwrap().requests.push((
                                        ms(got - t0) * 1e3,
                                        0.0,
                                        0.0,
                                    ));
                                }
                                self.maybe_healthz(&mut conn, i);
                                if i % SERVICE_BATCH_EVERY == 0 {
                                    self.replay_batch(case, request);
                                }
                            }
                        }
                        self.connects.fetch_add(conn.connects, Ordering::Relaxed);
                        (done, cpu::thread_s() - cpu0)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch stream"))
                .unzip()
        });
        let mut done: Done = done.into_iter().flatten().collect();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        (done, start.elapsed().as_secs_f64(), cpu.iter().sum())
    }

    /// In-process `Router::submit_many(..).wait()` on a batch's pairs,
    /// counted and checked slot by slot like an HTTP batch.
    fn replay_batch(&self, case: &BatchCase, request: u64) {
        self.attempt();
        let start = Instant::now();
        let results = self
            .server
            .router()
            .submit_many(case.pairs.clone())
            .map(|h| h.wait());
        let end = Instant::now();
        self.tracer
            .record("service.submit_many", 0, request, start, end);
        let Ok(results) = results else {
            self.tally.fail(false);
            return;
        };
        let wrong = results.iter().zip(&case.products).any(|(got, want)| {
            got.as_ref()
                .is_ok_and(|p| !product_matches(&p.to_hex(), want))
        });
        if wrong {
            self.tally.fail(true);
        } else if results.len() != case.products.len() || results.iter().any(Result::is_err) {
            self.tally.fail(false);
        } else {
            self.traced
                .lock()
                .unwrap()
                .service_batch_us
                .push(ms(end - start) * 1e3);
        }
    }
}

/// Rounds an untraced run cuts its phases into, so a burst of host
/// noise that covers part of a run touches only part of each phase's
/// samples.
pub const ROUNDS: usize = 4;
/// Window of the per-window figures, s: throughputs, and small-single
/// latency where the main phase's traffic is uniform. On `big_mixed` a
/// round's small-single window spans its whole [`BIG_CYCLE`]s instead, so
/// that every window holds the head-of-line waits behind 9m jobs in their
/// share of the cycle, and enough of them for a steady median.
pub const RATE_WINDOW_S: f64 = 0.5;
/// One cycle of the large-single probe, largest class first, repeated
/// until the probe's share of a round is spent.
pub const BIG_PROBE: [(usize, usize); 4] = [(3, 1), (2, 1), (1, 2), (0, 2)];

/// Run `workload` for about `seconds` and return its samples.
///
/// An untraced run (`probes`) cuts the run into [`ROUNDS`] rounds; each
/// round runs the main phase and then probes for the end-to-end metrics
/// the main phase does not produce. Shares of the run:
///
/// * `big_mixed`: connection A sends small singles open-loop at
///   [`LIGHT_RATE`] while connection B cycles [`BIG_CYCLE`] closed-loop
///   (65%); probes: capacity (15%) and batches (20%).
/// * `batch_stream`: closed-loop batches on both connections (45%);
///   probes: open-loop small singles at [`SMALL_RATE`] (15%), capacity
///   (10%) and [`BIG_PROBE`] cycles (30%).
///
/// A traced run runs the main phase alone for the whole time, so the
/// server's counters over the run describe the main phase.
pub fn run(ctx: &Ctx<'_>, workload: &str, seconds: f64, probes: bool) -> Samples {
    let rounds = if probes { ROUNDS } else { 1 };
    let share = |s: f64| if probes { s / rounds as f64 } else { 1.0 };
    let at = |s: f64| Instant::now() + Duration::from_secs_f64(seconds * share(s));
    let mut out = Samples::default();
    for _ in 0..rounds {
        match workload {
            "big_mixed" => {
                let (start, end) = (Instant::now(), at(0.65));
                std::thread::scope(|s| {
                    let a = s.spawn(|| ctx.open_small(1, LIGHT_RATE, start, end));
                    let cycle_ends = out.big(ctx, &BIG_CYCLE, end);
                    // One window over the whole cycles that ended before
                    // connection A stopped (a later one lacks part of its
                    // waits).
                    let cuts = std::iter::once(start)
                        .chain(cycle_ends.into_iter().rev().find(|&t| t <= end))
                        .map(|t| (t - start).as_secs_f64())
                        .collect();
                    out.small_singles(a.join().expect("connection A"), Some(cuts));
                });
                if probes {
                    out.capacity(ctx, at(0.15));
                    out.batches(ctx, at(0.20));
                }
            }
            "batch_stream" => {
                out.batches(ctx, at(0.45));
                if probes {
                    out.small_singles(
                        ctx.open_small(CONNECTIONS, SMALL_RATE, Instant::now(), at(0.15)),
                        None,
                    );
                    out.capacity(ctx, at(0.10));
                    out.big(ctx, &BIG_PROBE, at(0.30));
                }
            }
            other => panic!("unknown workload {other:?}"),
        }
    }
    out
}

impl Samples {
    /// One open-loop phase's small singles, in due-time order, with the
    /// median latency of each window of due times. Windows run between
    /// consecutive `cuts` (s from the phase's start), by default every
    /// [`RATE_WINDOW_S`] up to the last whole one; a phase too short for
    /// one whole window is one window. Lateness is judged per phase: it
    /// starts afresh with each phase's schedule.
    fn small_singles(&mut self, timed: Vec<Timed>, cuts: Option<Vec<f64>>) {
        let late: Vec<f64> = timed.iter().map(|t| t.late_ms).collect();
        self.lateness_growing |= lateness_growing(&late, 1.0);
        let last = timed.last().map_or(0.0, |t| t.due_s);
        let mut cuts = cuts.unwrap_or_else(|| {
            let whole = (last / RATE_WINDOW_S).floor() as usize;
            (0..=whole).map(|w| w as f64 * RATE_WINDOW_S).collect()
        });
        if cuts.len() < 2 {
            cuts = vec![0.0, f64::INFINITY];
        }
        for w in cuts.windows(2) {
            let inside: Vec<f64> = timed
                .iter()
                .filter(|t| t.due_s >= w[0] && t.due_s < w[1])
                .map(|t| t.latency_ms)
                .collect();
            if !inside.is_empty() {
                self.small_windows.push(median(&inside));
            }
        }
        self.small.extend(timed);
    }

    /// A closed-loop capacity phase until `end`.
    fn capacity(&mut self, ctx: &Ctx<'_>, end: Instant) {
        let (done, secs) = ctx.closed_small(CONNECTIONS, end);
        let events: Vec<(f64, f64)> = done.iter().map(|&t| (t, 1.0)).collect();
        self.capacity
            .extend(window_rates(&events, secs, RATE_WINDOW_S));
    }

    /// A closed-loop batch phase until `end`.
    fn batches(&mut self, ctx: &Ctx<'_>, end: Instant) {
        let cpu0 = cpu::process_s();
        let (done, secs, client_s) = ctx.batches(CONNECTIONS, end);
        let server_s = cpu::process_s() - cpu0 - client_s;
        let pairs: u64 = done.iter().map(|b| b.2).sum();
        if pairs > 0 {
            self.batch_cpu_us.push(server_s * 1e6 / pairs as f64);
        }
        let events: Vec<(f64, f64)> = done.iter().map(|b| (b.0, b.2 as f64)).collect();
        self.batch_pairs
            .extend(window_rates(&events, secs, RATE_WINDOW_S));
        self.batch.extend(done.iter().map(|b| b.1));
    }

    /// Large singles: `cycle` until `end`; returns the instants at which
    /// whole cycles ended.
    fn big(&mut self, ctx: &Ctx<'_>, cycle: &[(usize, usize)], end: Instant) -> Vec<Instant> {
        let (times, cpu_ms, cycle_ends) = ctx.big_loop(cycle, end);
        for (all, new) in self.big.iter_mut().zip(times) {
            all.extend(new);
        }
        for (all, new) in self.big_cpu_ms.iter_mut().zip(cpu_ms) {
            all.extend(new);
        }
        cycle_ends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One stream of a phase: a request every 10 ms from `offset_s`,
    /// whose lateness grows by 1 ms every 10 ms.
    fn stream(offset_s: f64) -> Vec<Timed> {
        (0..100)
            .map(|i| {
                let due_s = offset_s + f64::from(i) * 0.01;
                Timed {
                    due_s,
                    late_ms: f64::from(i),
                    latency_ms: f64::from(i) + 0.5,
                }
            })
            .collect()
    }

    #[test]
    fn growing_lateness_is_flagged_per_phase_across_interleaved_streams() {
        // Stream after stream, the quarters' medians rise, fall and rise
        // again, so the concatenation hides the growth.
        let concatenated: Vec<f64> = stream(0.0)
            .into_iter()
            .chain(stream(0.005))
            .map(|t| t.late_ms)
            .collect();
        assert!(!lateness_growing(&concatenated, 1.0));
        // Merged in due-time order, within each of several phases whose
        // schedules start afresh, it shows.
        let mut s = Samples::default();
        for _ in 0..ROUNDS {
            let phase = by_due([stream(0.0), stream(0.005)]);
            assert!(phase.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            s.small_singles(phase, None);
        }
        assert!(s.lateness_growing);
        // Over all rounds together the lateness resets each round, and
        // would not be flagged.
        let all: Vec<f64> = s.small.iter().map(|t| t.late_ms).collect();
        assert!(!lateness_growing(&all, 1.0));
        // Steady lateness in every phase is not flagged.
        let mut steady = Samples::default();
        steady.small_singles(
            by_due(
                [stream(0.0), stream(0.005)]
                    .map(|v| v.into_iter().map(|t| Timed { late_ms: 0.2, ..t }).collect()),
            ),
            None,
        );
        assert!(!steady.lateness_growing);
    }

    #[test]
    fn latency_windows_are_whole_and_follow_the_cuts() {
        // 1.2 s of due times 1 ms apart; latency (ms) = due time (ms).
        let timed: Vec<Timed> = (0..1200)
            .map(|i| Timed {
                due_s: f64::from(i) / 1e3,
                late_ms: 0.0,
                latency_ms: f64::from(i),
            })
            .collect();
        let windows = |timed: &[Timed], cuts: Option<Vec<f64>>| {
            let mut s = Samples::default();
            s.small_singles(timed.to_vec(), cuts);
            s.small_windows
        };
        // Two whole half-second windows; the last 0.2 s, cut short by the
        // phase's end, is left out.
        assert_eq!(windows(&timed, None), vec![249.5, 749.5]);
        // Windows between given cuts, such as whole cycles of large jobs.
        assert_eq!(
            windows(&timed, Some(vec![0.0, 0.3, 1.0])),
            vec![149.5, 649.5]
        );
        // A phase too short for one whole window is one window.
        assert_eq!(windows(&timed[..300], None), vec![149.5]);
        assert_eq!(windows(&timed[..300], Some(vec![0.0])), vec![149.5]);
    }
}
