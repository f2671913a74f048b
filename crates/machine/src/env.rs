//! The machine runtime: configuration, per-rank environment, fault plans,
//! and run reports.

use crate::cost::{CostParams, CostVector};
use crate::message::{MatchKey, Message};
use crate::trace::TraceEvent;
use crossbeam::channel::{unbounded, Receiver, Sender};
use ft_bigint::{metrics, splitmix64, BigInt};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};

/// Configuration of a simulated machine run.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processor slots (including any code/replica processors the
    /// algorithm layer assigns meaning to).
    pub processors: usize,
    /// Cost model parameters (only used when converting costs to time).
    pub cost: CostParams,
    /// Optional local-memory limit in words; ranks report their footprint
    /// via [`Env::note_memory`] and violations are recorded in the report.
    pub memory_limit: Option<u64>,
    /// Record every message and death into the run trace.
    pub trace: bool,
    /// Hard faults to inject.
    pub faults: FaultPlan,
    /// Delay faults (the paper's third category): `(rank, factor)` pairs —
    /// the rank's arithmetic is charged `factor`-fold on its critical-path
    /// clock, modeling a processor whose average time per operation has
    /// increased. Raw work counters are unaffected.
    pub slowdowns: Vec<(usize, u64)>,
    /// Unplanned seeded-random hard faults, drawn at fault points the
    /// allowlist names. `None` disables random faults.
    pub random: Option<RandomFaults>,
}

impl MachineConfig {
    /// A machine with `processors` ranks, default costs, no memory limit,
    /// no tracing, no faults.
    #[must_use]
    pub fn new(processors: usize) -> MachineConfig {
        MachineConfig {
            processors,
            cost: CostParams::default(),
            memory_limit: None,
            trace: false,
            faults: FaultPlan::none(),
            slowdowns: Vec::new(),
            random: None,
        }
    }

    /// Add a delay fault: `rank` computes `factor`× slower.
    #[must_use]
    pub fn with_slowdown(mut self, rank: usize, factor: u64) -> MachineConfig {
        self.slowdowns.push((rank, factor));
        self
    }

    /// Enable message tracing.
    #[must_use]
    pub fn with_trace(mut self) -> MachineConfig {
        self.trace = true;
        self
    }

    /// Set the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> MachineConfig {
        self.faults = faults;
        self
    }

    /// Set the per-rank memory limit (words).
    #[must_use]
    pub fn with_memory_limit(mut self, words: u64) -> MachineConfig {
        self.memory_limit = Some(words);
        self
    }

    /// Enable unplanned seeded-random hard faults.
    #[must_use]
    pub fn with_random_faults(mut self, random: RandomFaults) -> MachineConfig {
        self.random = Some(random);
        self
    }
}

/// Unplanned hard faults: every passage through an allowlisted fault point
/// draws from a deterministic hash of `(seed, rank, label, occurrence)` and
/// kills the rank with probability `per_10k / 10_000`, subject to a global
/// per-run budget of `max_faults` deaths.
///
/// The label allowlist restricts random deaths to fault points the running
/// algorithm can actually recover from (e.g. the polynomial-code layer
/// survives deaths at `poly-halt` but a death inside a nested recursion
/// boundary would need the linear code's recovery); callers list exactly
/// the labels their recovery protocol covers.
///
/// Draws are pure in `(seed, rank, label, occurrence)`, so a run is fully
/// deterministic whenever the number of firing draws is within budget;
/// beyond the budget, which candidates win depends on thread scheduling
/// (first-come-first-killed), mirroring a real machine where "at most `f`
/// concurrent faults" is an assumption, not a guarantee.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RandomFaults {
    /// Seed mixed into every draw.
    pub seed: u64,
    /// Per-passage death probability in units of 1/10_000.
    pub per_10k: u32,
    /// Global cap on random deaths per machine run.
    pub max_faults: u32,
    /// Fault-point labels eligible for random death (exact match).
    pub labels: Vec<String>,
}

impl RandomFaults {
    /// `true` iff `label` is eligible for random faults.
    #[must_use]
    pub fn allows(&self, label: &str) -> bool {
        self.labels.iter().any(|l| l == label)
    }

    /// Deterministic draw: would this passage die (ignoring the budget)?
    #[must_use]
    pub fn fires(&self, rank: usize, label: &str, occurrence: u32) -> bool {
        if self.per_10k == 0 || self.max_faults == 0 {
            return false;
        }
        let mut h = splitmix64(self.seed ^ fnv1a(label));
        h = splitmix64(h ^ (u64::from(occurrence) << 32) ^ rank as u64);
        h % 10_000 < u64::from(self.per_10k)
    }
}

/// FNV-1a over the label bytes (stable, no external hasher dependency).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One planned hard fault: rank `rank` dies the `occurrence`-th time it
/// passes the fault point labelled `label`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Victim rank slot.
    pub rank: usize,
    /// Fault-point label at which to die.
    pub label: String,
    /// Which passage through the label triggers death (0-based).
    pub occurrence: u32,
}

/// A deterministic hard-fault plan.
///
/// The plan is **injection-only**: it decides which ranks die where, and
/// nothing inside the machine run may read it. Survivors learn about
/// failures through the heartbeat/detection layer ([`crate::detect`]) —
/// the paper assumes *detected* fail-stop faults, and detection here is
/// earned, not oracled. The query methods ([`FaultPlan::victims_at`],
/// [`FaultPlan::is_victim`]) exist for hosts and tests that assert on what
/// was injected after the fact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// No faults.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Kill `rank` at its first passage through `label`.
    #[must_use]
    pub fn kill(mut self, rank: usize, label: &str) -> FaultPlan {
        self.specs.push(FaultSpec {
            rank,
            label: label.to_string(),
            occurrence: 0,
        });
        self
    }

    /// Kill `rank` at its `occurrence`-th passage through `label`.
    #[must_use]
    pub fn kill_at(mut self, rank: usize, label: &str, occurrence: u32) -> FaultPlan {
        self.specs.push(FaultSpec {
            rank,
            label: label.to_string(),
            occurrence,
        });
        self
    }

    /// All planned faults.
    #[must_use]
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of planned faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` iff no faults are planned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Ranks that die at the given label (any occurrence).
    #[must_use]
    pub fn victims_at(&self, label: &str) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .specs
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.rank)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// `true` iff the given rank dies anywhere in the plan.
    #[must_use]
    pub fn is_victim(&self, rank: usize) -> bool {
        self.specs.iter().any(|s| s.rank == rank)
    }

    fn matches(&self, rank: usize, label: &str, occurrence: u32) -> bool {
        self.specs
            .iter()
            .any(|s| s.rank == rank && s.label == label && s.occurrence == occurrence)
    }
}

/// What a rank learns at a fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Keep going; local state intact.
    Alive,
    /// This processor slot just died and was re-provisioned: all prior
    /// local state is gone (the program must discard it) and the slot now
    /// runs as a fresh replacement processor.
    Reborn,
}

#[derive(Debug, Clone, Copy, Default)]
struct RawTotals {
    flops: u64,
    words_sent: u64,
    msgs_sent: u64,
}

/// Failure-detection counters accumulated by a rank. Verdict-level
/// counters (deaths declared, stragglers, false positives, worst miss)
/// are recorded by the round's monitor only, so summing over ranks gives
/// run-level totals without double counting; `rounds` counts every
/// round this rank participated in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectStats {
    /// Detection rounds this rank took part in.
    pub rounds: u64,
    /// Ranks this rank (as monitor) declared dead, summed over rounds.
    pub dead_declared: u64,
    /// Ranks this rank (as monitor) flagged as stragglers.
    pub stragglers_flagged: u64,
    /// Declared-dead ranks that had in fact never died (incarnation 0).
    pub false_positives: u64,
    /// Worst heartbeat lag seen on any declared-dead rank (simulated
    /// ticks between the last surviving heartbeat and detection).
    pub max_missed: u64,
}

impl DetectStats {
    /// Fold another stats record into this one (sums, max for lag).
    pub fn merge(&mut self, other: &DetectStats) {
        self.rounds += other.rounds;
        self.dead_declared += other.dead_declared;
        self.stragglers_flagged += other.stragglers_flagged;
        self.false_positives += other.false_positives;
        self.max_missed = self.max_missed.max(other.max_missed);
    }
}

/// Per-rank outcome of a run.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Rank slot.
    pub rank: usize,
    /// Critical-path cost vector carried by this rank at program end.
    pub cost: CostVector,
    /// Total arithmetic performed by this rank (not critical-path).
    pub total_flops: u64,
    /// Total words sent by this rank.
    pub total_words_sent: u64,
    /// Total messages sent by this rank.
    pub total_msgs_sent: u64,
    /// Peak memory footprint reported via [`Env::note_memory`] (words).
    pub peak_memory: u64,
    /// Number of times this slot died and was replaced.
    pub deaths: u32,
    /// Failure-detection counters (see [`DetectStats`]).
    pub detect: DetectStats,
    /// Memory-limit violations (empty when within limit / no limit set).
    pub memory_violations: Vec<String>,
}

/// Outcome of a whole machine run.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Per-rank program return values, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank cost reports, indexed by rank.
    pub ranks: Vec<RankReport>,
    /// Message/death trace (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
}

impl<T> RunReport<T> {
    /// Critical-path cost of the run: join over all ranks.
    #[must_use]
    pub fn critical_path(&self) -> CostVector {
        self.ranks
            .iter()
            .fold(CostVector::zero(), |acc, r| acc.join(&r.cost))
    }

    /// Sum of all arithmetic performed by all ranks (total work).
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.ranks.iter().map(|r| r.total_flops).sum()
    }

    /// Sum of all words sent by all ranks (total traffic).
    #[must_use]
    pub fn total_words(&self) -> u64 {
        self.ranks.iter().map(|r| r.total_words_sent).sum()
    }

    /// Total number of deaths across ranks.
    #[must_use]
    pub fn total_deaths(&self) -> u32 {
        self.ranks.iter().map(|r| r.deaths).sum()
    }

    /// All memory violations across ranks.
    #[must_use]
    pub fn memory_violations(&self) -> Vec<&str> {
        self.ranks
            .iter()
            .flat_map(|r| r.memory_violations.iter().map(String::as_str))
            .collect()
    }

    /// Maximum peak memory over ranks (words).
    #[must_use]
    pub fn peak_memory(&self) -> u64 {
        self.ranks.iter().map(|r| r.peak_memory).max().unwrap_or(0)
    }

    /// Run-level failure-detection totals (verdict counters are recorded
    /// once per round by the monitor, so the fold does not double count).
    #[must_use]
    pub fn detect_totals(&self) -> DetectStats {
        let mut total = DetectStats::default();
        for r in &self.ranks {
            total.merge(&r.detect);
        }
        total
    }
}

/// The per-rank execution environment handed to the SPMD program.
pub struct Env<'a> {
    rank: usize,
    size: usize,
    config: &'a MachineConfig,
    senders: &'a [Sender<Message>],
    receiver: Receiver<Message>,
    pending: RefCell<HashMap<MatchKey, VecDeque<Message>>>,
    cost: Cell<CostVector>,
    raw: Cell<RawTotals>,
    ops_base: Cell<u64>,
    incarnation: Cell<u32>,
    slow_factor: Cell<u64>,
    fault_counts: RefCell<HashMap<String, u32>>,
    /// Heartbeats this slot *should* have posted by now: one per fault
    /// point passed, monotone across deaths. In the SPMD model the
    /// replacement processor resumes the same program, so it knows its
    /// phase stamp even though it lost all data.
    hb_total: Cell<u64>,
    /// Heartbeats actually surviving since this incarnation's birth —
    /// reset to zero on death (the posted watermark dies with the state).
    /// `hb_total - hb_live` is the rank's heartbeat lag.
    hb_live: Cell<u64>,
    detect: Cell<DetectStats>,
    /// Remaining-budget counter for random faults, shared by all ranks.
    random_used: &'a AtomicU32,
    trace: Option<&'a Mutex<Vec<TraceEvent>>>,
    peak_memory: Cell<u64>,
    memory_violations: RefCell<Vec<String>>,
}

impl<'a> Env<'a> {
    /// This processor's rank in `0..size`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of processor slots.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The configured memory limit, if any.
    #[must_use]
    pub fn memory_limit(&self) -> Option<u64> {
        self.config.memory_limit
    }

    /// Fold freshly performed `ft-bigint` word operations into the cost
    /// vector. Called automatically at every communication and fault point.
    fn sync_flops(&self) {
        let now = metrics::ops_performed();
        let delta = now.wrapping_sub(self.ops_base.get());
        self.ops_base.set(now);
        if delta > 0 {
            let mut c = self.cost.get();
            c.f += delta * self.slow_factor.get();
            self.cost.set(c);
            let mut r = self.raw.get();
            r.flops += delta;
            self.raw.set(r);
        }
    }

    /// This rank's delay factor (1 = healthy).
    #[must_use]
    pub fn slow_factor(&self) -> u64 {
        self.slow_factor.get()
    }

    /// Charge extra arithmetic not performed through `ft-bigint` (e.g.
    /// index arithmetic an implementation chooses to count).
    pub fn charge_flops(&self, n: u64) {
        let mut c = self.cost.get();
        c.f += n;
        self.cost.set(c);
        let mut r = self.raw.get();
        r.flops += n;
        self.raw.set(r);
    }

    /// Current critical-path cost vector of this rank.
    #[must_use]
    pub fn cost(&self) -> CostVector {
        self.sync_flops();
        self.cost.get()
    }

    /// Send `payload` to rank `to` with the given tag. Charges one message
    /// and the payload's word count to this rank's cost vector.
    pub fn send(&self, to: usize, tag: u64, payload: &[BigInt]) {
        assert!(to < self.size, "send to rank {to} out of range");
        self.sync_flops();
        let words = Message::word_count(payload);
        let mut c = self.cost.get();
        c.bw += words;
        c.l += 1;
        self.cost.set(c);
        let mut r = self.raw.get();
        r.words_sent += words;
        r.msgs_sent += 1;
        self.raw.set(r);
        if let Some(tr) = self.trace {
            tr.lock().push(TraceEvent::Send {
                src: self.rank,
                dst: to,
                tag,
                words,
            });
        }
        self.senders[to]
            .send(Message {
                src: self.rank,
                tag,
                payload: payload.to_vec(),
                cost: c,
                incarnation: self.incarnation.get(),
            })
            .expect("machine channel closed");
    }

    /// Blocking receive of the next message from `from` with tag `tag`.
    /// Max-joins the sender's cost vector into this rank's.
    #[must_use]
    pub fn recv(&self, from: usize, tag: u64) -> Vec<BigInt> {
        self.sync_flops();
        let key: MatchKey = (from, tag);
        let msg = loop {
            if let Some(m) = self
                .pending
                .borrow_mut()
                .get_mut(&key)
                .and_then(VecDeque::pop_front)
            {
                break m;
            }
            let m = self.receiver.recv().expect("machine channel closed");
            if (m.src, m.tag) == key {
                break m;
            }
            self.pending
                .borrow_mut()
                .entry((m.src, m.tag))
                .or_default()
                .push_back(m);
        };
        self.cost.set(self.cost.get().join(&msg.cost));
        msg.payload
    }

    /// A named fault point. If the plan kills this rank here, the slot
    /// "dies": pending messages are purged (data loss) and the call returns
    /// [`Fate::Reborn`] — the program must discard local state and run its
    /// recovery path as the replacement processor.
    pub fn fault_point(&self, label: &str) -> Fate {
        self.sync_flops();
        let occurrence = {
            let mut counts = self.fault_counts.borrow_mut();
            let c = counts.entry(label.to_string()).or_insert(0);
            let cur = *c;
            *c += 1;
            cur
        };
        // Every fault point posts one heartbeat: the phase stamp advances
        // unconditionally, the surviving watermark only while alive.
        self.hb_total.set(self.hb_total.get() + 1);
        self.hb_live.set(self.hb_live.get() + 1);
        let planned = self.config.faults.matches(self.rank, label, occurrence);
        let dies = planned
            || self.config.random.as_ref().is_some_and(|rf| {
                rf.allows(label)
                    && rf.fires(self.rank, label, occurrence)
                    && take_budget(self.random_used, rf.max_faults)
            });
        if dies {
            // Hard fault: all local *state* is lost (the program must
            // discard its variables). The channel is slot-addressed
            // middleware: messages sent to this slot — including ones sent
            // by ranks that raced ahead of the failure — are delivered to
            // the replacement processor, which the recovery protocol
            // brings to the state where it consumes them correctly.
            self.incarnation.set(self.incarnation.get() + 1);
            // The posted watermark dies with the state: the replacement
            // starts at zero, so its heartbeat lag is visible to the
            // detector until the recovery protocol re-integrates it.
            self.hb_live.set(0);
            if let Some(tr) = self.trace {
                tr.lock().push(TraceEvent::Death {
                    rank: self.rank,
                    label: label.to_string(),
                    incarnation: self.incarnation.get(),
                });
            }
            Fate::Reborn
        } else {
            Fate::Alive
        }
    }

    /// Post `n` extra heartbeats while alive: both the phase stamp and
    /// the surviving watermark advance. Models a denser heartbeat
    /// schedule (`DetectorConfig::heartbeat_period`): a program that
    /// posts `h − 1` extra heartbeats just before each fault point makes
    /// a death there cost `h` missed heartbeats of lag, so deadline
    /// budgets up to `h` still detect it at the next round. Heartbeats
    /// are local state — posting them moves no messages; only the
    /// detection round's gather/scatter is charged traffic.
    pub fn post_heartbeats(&self, n: u64) {
        self.hb_total.set(self.hb_total.get() + n);
        self.hb_live.set(self.hb_live.get() + n);
    }

    /// This rank's heartbeat counters: `(phase stamp, surviving
    /// watermark)`. A healthy or fully re-integrated rank has equal
    /// counters; the difference is its heartbeat lag.
    #[must_use]
    pub fn heartbeat(&self) -> (u64, u64) {
        (self.hb_total.get(), self.hb_live.get())
    }

    /// Mark this rank's state consistent again: the recovery protocol has
    /// re-filled the replacement processor (or the rank was never behind),
    /// so its watermark catches up to the phase stamp.
    pub fn ack_recovery(&self) {
        self.hb_live.set(self.hb_total.get());
    }

    /// How many times this slot has died so far.
    #[must_use]
    pub fn deaths_so_far(&self) -> u32 {
        self.incarnation.get()
    }

    /// Fold detection counters into this rank's report.
    pub(crate) fn note_detect(&self, delta: &DetectStats) {
        let mut d = self.detect.get();
        d.merge(delta);
        self.detect.set(d);
    }

    /// Report this rank's current live data footprint in words. Tracks the
    /// peak and records a violation if the configured limit is exceeded.
    pub fn note_memory(&self, words: u64) {
        if words > self.peak_memory.get() {
            self.peak_memory.set(words);
        }
        if let Some(limit) = self.config.memory_limit {
            if words > limit {
                self.memory_violations.borrow_mut().push(format!(
                    "rank {} used {} words (limit {})",
                    self.rank, words, limit
                ));
            }
        }
    }

    fn into_report(self) -> RankReport {
        self.sync_flops();
        let raw = self.raw.get();
        RankReport {
            rank: self.rank,
            cost: self.cost.get(),
            total_flops: raw.flops,
            total_words_sent: raw.words_sent,
            total_msgs_sent: raw.msgs_sent,
            peak_memory: self.peak_memory.get(),
            deaths: self.incarnation.get(),
            detect: self.detect.get(),
            memory_violations: self.memory_violations.into_inner(),
        }
    }
}

/// Claim one unit of the shared random-fault budget; `false` when spent.
fn take_budget(used: &AtomicU32, max_faults: u32) -> bool {
    used.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |u| {
        (u < max_faults).then_some(u + 1)
    })
    .is_ok()
}

/// A simulated machine, ready to run SPMD programs.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Build a machine from a configuration.
    #[must_use]
    pub fn new(config: MachineConfig) -> Machine {
        assert!(
            config.processors > 0,
            "machine needs at least one processor"
        );
        Machine { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Run `program` SPMD on all ranks; one OS thread per rank. Returns
    /// per-rank results and cost reports.
    ///
    /// # Panics
    /// Propagates any rank's panic.
    pub fn run<T: Send>(&self, program: impl Fn(&Env) -> T + Sync) -> RunReport<T> {
        let p = self.config.processors;
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (s, r) = unbounded::<Message>();
            senders.push(s);
            receivers.push(r);
        }
        let trace_store: Option<Mutex<Vec<TraceEvent>>> =
            self.config.trace.then(|| Mutex::new(Vec::new()));
        // Shared budget for random faults, reset per run.
        let random_used = AtomicU32::new(0);

        let mut outcome: Vec<Option<(T, RankReport)>> = (0..p).map(|_| None).collect();
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, (receiver, slot)) in receivers.drain(..).zip(outcome.iter_mut()).enumerate()
            {
                let senders = &senders;
                let config = &self.config;
                let trace = trace_store.as_ref();
                let program = &program;
                let random_used = &random_used;
                handles.push(scope.spawn(move |_| {
                    let env = Env {
                        rank,
                        size: p,
                        config,
                        senders,
                        receiver,
                        pending: RefCell::new(HashMap::new()),
                        cost: Cell::new(CostVector::zero()),
                        raw: Cell::new(RawTotals::default()),
                        ops_base: Cell::new(metrics::ops_performed()),
                        incarnation: Cell::new(0),
                        slow_factor: Cell::new(
                            config
                                .slowdowns
                                .iter()
                                .find(|(r, _)| *r == rank)
                                .map_or(1, |(_, f)| (*f).max(1)),
                        ),
                        fault_counts: RefCell::new(HashMap::new()),
                        hb_total: Cell::new(0),
                        hb_live: Cell::new(0),
                        detect: Cell::new(DetectStats::default()),
                        random_used,
                        trace,
                        peak_memory: Cell::new(0),
                        memory_violations: RefCell::new(Vec::new()),
                    };
                    let result = program(&env);
                    *slot = Some((result, env.into_report()));
                }));
            }
            // Preserve the first panic payload so a host (or a supervising
            // service layer) sees the original message, not a join error.
            for h in handles {
                if let Err(payload) = h.join() {
                    panic_payload.get_or_insert(payload);
                }
            }
        })
        .expect("machine scope failed");
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }

        let mut results = Vec::with_capacity(p);
        let mut ranks = Vec::with_capacity(p);
        for slot in outcome {
            let (r, rep) = slot.expect("rank produced no result");
            results.push(r);
            ranks.push(rep);
        }
        RunReport {
            results,
            ranks,
            trace: trace_store.map(Mutex::into_inner).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_costs() {
        let machine = Machine::new(MachineConfig::new(2));
        let report = machine.run(|env| {
            if env.rank() == 0 {
                env.send(1, 7, &[BigInt::from(u128::MAX)]); // 2 words
                u64::try_from(&env.recv(1, 8)[0]).unwrap()
            } else {
                let v = env.recv(0, 7);
                env.send(0, 8, &[BigInt::from(42u64)]);
                u64::try_from(&v[0]).is_ok() as u64
            }
        });
        assert_eq!(report.results[0], 42);
        let cp = report.critical_path();
        assert_eq!(cp.l, 2, "two messages on the critical path");
        assert_eq!(cp.bw, 3, "2 + 1 words");
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let machine = Machine::new(MachineConfig::new(2));
        let report = machine.run(|env| {
            if env.rank() == 0 {
                env.send(1, 1, &[BigInt::from(10u64)]);
                env.send(1, 2, &[BigInt::from(20u64)]);
                0
            } else {
                // Receive in reverse tag order.
                let b = u64::try_from(&env.recv(0, 2)[0]).unwrap();
                let a = u64::try_from(&env.recv(0, 1)[0]).unwrap();
                a * 100 + b
            }
        });
        assert_eq!(report.results[1], 1020);
    }

    #[test]
    fn flops_are_metered_per_rank() {
        let machine = Machine::new(MachineConfig::new(3));
        let report = machine.run(|env| {
            if env.rank() == 1 {
                // ~rank-1-only work: a big schoolbook multiply.
                let a = BigInt::from(u64::MAX).pow(20);
                let _ = a.mul_schoolbook(&a);
            }
        });
        assert!(report.ranks[1].total_flops > 100);
        assert_eq!(report.ranks[0].total_flops, 0);
        assert_eq!(report.ranks[2].total_flops, 0);
        assert_eq!(report.critical_path().f, report.ranks[1].total_flops);
    }

    #[test]
    fn critical_path_joins_across_ranks() {
        // Rank 0 computes then sends to 1; rank 1's cost must include 0's.
        let machine = Machine::new(MachineConfig::new(2));
        let report = machine.run(|env| {
            if env.rank() == 0 {
                let a = BigInt::from(u64::MAX).pow(10);
                let _ = a.mul_schoolbook(&a);
                env.send(1, 0, &[BigInt::one()]);
            } else {
                let _ = env.recv(0, 0);
            }
        });
        assert!(report.ranks[1].cost.f >= report.ranks[0].cost.f);
        assert_eq!(report.ranks[1].total_flops, 0, "rank 1 did no local work");
    }

    #[test]
    fn fault_point_kills_and_reborn() {
        let plan = FaultPlan::none().kill(1, "phase-a");
        let machine = Machine::new(MachineConfig::new(3).with_faults(plan).with_trace());
        let report = machine.run(|env| match env.fault_point("phase-a") {
            Fate::Alive => "alive",
            Fate::Reborn => "reborn",
        });
        assert_eq!(report.results, vec!["alive", "reborn", "alive"]);
        assert_eq!(report.ranks[1].deaths, 1);
        assert_eq!(report.total_deaths(), 1);
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Death { rank: 1, .. })));
    }

    #[test]
    fn fault_occurrence_selects_passage() {
        let plan = FaultPlan::none().kill_at(0, "loop", 2);
        let machine = Machine::new(MachineConfig::new(1).with_faults(plan));
        let report = machine.run(|env| {
            let mut deaths = Vec::new();
            for i in 0..4 {
                if env.fault_point("loop") == Fate::Reborn {
                    deaths.push(i);
                }
            }
            deaths
        });
        assert_eq!(report.results[0], vec![2]);
    }

    #[test]
    fn kill_at_fires_on_the_nth_visit_only() {
        // Pins FaultPlan::kill_at occurrence semantics: the fault fires on
        // exactly the N-th passage through its label — never before, never
        // again after — and passage counts are kept per label, so visits
        // to other labels do not advance them.
        let plan = FaultPlan::none().kill_at(0, "target", 1);
        let machine = Machine::new(MachineConfig::new(1).with_faults(plan));
        let report = machine.run(|env| {
            let mut fates = Vec::new();
            for _ in 0..3 {
                // Interleaved visits to another label must not count as
                // "target" passages.
                assert_eq!(env.fault_point("other"), Fate::Alive);
                fates.push(env.fault_point("target"));
            }
            fates
        });
        assert_eq!(
            report.results[0],
            vec![Fate::Alive, Fate::Reborn, Fate::Alive],
            "occurrence 1 means the second visit, once"
        );
        assert_eq!(report.ranks[0].deaths, 1);
    }

    #[test]
    fn messages_survive_slot_replacement() {
        // Channel delivery is slot-addressed: a message sent by a rank
        // that raced ahead of the victim's failure is delivered to the
        // replacement processor, which the recovery protocol brings to the
        // point where it consumes it correctly.
        let plan = FaultPlan::none().kill(1, "mid");
        let machine = Machine::new(MachineConfig::new(2).with_faults(plan));
        let report = machine.run(|env| {
            if env.rank() == 0 {
                env.send(1, 5, &[BigInt::from(99u64)]); // possibly pre-death
                env.fault_point("mid");
                env.send(1, 6, &[BigInt::from(7u64)]); // recovery data
                0
            } else {
                let fate = env.fault_point("mid");
                assert_eq!(fate, Fate::Reborn);
                let recovered = u64::try_from(&env.recv(0, 6)[0]).unwrap();
                let raced = u64::try_from(&env.recv(0, 5)[0]).unwrap();
                recovered * 1000 + raced
            }
        });
        assert_eq!(report.results[1], 7099);
    }

    #[test]
    fn memory_tracking_and_violations() {
        let machine = Machine::new(MachineConfig::new(1).with_memory_limit(10));
        let report = machine.run(|env| {
            env.note_memory(8);
            env.note_memory(12);
            env.note_memory(4);
        });
        assert_eq!(report.peak_memory(), 12);
        assert_eq!(report.memory_violations().len(), 1);
    }

    #[test]
    fn trace_records_sends() {
        let machine = Machine::new(MachineConfig::new(2).with_trace());
        let report = machine.run(|env| {
            if env.rank() == 0 {
                env.send(1, 3, &[BigInt::from(1u64)]);
            } else {
                let _ = env.recv(0, 3);
            }
        });
        assert_eq!(
            report.trace,
            vec![TraceEvent::Send {
                src: 0,
                dst: 1,
                tag: 3,
                words: 1
            }]
        );
    }

    #[test]
    fn plan_injection_queries() {
        // Host-side / test-side introspection of what was injected. The
        // plan is not readable from inside a run (there is no Env
        // accessor): detection must come from the heartbeat layer.
        let plan = FaultPlan::none().kill(3, "x").kill(5, "x").kill(3, "y");
        assert_eq!(plan.victims_at("x"), vec![3, 5]);
        assert_eq!(plan.victims_at("y"), vec![3]);
        assert!(plan.is_victim(5));
        assert!(!plan.is_victim(4));
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn heartbeat_lag_tracks_death_and_recovery() {
        let plan = FaultPlan::none().kill_at(0, "hb", 1);
        let machine = Machine::new(MachineConfig::new(1).with_faults(plan));
        let report = machine.run(|env| {
            assert_eq!(env.fault_point("hb"), Fate::Alive);
            assert_eq!(env.heartbeat(), (1, 1), "healthy: no lag");
            assert_eq!(env.fault_point("hb"), Fate::Reborn);
            assert_eq!(env.heartbeat(), (2, 0), "death wipes the watermark");
            assert_eq!(env.fault_point("hb"), Fate::Alive);
            assert_eq!(env.heartbeat(), (3, 1), "lag persists until recovery");
            env.ack_recovery();
            assert_eq!(env.heartbeat(), (3, 3), "recovery re-integrates");
            env.deaths_so_far()
        });
        assert_eq!(report.results[0], 1);
    }

    #[test]
    fn random_faults_are_deterministic_and_label_gated() {
        let random = RandomFaults {
            seed: 42,
            per_10k: 3_000,
            max_faults: 100,
            labels: vec!["eligible".to_string()],
        };
        let run = || {
            let machine = Machine::new(MachineConfig::new(8).with_random_faults(random.clone()));
            machine.run(|env| {
                let mut deaths = 0u32;
                for _ in 0..16 {
                    if env.fault_point("eligible") == Fate::Reborn {
                        deaths += 1;
                    }
                    // Never on the allowlist: must never kill.
                    assert_eq!(env.fault_point("ineligible"), Fate::Alive);
                }
                deaths
            })
        };
        let first = run();
        let second = run();
        assert_eq!(first.results, second.results, "same seed, same deaths");
        let total = first.total_deaths();
        assert!(total > 0, "3000/10k over 128 draws should fire");
        assert!(total < 128, "and not fire every time");
    }

    #[test]
    fn random_fault_budget_caps_total_deaths() {
        let random = RandomFaults {
            seed: 7,
            per_10k: 10_000, // every eligible passage wants to kill
            max_faults: 3,
            labels: vec!["hot".to_string()],
        };
        let machine = Machine::new(MachineConfig::new(4).with_random_faults(random));
        let report = machine.run(|env| {
            let mut deaths = 0u32;
            for _ in 0..10 {
                if env.fault_point("hot") == Fate::Reborn {
                    deaths += 1;
                }
            }
            deaths
        });
        assert_eq!(report.total_deaths(), 3, "budget is global across ranks");
    }
}
