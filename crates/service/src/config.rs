//! Service configuration, loadable from JSON.
//!
//! Every config section lists each of its knobs once, as
//! `(json key, &mut field)`, plus the cross-field rules it checks (the
//! crate-private `Section` trait). One generic reader builds a section
//! from its `Default`: it rejects a non-object section and any key the
//! section does not list, naming the full path (`"batching.lanes"`), so a
//! config that still sets a removed or misspelt knob fails instead of
//! silently running on a default, and it reads each present key by its
//! type. One generic writer builds the JSON from the same list. The
//! public entry points are [`ServiceConfig::from_json`] /
//! [`ServiceConfig::to_json`] and their [`ShardConfig`] twins.

use crate::chaos::ChaosConfig;
use crate::json::{Json, JsonError};
use crate::supervisor::{BreakerPolicy, RetryPolicy};
use crate::verify::VerifyPolicy;
use ft_toom_core::seq;

/// Size thresholds steering kernel auto-selection, in operand bits
/// (`min(bit_length(a), bit_length(b))`).
///
/// Defaults follow the crossover points measured by the `tune_thresholds`
/// sweep: schoolbook only wins below ~2 kbit (the in-place Karatsuba base
/// case takes over early), sequential Toom-Cook serves up to the NTT
/// crossover, and the NTT everything above it. Both Toom bounds default
/// to `ft_toom_core::seq::NTT_MIN_BITS`, so the default policy never
/// selects parallel Toom-Cook: on a 2-core host its CPU time exceeds seq
/// Toom's at every size. A deployment that wants it sets
/// `ntt_min_bits` above `seq_toom_max_bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPolicy {
    /// Requests at or below this size run schoolbook.
    pub schoolbook_max_bits: u64,
    /// Requests at or below this size (and above schoolbook) run
    /// sequential Toom-Cook.
    pub seq_toom_max_bits: u64,
    /// Requests *above* this size run the two-prime CRT NTT kernel
    /// (`ft_bigint::ntt`); requests between `seq_toom_max_bits` and here
    /// run parallel Toom-Cook. The default is the kernel crossover
    /// `seq::NTT_MIN_BITS` (≥1.2× over Toom-3 above it; see
    /// EXPERIMENTS.md §S9).
    pub ntt_min_bits: u64,
    /// Split parameter for the sequential Toom-Cook kernel.
    pub seq_toom_k: usize,
    /// Split parameter for the parallel Toom-Cook kernel.
    pub par_toom_k: usize,
    /// Base-case cutoff inside the Toom recursions.
    pub toom_threshold_bits: u64,
    /// Recursion levels the parallel kernel forks before going sequential.
    pub par_depth: usize,
}

impl Default for KernelPolicy {
    fn default() -> KernelPolicy {
        KernelPolicy {
            schoolbook_max_bits: 2_048,
            seq_toom_max_bits: seq::NTT_MIN_BITS,
            ntt_min_bits: seq::NTT_MIN_BITS,
            seq_toom_k: 3,
            par_toom_k: 3,
            toom_threshold_bits: 24_576,
            par_depth: 2,
        }
    }
}

/// Knobs for the submission path: how long the dispatcher waits to
/// coalesce same-shape requests, how many it merges, and how many jobs
/// may queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchingConfig {
    /// Coalescing window in µs: after the first queued job arrives, the
    /// dispatcher keeps collecting for at most this long before
    /// dispatching. `0` only merges what is already queued.
    pub window_us: u64,
    /// Most requests the dispatcher collects into one round (a job always
    /// joins whole), and so the most merged into one executed batch.
    pub max_batch: usize,
    /// Capacity of the submission queue, in jobs; a submission beyond it
    /// returns [`crate::SubmitError::QueueFull`].
    pub queue_capacity: usize,
}

impl Default for BatchingConfig {
    fn default() -> BatchingConfig {
        BatchingConfig {
            window_us: 150,
            max_batch: 32,
            queue_capacity: 1_024,
        }
    }
}

/// Cadence and sensitivity of the adaptive threshold tuner, which
/// periodically re-derives [`KernelPolicy`] size thresholds from the live
/// per-(kernel, size-class) latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunerConfig {
    /// Master switch; `false` keeps the static policy forever.
    pub enabled: bool,
    /// How often the tuner re-examines the histogram, ms.
    pub interval_ms: u64,
    /// Minimum served samples a (kernel, size-class) cell needs on *both*
    /// sides of a threshold before the tuner will move it.
    pub min_samples: u64,
    /// Move a threshold only when the losing kernel's mean latency is at
    /// least this percentage of the winner's (e.g. `125` = 25% slower),
    /// so noise does not flap the policy.
    pub slowdown_pct: u64,
}

impl Default for TunerConfig {
    fn default() -> TunerConfig {
        TunerConfig {
            enabled: true,
            interval_ms: 500,
            min_samples: 64,
            slowdown_pct: 125,
        }
    }
}

/// The distributed backend: coalesced groups promoted to the simulated
/// coded machine (`ft-core`'s polynomial-coded parallel Toom-Cook with
/// heartbeat failure detection). Each promoted request runs on a machine
/// of `(2k−1+f)·k^(bfs_steps−1)·…` simulated processors that survives up
/// to `f` column faults per run; unrecoverable runs fall back down the
/// ordinary kernel ladder. The injection knobs drive deterministic chaos
/// *inside* the machine (planned hard faults plus one delay fault), where
/// the heartbeat detector — not an oracle — must find them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributedConfig {
    /// Master switch; `false` keeps every group on the local kernels.
    pub enabled: bool,
    /// Toom split parameter `k` of the coded machine.
    pub k: usize,
    /// BFS steps `m` of the coded machine (`P = (k²)^m` data processors).
    pub bfs_steps: usize,
    /// Redundant evaluation points `f` — column faults survivable per run.
    pub f: usize,
    /// Smallest coalesced group the dispatcher promotes.
    pub min_group: usize,
    /// Promotion window: only operands of at least this many bits…
    pub min_bits: u64,
    /// …and at most this many bits run on the simulated machine.
    pub max_bits: u64,
    /// Seed of the deterministic in-machine fault stream.
    pub fault_seed: u64,
    /// Planned hard faults injected per machine run (distinct victim
    /// ranks at the `poly-halt` fault point). More than `f` distinct
    /// *columns* makes the run unrecoverable, exercising the fallback.
    pub hard_faults_per_run: u32,
    /// Ranks per run additionally given a delay fault (slowdown).
    pub delay_ranks: u32,
    /// Slowdown factor applied to delayed ranks (1 = no delay).
    pub delay_factor: u64,
    /// Attempts (per request) that receive injection, so a supervised
    /// retry deterministically clears injected faults. `u32::MAX` makes
    /// every distributed attempt faulty (forces the fallback ladder).
    pub faulty_attempts: u32,
    /// Heartbeat deadline budget of the in-machine detector.
    pub deadline_budget: u64,
    /// Straggler factor of the in-machine detector (0 disables flagging).
    pub straggler_factor: u64,
    /// Heartbeats posted per fault point inside the machine (density of
    /// the heartbeat schedule). `1` is the classic one-beat-per-point
    /// cadence, which caps the usable `deadline_budget` at 1 between
    /// rounds (the EXPERIMENTS.md S7 cliff); a period of `h` makes every
    /// budget `≤ h` detect a fresh death.
    pub heartbeat_period: u64,
    /// Run a second in-machine detection round after the nested
    /// recursion: first-wave victims re-integrate via `ack_recovery` and
    /// keep serving the protocol, and injected hard faults alternate
    /// between the two fault points (`poly-halt` / `poly-rec-halt`).
    pub recursion_detect: bool,
}

impl Default for DistributedConfig {
    fn default() -> DistributedConfig {
        DistributedConfig {
            enabled: false,
            k: 2,
            bfs_steps: 1,
            f: 1,
            min_group: 2,
            min_bits: 2_048,
            max_bits: 4_000_000,
            fault_seed: 0,
            hard_faults_per_run: 0,
            delay_ranks: 0,
            delay_factor: 4,
            faulty_attempts: 1,
            deadline_budget: 1,
            straggler_factor: 0,
            heartbeat_period: 1,
            recursion_detect: false,
        }
    }
}

impl Section for DistributedConfig {
    fn knobs(&mut self) -> Knobs<'_> {
        vec![
            ("enabled", &mut self.enabled),
            ("k", &mut self.k),
            ("bfs_steps", &mut self.bfs_steps),
            ("f", &mut self.f),
            ("min_group", &mut self.min_group),
            ("min_bits", &mut self.min_bits),
            ("max_bits", &mut self.max_bits),
            ("fault_seed", &mut self.fault_seed),
            ("hard_faults_per_run", &mut self.hard_faults_per_run),
            ("delay_ranks", &mut self.delay_ranks),
            ("delay_factor", &mut self.delay_factor),
            ("faulty_attempts", &mut self.faulty_attempts),
            ("deadline_budget", &mut self.deadline_budget),
            ("straggler_factor", &mut self.straggler_factor),
            ("heartbeat_period", &mut self.heartbeat_period),
            ("recursion_detect", &mut self.recursion_detect),
        ]
    }

    fn check(&self) -> Result<(), ConfigError> {
        rule(self.k >= 2, "distributed.k must be >= 2")?;
        rule(self.bfs_steps >= 1, "distributed.bfs_steps must be >= 1")?;
        rule(self.min_group >= 1, "distributed.min_group must be >= 1")?;
        rule(
            self.min_bits <= self.max_bits,
            "distributed.min_bits must not exceed distributed.max_bits",
        )?;
        rule(
            self.delay_factor >= 1,
            "distributed.delay_factor must be >= 1",
        )?;
        rule(
            self.heartbeat_period >= 1,
            "distributed.heartbeat_period must be >= 1",
        )
    }
}

impl Section for BatchingConfig {
    fn knobs(&mut self) -> Knobs<'_> {
        vec![
            ("window_us", &mut self.window_us),
            ("max_batch", &mut self.max_batch),
            ("queue_capacity", &mut self.queue_capacity),
        ]
    }

    fn check(&self) -> Result<(), ConfigError> {
        rule(self.max_batch >= 1, "batching.max_batch must be >= 1")?;
        rule(
            self.queue_capacity >= 1,
            "batching.queue_capacity must be >= 1",
        )
    }
}

impl Section for TunerConfig {
    fn knobs(&mut self) -> Knobs<'_> {
        vec![
            ("enabled", &mut self.enabled),
            ("interval_ms", &mut self.interval_ms),
            ("min_samples", &mut self.min_samples),
            ("slowdown_pct", &mut self.slowdown_pct),
        ]
    }

    fn check(&self) -> Result<(), ConfigError> {
        rule(self.interval_ms >= 1, "tuner.interval_ms must be >= 1")?;
        rule(
            self.slowdown_pct >= 100,
            "tuner.slowdown_pct must be >= 100",
        )
    }
}

/// Full service configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads executing the dispatcher's groups. They share one
    /// hand-off channel bounded by this count, so while every worker is
    /// busy the dispatcher stops draining the submission queue
    /// (`batching.queue_capacity`).
    pub workers: usize,
    /// Queue-age bound in milliseconds after which deadline-less requests
    /// are shed ([`crate::MulError::Shed`]); `None` disables shedding.
    pub shed_after_ms: Option<u64>,
    /// Capacity of the shared Toom-plan LRU cache.
    pub plan_cache_capacity: usize,
    /// Kernel selection thresholds.
    pub kernel_policy: KernelPolicy,
    /// Residue-spot-check every product (`ft_toom_core::residue`); a
    /// mismatch counts as a soft fault and the request is retried.
    pub verify_residues: bool,
    /// Dual-algorithm verification rung: sampled re-computation with a
    /// structurally distinct algorithm, escalating mismatches to a full
    /// recompute (see [`crate::verify`]).
    pub verify: VerifyPolicy,
    /// Per-request retry/backoff policy for supervised failures.
    pub retry: RetryPolicy,
    /// Per-kernel circuit-breaker policy.
    pub breaker: BreakerPolicy,
    /// Optional deterministic fault-injection plan (chaos testing);
    /// `None` injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// Submission path: coalescing window, batch bound, queue capacity.
    pub batching: BatchingConfig,
    /// Adaptive threshold tuner driven by the live latency histogram.
    pub tuner: TunerConfig,
    /// Distributed backend: promote coalesced groups to the simulated
    /// coded machine with heartbeat failure detection.
    pub distributed: DistributedConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            shed_after_ms: None,
            plan_cache_capacity: 8,
            kernel_policy: KernelPolicy::default(),
            verify_residues: true,
            verify: VerifyPolicy::default(),
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            chaos: None,
            batching: BatchingConfig::default(),
            tuner: TunerConfig::default(),
            distributed: DistributedConfig::default(),
        }
    }
}

/// The sharded topology: N [`crate::MulService`] shards behind a
/// [`crate::Router`] with rendezvous-hash placement on (kernel,
/// size-class), per-shard heartbeat liveness, failover re-routing, and
/// cross-shard work stealing. Every shard runs the same
/// [`ServiceConfig`] template; the chaos injector inside that template
/// also drives shard-level faults (`shard_kill` / `shard_stall`),
/// decided deterministically per (seed, shard, monitor round).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of service shards behind the router.
    pub shards: usize,
    /// Per-shard service configuration template.
    pub service: ServiceConfig,
    /// Monitor cadence: each shard posts one heartbeat per period of
    /// this many milliseconds, and the router's monitor samples all
    /// watermarks and derives one liveness verdict per period.
    pub heartbeat_ms: u64,
    /// Monitor rounds a shard's watermark may lag before the verdict
    /// declares it dead (service-level `deadline_budget`; the shard
    /// passes through *suspect* after one missed beat). The default of
    /// 3 tolerates scheduling jitter between the beat and monitor
    /// threads without flapping.
    pub deadline_budget: u64,
    /// Work stealing: when a request's owner shard has more than this
    /// many requests queued, the router looks for an idle sibling.
    pub hot_watermark: usize,
    /// …and steals to a live sibling whose queue depth is at or below
    /// this.
    pub idle_watermark: usize,
    /// Most times one request may be failed over to another shard after
    /// its current shard dies under it, before the error surfaces to
    /// the caller.
    pub max_failovers: u32,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 3,
            service: ServiceConfig::default(),
            heartbeat_ms: 20,
            deadline_budget: 3,
            hot_watermark: 32,
            idle_watermark: 2,
            max_failovers: 3,
        }
    }
}

impl ShardConfig {
    /// Parse a topology config from JSON text; absent fields keep their
    /// defaults.
    ///
    /// ```
    /// use ft_service::ShardConfig;
    /// let cfg = ShardConfig::from_json(
    ///     r#"{"shards": 4, "deadline_budget": 2, "service": {"workers": 1}}"#,
    /// ).unwrap();
    /// assert_eq!(cfg.shards, 4);
    /// assert_eq!(cfg.service.workers, 1);
    /// assert_eq!(cfg.heartbeat_ms, ShardConfig::default().heartbeat_ms);
    /// ```
    pub fn from_json(text: &str) -> Result<ShardConfig, ConfigError> {
        read_section(&Json::parse(text).map_err(ConfigError::Parse)?)
    }

    /// Serialize to compact JSON (round-trips through [`Self::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.write().dump()
    }
}

impl Section for ShardConfig {
    fn knobs(&mut self) -> Knobs<'_> {
        vec![
            ("shards", &mut self.shards),
            ("service", &mut self.service),
            ("heartbeat_ms", &mut self.heartbeat_ms),
            ("deadline_budget", &mut self.deadline_budget),
            ("hot_watermark", &mut self.hot_watermark),
            ("idle_watermark", &mut self.idle_watermark),
            ("max_failovers", &mut self.max_failovers),
        ]
    }

    fn check(&self) -> Result<(), ConfigError> {
        rule(self.shards >= 1, "shards must be >= 1")?;
        rule(self.heartbeat_ms >= 1, "heartbeat_ms must be >= 1")?;
        rule(self.deadline_budget >= 1, "deadline_budget must be >= 1")?;
        rule(
            self.idle_watermark <= self.hot_watermark,
            "idle_watermark must not exceed hot_watermark",
        )
    }
}

/// Config validation / parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The document was not valid JSON.
    Parse(JsonError),
    /// A field was missing, mistyped, or out of range.
    Invalid(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "config parse error: {e}"),
            ConfigError::Invalid(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// One config field: how it reads from and writes to JSON.
pub(crate) trait Knob {
    /// Replace `self` with the value `json` holds; `path` is the knob's
    /// full dotted key, for error messages (`"distributed.k"`).
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError>;
    /// The knob's JSON value.
    fn write(&self) -> Json;
}

/// A section's knobs, each as `(json key, &mut field)`.
pub(crate) type Knobs<'a> = Vec<(&'static str, &'a mut dyn Knob)>;

/// One config section: a JSON object whose keys are its knobs.
pub(crate) trait Section: Clone + Default {
    /// Every knob of the section, each listed once.
    fn knobs(&mut self) -> Knobs<'_>;

    /// The section's cross-field rules, checked once its keys are read.
    fn check(&self) -> Result<(), ConfigError> {
        Ok(())
    }
}

/// The generic reader: build a section from its `Default` and the keys
/// a JSON document sets.
pub(crate) fn read_section<S: Section>(json: &Json) -> Result<S, ConfigError> {
    let mut section = S::default();
    section.read(json, "")?;
    Ok(section)
}

/// `Ok` when `holds`, else the `Invalid` error `message`.
pub(crate) fn rule(holds: bool, message: &str) -> Result<(), ConfigError> {
    if holds {
        Ok(())
    } else {
        Err(ConfigError::Invalid(message.to_string()))
    }
}

/// A nested section: rejects a non-object and unknown keys by full path,
/// reads the keys present (absent ones keep their values), then checks.
impl<S: Section> Knob for S {
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError> {
        let Json::Obj(given) = json else {
            let name = if path.is_empty() { "config" } else { path };
            return Err(ConfigError::Invalid(format!(
                "{name} must be a JSON object"
            )));
        };
        let full = |key: &str| {
            if path.is_empty() {
                key.to_string()
            } else {
                format!("{path}.{key}")
            }
        };
        let mut knobs = self.knobs();
        if let Some(key) = given
            .keys()
            .find(|key| knobs.iter().all(|(known, _)| *known != key.as_str()))
        {
            return Err(ConfigError::Invalid(format!(
                "unknown config key {:?}",
                full(key)
            )));
        }
        for (key, knob) in &mut knobs {
            if let Some(value) = given.get(*key) {
                knob.read(value, &full(key))?;
            }
        }
        self.check()
    }

    fn write(&self) -> Json {
        let mut section = self.clone();
        let knobs = section.knobs();
        Json::Obj(
            knobs
                .into_iter()
                .map(|(key, knob)| (key.to_string(), knob.write()))
                .collect(),
        )
    }
}

/// A non-negative JSON integer that fits `T`.
fn read_uint<T: TryFrom<i128>>(json: &Json, path: &str) -> Result<T, ConfigError> {
    json.as_i128()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| {
            ConfigError::Invalid(format!(
                "{path} must be an unsigned {}-bit integer",
                8 * std::mem::size_of::<T>()
            ))
        })
}

impl Knob for u64 {
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError> {
        read_uint(json, path).map(|v| *self = v)
    }

    fn write(&self) -> Json {
        Json::Num(i128::from(*self))
    }
}

impl Knob for u32 {
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError> {
        read_uint(json, path).map(|v| *self = v)
    }

    fn write(&self) -> Json {
        Json::Num(i128::from(*self))
    }
}

impl Knob for usize {
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError> {
        read_uint(json, path).map(|v| *self = v)
    }

    fn write(&self) -> Json {
        Json::Num(*self as i128)
    }
}

impl Knob for bool {
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError> {
        json.as_bool()
            .map(|b| *self = b)
            .ok_or_else(|| ConfigError::Invalid(format!("{path} must be a boolean")))
    }

    fn write(&self) -> Json {
        Json::Bool(*self)
    }
}

/// `null` is `None`; any other value is read into a fresh default.
impl<T: Knob + Default> Knob for Option<T> {
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError> {
        *self = match json {
            Json::Null => None,
            _ => {
                let mut value = T::default();
                value.read(json, path)?;
                Some(value)
            }
        };
        Ok(())
    }

    fn write(&self) -> Json {
        self.as_ref().map_or(Json::Null, Knob::write)
    }
}

impl Section for KernelPolicy {
    fn knobs(&mut self) -> Knobs<'_> {
        vec![
            ("schoolbook_max_bits", &mut self.schoolbook_max_bits),
            ("seq_toom_max_bits", &mut self.seq_toom_max_bits),
            ("ntt_min_bits", &mut self.ntt_min_bits),
            ("seq_toom_k", &mut self.seq_toom_k),
            ("par_toom_k", &mut self.par_toom_k),
            ("toom_threshold_bits", &mut self.toom_threshold_bits),
            ("par_depth", &mut self.par_depth),
        ]
    }

    fn check(&self) -> Result<(), ConfigError> {
        rule(
            self.schoolbook_max_bits <= self.seq_toom_max_bits,
            "schoolbook_max_bits must not exceed seq_toom_max_bits",
        )?;
        rule(
            self.seq_toom_max_bits <= self.ntt_min_bits,
            "seq_toom_max_bits must not exceed ntt_min_bits",
        )?;
        rule(
            self.seq_toom_k >= 2 && self.par_toom_k >= 2,
            "toom k parameters must be >= 2",
        )
    }
}

impl ServiceConfig {
    /// Parse a config from JSON text; absent fields keep their defaults.
    ///
    /// ```
    /// use ft_service::ServiceConfig;
    /// let cfg = ServiceConfig::from_json(
    ///     r#"{"workers": 2, "kernel_policy": {"schoolbook_max_bits": 4000}}"#,
    /// ).unwrap();
    /// assert_eq!(cfg.workers, 2);
    /// assert_eq!(cfg.kernel_policy.schoolbook_max_bits, 4000);
    /// assert_eq!(cfg.batching, ServiceConfig::default().batching);
    /// // A removed or misspelt knob fails loudly instead of being ignored.
    /// assert!(ServiceConfig::from_json(r#"{"batch_max": 16}"#).is_err());
    /// ```
    pub fn from_json(text: &str) -> Result<ServiceConfig, ConfigError> {
        read_section(&Json::parse(text).map_err(ConfigError::Parse)?)
    }

    /// Serialize to compact JSON (round-trips through [`Self::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.write().dump()
    }
}

impl Section for ServiceConfig {
    fn knobs(&mut self) -> Knobs<'_> {
        vec![
            ("workers", &mut self.workers),
            ("shed_after_ms", &mut self.shed_after_ms),
            ("plan_cache_capacity", &mut self.plan_cache_capacity),
            ("kernel_policy", &mut self.kernel_policy),
            ("verify_residues", &mut self.verify_residues),
            ("verify", &mut self.verify),
            ("retry", &mut self.retry),
            ("breaker", &mut self.breaker),
            ("chaos", &mut self.chaos),
            ("batching", &mut self.batching),
            ("tuner", &mut self.tuner),
            ("distributed", &mut self.distributed),
        ]
    }

    fn check(&self) -> Result<(), ConfigError> {
        rule(self.workers >= 1, "workers must be >= 1")?;
        rule(
            self.plan_cache_capacity >= 1,
            "plan_cache_capacity must be >= 1",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_through_json() {
        let cfg = ServiceConfig::default();
        let again = ServiceConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, again);
    }

    /// The exact `GET /v1/config` body of the default service, and of the
    /// default topology: the wire format must not drift.
    const DEFAULT_SERVICE_JSON: &str = r#"{"batching":{"max_batch":32,"queue_capacity":1024,"window_us":150},"breaker":{"failure_threshold":5,"open_ms":250},"chaos":null,"distributed":{"bfs_steps":1,"deadline_budget":1,"delay_factor":4,"delay_ranks":0,"enabled":false,"f":1,"fault_seed":0,"faulty_attempts":1,"hard_faults_per_run":0,"heartbeat_period":1,"k":2,"max_bits":4000000,"min_bits":2048,"min_group":2,"recursion_detect":false,"straggler_factor":0},"kernel_policy":{"ntt_min_bits":163840,"par_depth":2,"par_toom_k":3,"schoolbook_max_bits":2048,"seq_toom_k":3,"seq_toom_max_bits":163840,"toom_threshold_bits":24576},"plan_cache_capacity":8,"retry":{"backoff_base_ms":1,"backoff_max_ms":64,"max_retries":3},"shed_after_ms":null,"tuner":{"enabled":true,"interval_ms":500,"min_samples":64,"slowdown_pct":125},"verify":{"breaker_on_mismatch":true,"dual_max_bits":33554432,"dual_per_10k":250,"dual_small_max_bits":16384,"dual_toom_k":3,"sample_seed":0},"verify_residues":true,"workers":4}"#;

    #[test]
    fn default_wire_format_is_pinned() {
        assert_eq!(ServiceConfig::default().to_json(), DEFAULT_SERVICE_JSON);
        let shard = format!(
            r#"{{"deadline_budget":3,"heartbeat_ms":20,"hot_watermark":32,"idle_watermark":2,"max_failovers":3,"service":{DEFAULT_SERVICE_JSON},"shards":3}}"#
        );
        assert_eq!(ShardConfig::default().to_json(), shard);
    }

    /// A service config in which every knob differs from its default.
    fn every_knob_set() -> ServiceConfig {
        use crate::chaos::{CorruptionKind, FaultKind};
        ServiceConfig {
            workers: 3,
            shed_after_ms: Some(17),
            plan_cache_capacity: 5,
            kernel_policy: KernelPolicy {
                schoolbook_max_bits: 1_000,
                seq_toom_max_bits: 50_000,
                ntt_min_bits: 300_000,
                seq_toom_k: 4,
                par_toom_k: 5,
                toom_threshold_bits: 12_000,
                par_depth: 3,
            },
            verify_residues: false,
            verify: VerifyPolicy {
                dual_per_10k: 2_500,
                dual_small_max_bits: 1_000,
                dual_max_bits: 100_000,
                dual_toom_k: 4,
                breaker_on_mismatch: false,
                sample_seed: 7,
            },
            retry: RetryPolicy {
                max_retries: 7,
                backoff_base_ms: 3,
                backoff_max_ms: 99,
            },
            breaker: BreakerPolicy {
                failure_threshold: 2,
                open_ms: 77,
            },
            chaos: Some(ChaosConfig {
                seed: 42,
                panic_per_10k: 100,
                straggle_per_10k: 200,
                corrupt_per_10k: 300,
                corruption: CorruptionKind::ResidueEvading,
                straggle_ms: 5,
                max_faulty_attempts: 2,
                escalate_panics: true,
                force: vec![(3, FaultKind::Panic), (9, FaultKind::Straggle)],
                shard_kill_per_10k: 10,
                shard_stall_per_10k: 20,
                stall_rounds: 6,
                force_shard: vec![(2, 11, FaultKind::ShardStall), (0, 4, FaultKind::ShardKill)],
            }),
            batching: BatchingConfig {
                window_us: 75,
                max_batch: 8,
                queue_capacity: 32,
            },
            tuner: TunerConfig {
                enabled: false,
                interval_ms: 250,
                min_samples: 10,
                slowdown_pct: 150,
            },
            distributed: DistributedConfig {
                enabled: true,
                k: 3,
                bfs_steps: 2,
                f: 2,
                min_group: 3,
                min_bits: 4_096,
                max_bits: 65_536,
                fault_seed: 9,
                hard_faults_per_run: 2,
                delay_ranks: 1,
                delay_factor: 8,
                faulty_attempts: 2,
                deadline_budget: 3,
                straggler_factor: 4,
                heartbeat_period: 5,
                recursion_detect: true,
            },
        }
    }

    /// Assert that every leaf of `set` differs from the same leaf of
    /// `default` (both documents have the same keys).
    fn assert_every_leaf_differs(set: &Json, default: &Json, path: &str) {
        match (set, default) {
            (Json::Obj(s), Json::Obj(d)) => {
                assert_eq!(
                    s.keys().collect::<Vec<_>>(),
                    d.keys().collect::<Vec<_>>(),
                    "{path}"
                );
                for (key, value) in s {
                    assert_every_leaf_differs(value, &d[key], &format!("{path}.{key}"));
                }
            }
            _ => assert_ne!(set, default, "{path} is left at its default"),
        }
    }

    #[test]
    fn every_knob_round_trips_in_a_pinned_wire_format() {
        let cfg = every_knob_set();
        let text = cfg.to_json();
        assert_eq!(
            text,
            r#"{"batching":{"max_batch":8,"queue_capacity":32,"window_us":75},"breaker":{"failure_threshold":2,"open_ms":77},"chaos":{"corrupt_per_10k":300,"corruption":"residue_evading","escalate_panics":true,"force":[{"index":3,"kind":"panic"},{"index":9,"kind":"straggle"}],"force_shard":[{"kind":"shard_stall","round":11,"shard":2},{"kind":"shard_kill","round":4,"shard":0}],"max_faulty_attempts":2,"panic_per_10k":100,"seed":42,"shard_kill_per_10k":10,"shard_stall_per_10k":20,"stall_rounds":6,"straggle_ms":5,"straggle_per_10k":200},"distributed":{"bfs_steps":2,"deadline_budget":3,"delay_factor":8,"delay_ranks":1,"enabled":true,"f":2,"fault_seed":9,"faulty_attempts":2,"hard_faults_per_run":2,"heartbeat_period":5,"k":3,"max_bits":65536,"min_bits":4096,"min_group":3,"recursion_detect":true,"straggler_factor":4},"kernel_policy":{"ntt_min_bits":300000,"par_depth":3,"par_toom_k":5,"schoolbook_max_bits":1000,"seq_toom_k":4,"seq_toom_max_bits":50000,"toom_threshold_bits":12000},"plan_cache_capacity":5,"retry":{"backoff_base_ms":3,"backoff_max_ms":99,"max_retries":7},"shed_after_ms":17,"tuner":{"enabled":false,"interval_ms":250,"min_samples":10,"slowdown_pct":150},"verify":{"breaker_on_mismatch":false,"dual_max_bits":100000,"dual_per_10k":2500,"dual_small_max_bits":1000,"dual_toom_k":4,"sample_seed":7},"verify_residues":false,"workers":3}"#
        );
        assert_eq!(ServiceConfig::from_json(&text).unwrap(), cfg);
        // No knob is left at its default (a present chaos plan is
        // compared against the default plan).
        let default = ServiceConfig {
            chaos: Some(ChaosConfig::default()),
            ..ServiceConfig::default()
        };
        assert_every_leaf_differs(
            &Json::parse(&text).unwrap(),
            &Json::parse(&default.to_json()).unwrap(),
            "config",
        );
    }

    #[test]
    fn partial_document_keeps_defaults() {
        let cfg = ServiceConfig::from_json(r#"{"workers": 7, "shed_after_ms": 12}"#).unwrap();
        assert_eq!(cfg.workers, 7);
        assert_eq!(cfg.shed_after_ms, Some(12));
        assert_eq!(cfg.batching, ServiceConfig::default().batching);
        assert!(cfg.verify_residues);
        assert_eq!(cfg.chaos, None);
    }

    #[test]
    fn robustness_fields_round_trip() {
        let cfg = ServiceConfig::from_json(
            r#"{
                "verify_residues": false,
                "retry": {"max_retries": 9, "backoff_base_ms": 2},
                "breaker": {"failure_threshold": 3, "open_ms": 40},
                "chaos": {"seed": 42, "corrupt_per_10k": 1000,
                          "force": [{"index": 4, "kind": "panic"}]}
            }"#,
        )
        .unwrap();
        assert!(!cfg.verify_residues);
        assert_eq!(cfg.retry.max_retries, 9);
        assert_eq!(cfg.breaker.failure_threshold, 3);
        let chaos = cfg.chaos.as_ref().unwrap();
        assert_eq!(chaos.seed, 42);
        assert_eq!(chaos.corrupt_per_10k, 1000);
        assert_eq!(chaos.force, vec![(4, crate::chaos::FaultKind::Panic)]);
        let again = ServiceConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, again);
        // Explicit null disables chaos, like omitting the key.
        let off = ServiceConfig::from_json(r#"{"chaos": null}"#).unwrap();
        assert_eq!(off.chaos, None);
    }

    #[test]
    fn batching_and_tuner_round_trip() {
        let cfg = ServiceConfig::from_json(
            r#"{
                "batching": {"window_us": 75, "max_batch": 8, "queue_capacity": 32},
                "tuner": {"enabled": false, "interval_ms": 250, "min_samples": 10,
                          "slowdown_pct": 150}
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.batching.window_us, 75);
        assert_eq!(cfg.batching.max_batch, 8);
        assert_eq!(cfg.batching.queue_capacity, 32);
        assert!(!cfg.tuner.enabled);
        assert_eq!(cfg.tuner.interval_ms, 250);
        assert_eq!(cfg.tuner.min_samples, 10);
        assert_eq!(cfg.tuner.slowdown_pct, 150);
        let again = ServiceConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, again);
        // Absent sections keep defaults.
        let plain = ServiceConfig::from_json("{}").unwrap();
        assert_eq!(plain.batching, BatchingConfig::default());
        assert_eq!(plain.tuner, TunerConfig::default());
    }

    #[test]
    fn rejects_invalid_batching_and_tuner_values() {
        assert!(matches!(
            ServiceConfig::from_json(r#"{"batching": {"max_batch": 0}}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(r#"{"batching": {"queue_capacity": 0}}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(r#"{"tuner": {"interval_ms": 0}}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(r#"{"tuner": {"slowdown_pct": 99}}"#),
            Err(ConfigError::Invalid(_))
        ));
    }

    #[test]
    fn distributed_round_trips() {
        let cfg = ServiceConfig::from_json(
            r#"{
                "distributed": {"enabled": true, "k": 3, "bfs_steps": 1, "f": 2,
                                "min_group": 3, "min_bits": 4096, "max_bits": 65536,
                                "fault_seed": 7, "hard_faults_per_run": 2,
                                "delay_ranks": 1, "delay_factor": 8,
                                "faulty_attempts": 2, "deadline_budget": 3,
                                "straggler_factor": 4, "heartbeat_period": 4}
            }"#,
        )
        .unwrap();
        assert!(cfg.distributed.enabled);
        assert_eq!(cfg.distributed.k, 3);
        assert_eq!(cfg.distributed.f, 2);
        assert_eq!(cfg.distributed.min_group, 3);
        assert_eq!(cfg.distributed.hard_faults_per_run, 2);
        assert_eq!(cfg.distributed.deadline_budget, 3);
        assert_eq!(cfg.distributed.heartbeat_period, 4);
        let again = ServiceConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again, cfg);
        // Absent section keeps the disabled default.
        let plain = ServiceConfig::from_json("{}").unwrap();
        assert_eq!(plain.distributed, DistributedConfig::default());
        assert!(!plain.distributed.enabled);
    }

    #[test]
    fn rejects_invalid_distributed_values() {
        for bad in [
            r#"{"distributed": {"k": 1}}"#,
            r#"{"distributed": {"bfs_steps": 0}}"#,
            r#"{"distributed": {"min_group": 0}}"#,
            r#"{"distributed": {"min_bits": 10, "max_bits": 5}}"#,
            r#"{"distributed": {"delay_factor": 0}}"#,
            r#"{"distributed": {"heartbeat_period": 0}}"#,
            r#"{"distributed": {"enabled": 1}}"#,
            r#"{"distributed": {"faulty_attempts": 4294967296}}"#,
        ] {
            assert!(
                matches!(ServiceConfig::from_json(bad), Err(ConfigError::Invalid(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn shard_config_round_trips() {
        let cfg = ShardConfig::from_json(
            r#"{
                "shards": 5, "heartbeat_ms": 10, "deadline_budget": 2,
                "hot_watermark": 16, "idle_watermark": 1, "max_failovers": 2,
                "service": {"workers": 2, "batching": {"queue_capacity": 8}}
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.shards, 5);
        assert_eq!(cfg.heartbeat_ms, 10);
        assert_eq!(cfg.deadline_budget, 2);
        assert_eq!(cfg.hot_watermark, 16);
        assert_eq!(cfg.idle_watermark, 1);
        assert_eq!(cfg.max_failovers, 2);
        assert_eq!(cfg.service.workers, 2);
        assert_eq!(cfg.service.batching.queue_capacity, 8);
        let again = ShardConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, again);
        // Absent fields keep defaults, including the service template.
        let plain = ShardConfig::from_json("{}").unwrap();
        assert_eq!(plain, ShardConfig::default());
    }

    #[test]
    fn rejects_invalid_shard_values() {
        for bad in [
            r#"{"shards": 0}"#,
            r#"{"heartbeat_ms": 0}"#,
            r#"{"deadline_budget": 0}"#,
            r#"{"hot_watermark": 1, "idle_watermark": 2}"#,
            r#"{"service": {"workers": 0}}"#,
        ] {
            assert!(
                matches!(ShardConfig::from_json(bad), Err(ConfigError::Invalid(_))),
                "{bad}"
            );
        }
    }

    /// Knobs removed with the per-worker queues and per-group lanes: a
    /// config that still sets one must fail, not silently change meaning.
    #[test]
    fn rejects_removed_service_queue_capacity() {
        assert_eq!(
            ServiceConfig::from_json(r#"{"queue_capacity": 64}"#),
            Err(ConfigError::Invalid(
                "unknown config key \"queue_capacity\"".to_string()
            ))
        );
    }

    #[test]
    fn rejects_removed_batch_max() {
        assert_eq!(
            ServiceConfig::from_json(r#"{"workers": 2, "batch_max": 16}"#),
            Err(ConfigError::Invalid(
                "unknown config key \"batch_max\"".to_string()
            ))
        );
    }

    #[test]
    fn rejects_removed_batching_lanes() {
        assert_eq!(
            ServiceConfig::from_json(r#"{"batching": {"lanes": 0}}"#),
            Err(ConfigError::Invalid(
                "unknown config key \"batching.lanes\"".to_string()
            ))
        );
        // The same holds inside a topology's service template.
        assert!(matches!(
            ShardConfig::from_json(r#"{"service": {"batching": {"lanes": 1}}}"#),
            Err(ConfigError::Invalid(msg)) if msg.contains("batching.lanes")
        ));
    }

    #[test]
    fn rejects_unknown_keys_in_every_section() {
        for (bad, key) in [
            (r#"{"wrokers": 2}"#, "wrokers"),
            (
                r#"{"kernel_policy": {"ntt_bits": 1}}"#,
                "kernel_policy.ntt_bits",
            ),
            (r#"{"tuner": {"interval": 5}}"#, "tuner.interval"),
            (r#"{"distributed": {"faults": 1}}"#, "distributed.faults"),
            (r#"{"verify": {"dual": 1}}"#, "verify.dual"),
            (r#"{"retry": {"retries": 1}}"#, "retry.retries"),
            (r#"{"breaker": {"open": 1}}"#, "breaker.open"),
            (r#"{"chaos": {"sed": 1}}"#, "chaos.sed"),
        ] {
            match ServiceConfig::from_json(bad) {
                Err(ConfigError::Invalid(msg)) => {
                    assert_eq!(msg, format!("unknown config key {key:?}"), "{bad}");
                }
                other => panic!("{bad} must be rejected, got {other:?}"),
            }
        }
        assert!(matches!(
            ShardConfig::from_json(r#"{"shard": 2}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(r#"{"batching": 5}"#),
            Err(ConfigError::Invalid(_))
        ));
    }

    #[test]
    fn rejects_invalid_values() {
        assert!(matches!(
            ServiceConfig::from_json(r#"{"workers": 0}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(r#"{"workers": -3}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json("{"),
            Err(ConfigError::Parse(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(
                r#"{"kernel_policy": {"schoolbook_max_bits": 10, "seq_toom_max_bits": 5}}"#
            ),
            Err(ConfigError::Invalid(_))
        ));
        // The NTT floor may not undercut the sequential-Toom ceiling.
        assert!(matches!(
            ServiceConfig::from_json(
                r#"{"kernel_policy": {"seq_toom_max_bits": 9000000, "ntt_min_bits": 8000000}}"#
            ),
            Err(ConfigError::Invalid(_))
        ));
        let cfg =
            ServiceConfig::from_json(r#"{"kernel_policy": {"ntt_min_bits": 16000000}}"#).unwrap();
        assert_eq!(cfg.kernel_policy.ntt_min_bits, 16_000_000);
        // A mistyped value inside a section names its full path.
        for (bad, path) in [
            (r#"{"distributed": {"k": -1}}"#, "distributed.k"),
            (
                r#"{"verify": {"dual_per_10k": "all"}}"#,
                "verify.dual_per_10k",
            ),
        ] {
            match ServiceConfig::from_json(bad) {
                Err(ConfigError::Invalid(msg)) => assert!(msg.contains(path), "{bad}: {msg}"),
                other => panic!("{bad} must be rejected, got {other:?}"),
            }
        }
    }
}
