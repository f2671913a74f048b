//! Deterministic fault injection for chaos-testing the service.
//!
//! The simulator can only fault processors deep inside `ft-machine`
//! (`FaultPlan`); this module injects the same fault taxonomy at the
//! serving layer, where the supervisor (see [`crate::supervisor`]) must
//! detect and survive it end to end:
//!
//! | [`FaultKind`] | Paper fault model | Injection |
//! |---|---|---|
//! | `Panic` | hard fault (fail-stop processor) | the kernel panics mid-request |
//! | `Straggle` | delay fault (slow processor) | the kernel sleeps before computing |
//! | `Corrupt` | soft fault (silent miscalculation) | the product is corrupted ([`CorruptionKind`]) |
//!
//! Faults are drawn from `(seed, request index, attempt)` only, so a chaos
//! run is exactly reproducible for a given seed regardless of worker
//! scheduling. The plan is the `chaos` section of the service config.

use crate::config::{rule, ConfigError, Knob, Knobs, Section};
use crate::json::{obj, Json};
use ft_bigint::{BigInt, Sign};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// Panic message carried by injected hard faults; the supervisor and the
/// quiet panic hook recognise injected panics by this marker.
pub const INJECTED_PANIC_MSG: &str = "chaos-injected worker panic";

/// The injectable fault kinds (see the module docs for the mapping to
/// the paper's hard/delay/soft fault model). The first three target one
/// request attempt inside a worker; the shard kinds target a whole
/// [`crate::shard::Shard`] and are drawn by the router's monitor via
/// [`ChaosConfig::decide_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Hard fault: the kernel panics mid-request.
    Panic,
    /// Delay fault: the kernel sleeps before computing (straggler).
    Straggle,
    /// Soft fault: one limb of the product is silently bit-flipped.
    Corrupt,
    /// Shard-level fail-stop: the whole shard dies — heartbeats stop and
    /// queued work resolves as `ServiceStopped` for the router to fail
    /// over. Maps to the paper's detected fail-stop processor, one level
    /// up the topology.
    ShardKill,
    /// Shard-level stall: heartbeats pause for `stall_rounds` monitor
    /// rounds while the shard keeps serving — the detector declares it
    /// dead, then re-admits it when beats resume (rejoin path).
    ShardStall,
}

impl FaultKind {
    /// All kinds, in metrics order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Panic,
        FaultKind::Straggle,
        FaultKind::Corrupt,
        FaultKind::ShardKill,
        FaultKind::ShardStall,
    ];

    /// Stable name used as the metrics / JSON key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Straggle => "straggle",
            FaultKind::Corrupt => "corrupt",
            FaultKind::ShardKill => "shard_kill",
            FaultKind::ShardStall => "shard_stall",
        }
    }

    /// `true` for the kinds that target a whole shard rather than one
    /// request attempt.
    #[must_use]
    pub fn is_shard_fault(self) -> bool {
        matches!(self, FaultKind::ShardKill | FaultKind::ShardStall)
    }

    fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How an injected soft fault corrupts a product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CorruptionKind {
    /// Flip one pseudo-random bit of one limb. Deterministically caught by
    /// the residue spot-check (the delta `c · 2^{64i}` with `0 < |c| < 2^64`
    /// is never `≡ 0 (mod 2^64 + 1)`).
    #[default]
    SingleLimb,
    /// Add `c · 2^{64i} · (2^128 − 1)` to the product — a crafted
    /// multi-limb corruption that preserves BOTH residues mod `2^64 ± 1`
    /// exactly, so the residue rung provably cannot see it. Only the
    /// dual-algorithm rung of the verification ladder catches these.
    ResidueEvading,
}

impl CorruptionKind {
    /// Both kinds, in JSON/metrics order.
    pub const ALL: [CorruptionKind; 2] =
        [CorruptionKind::SingleLimb, CorruptionKind::ResidueEvading];

    /// Stable name used as the JSON value (`chaos.corruption`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CorruptionKind::SingleLimb => "single_limb",
            CorruptionKind::ResidueEvading => "residue_evading",
        }
    }

    /// Inverse of [`CorruptionKind::name`], for config loading.
    #[must_use]
    pub fn from_name(name: &str) -> Option<CorruptionKind> {
        CorruptionKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A chaos plan (the config's `chaos` section). Rates are per 10 000
/// requests; a request draws at most one fault per attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Hard-fault (panic) rate per 10 000 requests.
    pub panic_per_10k: u32,
    /// Delay-fault (straggler) rate per 10 000 requests.
    pub straggle_per_10k: u32,
    /// Soft-fault (corruption) rate per 10 000 requests.
    pub corrupt_per_10k: u32,
    /// Shape of injected corruptions: naive single-limb bit flips (always
    /// caught by the residue check) or crafted residue-evading multi-limb
    /// deltas (caught only by the dual-algorithm verification rung).
    pub corruption: CorruptionKind,
    /// How long an injected straggler sleeps, in milliseconds.
    pub straggle_ms: u64,
    /// Probabilistic faults fire only on attempts below this bound, so a
    /// supervised retry deterministically clears an injected fault.
    pub max_faulty_attempts: u32,
    /// Rethrow injected panics outside the supervisor: the worker thread
    /// dies, as it would without `catch_unwind` supervision.
    pub escalate_panics: bool,
    /// Forced faults `(request index, kind)`, fired on the first attempt
    /// regardless of the probabilistic rates.
    pub force: Vec<(u64, FaultKind)>,
    /// Shard-kill rate per 10 000 (shard, monitor round) draws.
    pub shard_kill_per_10k: u32,
    /// Shard-stall rate per 10 000 (shard, monitor round) draws.
    pub shard_stall_per_10k: u32,
    /// How many monitor rounds a stalled shard withholds heartbeats
    /// before beats resume and the shard rejoins.
    pub stall_rounds: u64,
    /// Forced shard faults `(shard index, monitor round, kind)`, fired at
    /// exactly that round regardless of the probabilistic rates. Kinds
    /// must be shard-level (`shard_kill` / `shard_stall`).
    pub force_shard: Vec<(usize, u64, FaultKind)>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            panic_per_10k: 0,
            straggle_per_10k: 0,
            corrupt_per_10k: 0,
            corruption: CorruptionKind::SingleLimb,
            straggle_ms: 2,
            max_faulty_attempts: 1,
            escalate_panics: false,
            force: Vec::new(),
            shard_kill_per_10k: 0,
            shard_stall_per_10k: 0,
            stall_rounds: 4,
            force_shard: Vec::new(),
        }
    }
}

impl ChaosConfig {
    /// `true` when this plan can inject at least one fault.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.panic_per_10k + self.straggle_per_10k + self.corrupt_per_10k > 0
            || !self.force.is_empty()
    }

    /// The deterministic per-(request, attempt) random stream.
    fn rng_for(&self, request: u64, attempt: u32) -> StdRng {
        StdRng::seed_from_u64(
            self.seed ^ request.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(attempt) << 56),
        )
    }

    /// The fault (if any) to inject on the given attempt of a request.
    #[must_use]
    pub fn decide(&self, request: u64, attempt: u32) -> Option<FaultKind> {
        if attempt == 0 {
            if let Some(&(_, kind)) = self.force.iter().find(|&&(i, _)| i == request) {
                return Some(kind);
            }
        }
        if attempt >= self.max_faulty_attempts {
            return None;
        }
        let (p, s, c) = (
            self.panic_per_10k,
            self.straggle_per_10k,
            self.corrupt_per_10k,
        );
        if p + s + c == 0 {
            return None;
        }
        #[allow(clippy::cast_possible_truncation)] // draw < 10_000
        let draw = self.rng_for(request, attempt).random_range(0..10_000) as u32;
        if draw < p {
            Some(FaultKind::Panic)
        } else if draw < p + s {
            Some(FaultKind::Straggle)
        } else if draw < p + s + c {
            Some(FaultKind::Corrupt)
        } else {
            None
        }
    }

    /// `true` when this plan can fault whole shards (router-level chaos).
    #[must_use]
    pub fn shard_chaos_active(&self) -> bool {
        self.shard_kill_per_10k + self.shard_stall_per_10k > 0 || !self.force_shard.is_empty()
    }

    /// The shard fault (if any) the router's monitor should apply to
    /// `shard` at monitor round `round`. Deterministic over
    /// `(seed, shard, round)` only, so a chaos run kills the same shards
    /// at the same rounds regardless of request traffic.
    #[must_use]
    pub fn decide_shard(&self, shard: usize, round: u64) -> Option<FaultKind> {
        if let Some(&(_, _, kind)) = self
            .force_shard
            .iter()
            .find(|&&(s, r, _)| s == shard && r == round)
        {
            return Some(kind);
        }
        let (k, s) = (self.shard_kill_per_10k, self.shard_stall_per_10k);
        if k + s == 0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (shard as u64).wrapping_mul(0xd605_bbb5_8c8a_bc03)
                ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d),
        );
        #[allow(clippy::cast_possible_truncation)] // draw < 10_000
        let draw = rng.random_range(0..10_000) as u32;
        if draw < k {
            Some(FaultKind::ShardKill)
        } else if draw < k + s {
            Some(FaultKind::ShardStall)
        } else {
            None
        }
    }

    /// How long an injected straggler sleeps.
    #[must_use]
    pub fn straggle_duration(&self) -> Duration {
        Duration::from_millis(self.straggle_ms)
    }

    /// Soft fault: return a corrupted `product`. The corruption is drawn
    /// from the same deterministic stream as [`Self::decide`]; its shape is
    /// set by [`ChaosConfig::corruption`].
    #[must_use]
    pub fn corrupt(&self, product: &BigInt, request: u64, attempt: u32) -> BigInt {
        let mut rng = self.rng_for(request, attempt.wrapping_add(0x5bd1));
        match self.corruption {
            CorruptionKind::SingleLimb => {
                // One pseudo-random bit of one limb (a corrupted zero
                // becomes one).
                let mut limbs = product.limbs().to_vec();
                if limbs.is_empty() {
                    return BigInt::one();
                }
                let limb = rng.random_range(0..limbs.len() as u64) as usize;
                let bit = rng.random_range(0..64);
                limbs[limb] ^= 1u64 << bit;
                BigInt::from_sign_limbs(product.sign(), limbs)
            }
            CorruptionKind::ResidueEvading => {
                // Add c · 2^{64i} · (2^128 − 1) = (c << 64(i+2)) − (c << 64i)
                // with c ≠ 0: nonzero, multi-limb, and ≡ 0 under both word
                // moduli, so residue_pair(corrupt) == residue_pair(product).
                let i = if product.word_len() == 0 {
                    0
                } else {
                    rng.random_range(0..product.word_len() as u64) as usize
                };
                let c = 1 + rng.random_range(0..u64::MAX);
                let mut hi = vec![0u64; i + 2];
                hi.push(c);
                let mut lo = vec![0u64; i];
                lo.push(c);
                let delta = &BigInt::from_sign_limbs(Sign::Positive, hi)
                    - &BigInt::from_sign_limbs(Sign::Positive, lo);
                product + &delta
            }
        }
    }
}

impl Section for ChaosConfig {
    fn knobs(&mut self) -> Knobs<'_> {
        vec![
            ("seed", &mut self.seed),
            ("panic_per_10k", &mut self.panic_per_10k),
            ("straggle_per_10k", &mut self.straggle_per_10k),
            ("corrupt_per_10k", &mut self.corrupt_per_10k),
            ("corruption", &mut self.corruption),
            ("straggle_ms", &mut self.straggle_ms),
            ("max_faulty_attempts", &mut self.max_faulty_attempts),
            ("escalate_panics", &mut self.escalate_panics),
            ("force", &mut self.force),
            ("shard_kill_per_10k", &mut self.shard_kill_per_10k),
            ("shard_stall_per_10k", &mut self.shard_stall_per_10k),
            ("stall_rounds", &mut self.stall_rounds),
            ("force_shard", &mut self.force_shard),
        ]
    }

    fn check(&self) -> Result<(), ConfigError> {
        rule(
            self.panic_per_10k + self.straggle_per_10k + self.corrupt_per_10k <= 10_000,
            "chaos fault rates must sum to at most 10000 per 10k",
        )?;
        rule(
            self.shard_kill_per_10k + self.shard_stall_per_10k <= 10_000,
            "chaos shard fault rates must sum to at most 10000 per 10k",
        )
    }
}

/// `chaos.corruption`, by name.
impl Knob for CorruptionKind {
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError> {
        let Json::Str(name) = json else {
            return Err(ConfigError::Invalid(format!("{path} must be a string")));
        };
        *self = CorruptionKind::from_name(name).ok_or_else(|| {
            ConfigError::Invalid(format!(
                "{path} must be \"single_limb\" or \"residue_evading\""
            ))
        })?;
        Ok(())
    }

    fn write(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// `chaos.force`: `[{"index": N, "kind": "panic|straggle|corrupt"}]`.
impl Knob for Vec<(u64, FaultKind)> {
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError> {
        *self = read_entries(
            json,
            path,
            r#"{"index": N, "kind": "panic|straggle|corrupt"}"#,
            |e| Some((e.get("index")?.as_u64()?, entry_kind(e, false)?)),
        )?;
        Ok(())
    }

    fn write(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|&(index, kind)| obj([("index", index.write()), ("kind", kind_json(kind))]))
                .collect(),
        )
    }
}

/// `chaos.force_shard`: `[{"shard": N, "round": R, "kind":
/// "shard_kill|shard_stall"}]`.
impl Knob for Vec<(usize, u64, FaultKind)> {
    fn read(&mut self, json: &Json, path: &str) -> Result<(), ConfigError> {
        let shape = r#"{"shard": N, "round": R, "kind": "shard_kill|shard_stall"}"#;
        *self = read_entries(json, path, shape, |e| {
            Some((
                e.get("shard")?.as_usize()?,
                e.get("round")?.as_u64()?,
                entry_kind(e, true)?,
            ))
        })?;
        Ok(())
    }

    fn write(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|&(shard, round, kind)| {
                    obj([
                        ("shard", shard.write()),
                        ("round", round.write()),
                        ("kind", kind_json(kind)),
                    ])
                })
                .collect(),
        )
    }
}

/// Read a forced-fault list; any entry `entry` cannot read fails the
/// whole list, naming the entry `shape`.
fn read_entries<T>(
    json: &Json,
    path: &str,
    shape: &str,
    entry: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, ConfigError> {
    let invalid = || ConfigError::Invalid(format!("{path} must be an array of {shape}"));
    let Json::Arr(items) = json else {
        return Err(invalid());
    };
    items.iter().map(|e| entry(e).ok_or_else(invalid)).collect()
}

/// A forced entry's `kind`, if it names a fault of the wanted level.
fn entry_kind(entry: &Json, shard_level: bool) -> Option<FaultKind> {
    match entry.get("kind")? {
        Json::Str(name) => FaultKind::from_name(name).filter(|k| k.is_shard_fault() == shard_level),
        _ => None,
    }
}

fn kind_json(kind: FaultKind) -> Json {
    Json::Str(kind.name().to_string())
}

/// Install a process-wide panic hook that silences the backtrace spam from
/// *expected* panics — chaos-injected worker panics and the distributed
/// backend's unrecoverable-run marker (both caught by the supervisor, or
/// deliberately escalated) — while delegating every other panic to the
/// previously installed hook. Idempotent; intended for chaos tests and
/// demos.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = |s: &str| {
                s.contains(INJECTED_PANIC_MSG) || s.contains(crate::distributed::UNRECOVERABLE_MSG)
            };
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| expected(s))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| expected(s));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::read_section;

    fn active_config() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            panic_per_10k: 300,
            straggle_per_10k: 300,
            corrupt_per_10k: 400,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn decisions_are_deterministic_and_hit_every_kind() {
        let chaos = active_config();
        let mut counts = [0u32; 3];
        for request in 0..5_000 {
            let first = chaos.decide(request, 0);
            assert_eq!(first, chaos.decide(request, 0), "request {request}");
            if let Some(kind) = first {
                assert!(!kind.is_shard_fault(), "decide() never yields shard kinds");
                counts[kind as usize] += 1;
            }
            // Attempts at or past max_faulty_attempts are always clean.
            assert_eq!(chaos.decide(request, 1), None);
        }
        let total: u32 = counts.iter().sum();
        // 10% nominal rate over 5000 requests: expect roughly 500 faults.
        assert!((300..700).contains(&total), "total {total}");
        assert!(counts.iter().all(|&c| c > 0), "counts {counts:?}");
    }

    #[test]
    fn forced_faults_override_rates() {
        let chaos = ChaosConfig {
            force: vec![(7, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        assert!(!chaos.is_active() || chaos.is_active()); // force makes it active
        assert!(chaos.is_active());
        assert_eq!(chaos.decide(7, 0), Some(FaultKind::Corrupt));
        assert_eq!(chaos.decide(7, 1), None, "forced faults fire once");
        assert_eq!(chaos.decide(8, 0), None);
    }

    #[test]
    fn corruption_always_changes_the_value() {
        let chaos = active_config();
        let mut rng = StdRng::seed_from_u64(9);
        for request in 0..50 {
            let x = BigInt::random_signed_bits(&mut rng, 1 + request * 13);
            let bad = chaos.corrupt(&x, request, 0);
            assert_ne!(bad, x, "request {request}");
            assert_eq!(bad, chaos.corrupt(&x, request, 0), "deterministic");
        }
        assert_eq!(chaos.corrupt(&BigInt::zero(), 0, 0), BigInt::one());
    }

    #[test]
    fn residue_evading_corruption_changes_value_but_preserves_residues() {
        let chaos = ChaosConfig {
            corruption: CorruptionKind::ResidueEvading,
            ..active_config()
        };
        let mut rng = StdRng::seed_from_u64(11);
        for request in 0..50 {
            let x = BigInt::random_signed_bits(&mut rng, 1 + request * 29);
            let bad = chaos.corrupt(&x, request, 0);
            assert_ne!(bad, x, "request {request}");
            assert_eq!(bad, chaos.corrupt(&x, request, 0), "deterministic");
            assert_eq!(
                ft_toom_core::residue::residue_pair(&bad),
                ft_toom_core::residue::residue_pair(&x),
                "request {request}: residues must be preserved"
            );
        }
        // The zero product is corrupted too (delta is never zero), and the
        // corruption still evades both residues.
        let bad_zero = chaos.corrupt(&BigInt::zero(), 3, 0);
        assert!(!bad_zero.is_zero());
        assert_eq!(
            ft_toom_core::residue::residue_pair(&bad_zero),
            (0, 0),
            "zero's residues preserved"
        );
    }

    #[test]
    fn shard_decisions_are_deterministic_and_forced_rounds_fire() {
        let chaos = ChaosConfig {
            seed: 7,
            shard_kill_per_10k: 400,
            shard_stall_per_10k: 400,
            force_shard: vec![(1, 5, FaultKind::ShardKill)],
            ..ChaosConfig::default()
        };
        assert!(chaos.shard_chaos_active());
        assert_eq!(chaos.decide_shard(1, 5), Some(FaultKind::ShardKill));
        let mut kills = 0u32;
        let mut stalls = 0u32;
        for shard in 0..3usize {
            for round in 0..2_000u64 {
                let fault = chaos.decide_shard(shard, round);
                assert_eq!(fault, chaos.decide_shard(shard, round));
                match fault {
                    Some(FaultKind::ShardKill) => kills += 1,
                    Some(FaultKind::ShardStall) => stalls += 1,
                    Some(other) => panic!("non-shard fault {other:?}"),
                    None => {}
                }
            }
        }
        // 8% nominal rate over 6000 draws: expect roughly 240 per kind.
        assert!((100..500).contains(&kills), "kills {kills}");
        assert!((100..500).contains(&stalls), "stalls {stalls}");
        // The default plan never touches shards.
        assert!(!ChaosConfig::default().shard_chaos_active());
        assert_eq!(ChaosConfig::default().decide_shard(0, 0), None);
    }

    #[test]
    fn json_round_trip() {
        let cfg = ChaosConfig {
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
        };
        let text = cfg.write().dump();
        let parsed = read_section::<ChaosConfig>(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn json_rejects_bad_documents() {
        let over = r#"{"panic_per_10k": 9000, "corrupt_per_10k": 2000}"#;
        assert!(read_section::<ChaosConfig>(&Json::parse(over).unwrap()).is_err());
        let bad_kind = r#"{"force": [{"index": 1, "kind": "meltdown"}]}"#;
        assert!(read_section::<ChaosConfig>(&Json::parse(bad_kind).unwrap()).is_err());
        let bad_bool = r#"{"escalate_panics": 3}"#;
        assert!(read_section::<ChaosConfig>(&Json::parse(bad_bool).unwrap()).is_err());
        let bad_corruption = r#"{"corruption": "cosmic_ray"}"#;
        assert!(read_section::<ChaosConfig>(&Json::parse(bad_corruption).unwrap()).is_err());
        let bad_corruption_type = r#"{"corruption": 7}"#;
        assert!(read_section::<ChaosConfig>(&Json::parse(bad_corruption_type).unwrap()).is_err());
        // Shard kinds are rejected in request-level force, and vice versa.
        let shard_in_force = r#"{"force": [{"index": 1, "kind": "shard_kill"}]}"#;
        assert!(read_section::<ChaosConfig>(&Json::parse(shard_in_force).unwrap()).is_err());
        let req_in_shard = r#"{"force_shard": [{"shard": 0, "round": 1, "kind": "panic"}]}"#;
        assert!(read_section::<ChaosConfig>(&Json::parse(req_in_shard).unwrap()).is_err());
        let over_shard = r#"{"shard_kill_per_10k": 9000, "shard_stall_per_10k": 2000}"#;
        assert!(read_section::<ChaosConfig>(&Json::parse(over_shard).unwrap()).is_err());
    }
}
