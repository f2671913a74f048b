//! ft-service: a batching multiplication service layer.
//!
//! Accepts jobs of operand pairs on one bounded submission queue, groups
//! same-shape requests into batches, runs them on a worker pool with a
//! kernel auto-selected per size class, and returns results through one
//! result table per job. Kernel execution is supervised: panics are caught,
//! products are residue-verified, failures are retried with backoff and
//! degraded across kernels by per-kernel circuit breakers, and a
//! deterministic chaos injector can exercise all of it. See `DESIGN.md`
//! §2 for the subsystem inventory.

pub mod chaos;
pub mod config;
pub(crate) mod dispatcher;
pub mod distributed;
pub mod error;
pub mod json;
pub mod kernel;
pub mod metrics;
pub mod plan_cache;
pub mod router;
pub mod service;
pub mod shard;
pub mod supervisor;
pub(crate) mod tuner;
pub mod verify;

pub use chaos::{install_quiet_panic_hook, ChaosConfig, CorruptionKind, FaultKind};
pub use config::{
    BatchingConfig, DistributedConfig, KernelPolicy, ServiceConfig, ShardConfig, TunerConfig,
};
pub use distributed::DistributedBackend;
pub use error::{MulError, SubmitError};
pub use kernel::Kernel;
pub use metrics::{DistributedSnapshot, MetricsSnapshot, RouterSnapshot, VerifySnapshot};
pub use router::{Router, ShardState};
pub use service::{BatchHandle, BatchResults, MulService, ResponseHandle};
pub use shard::{Shard, ShardId};
pub use supervisor::{BreakerPolicy, RetryPolicy};
pub use verify::VerifyPolicy;
