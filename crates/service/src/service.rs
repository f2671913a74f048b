//! The multiplication service: one bounded submission queue, a coalescing
//! dispatcher, a worker pool, and one result table per submission.
//!
//! Architecture: [`MulService::submit`] enqueues a job — one or more
//! operand pairs plus an optional deadline — as ONE message on the bounded
//! submission queue (`batching.queue_capacity` messages; beyond it,
//! [`SubmitError::QueueFull`]). A single request is a job of one pair.
//! The dispatcher (the crate-private `dispatcher` module) is the queue's
//! only consumer: it collects a round, groups it by `(kernel, operand size
//! class)`, and hands every group to the `workers` threads over one shared
//! channel bounded by `workers`, so while every worker is busy the
//! dispatcher stops draining and the submission queue fills. A worker
//! gates the group (kill, deadline, shed) when it starts it, runs it
//! through the supervisor's batch entry, and publishes each element into
//! its submission's result table — read through a [`BatchHandle`], or a
//! [`ResponseHandle`] for a one-pair table.
//!
//! Carrying a job unexploded is the submit-side half of cross-request
//! batching: one channel lock, one timestamp, one dispatcher wake-up and
//! one result table for `n` requests. Execution reads the *live* kernel
//! policy, which the adaptive tuner (the crate-private `tuner` module) re-derives
//! from the latency histogram at runtime. Shutdown drops the sender; the
//! dispatcher and the workers drain what was accepted, then exit.

use crate::config::ServiceConfig;
use crate::distributed::DistributedBackend;
use crate::error::{MulError, SubmitError};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::plan_cache::PlanCache;
use crate::supervisor::Supervisor;
use crossbeam::channel::{bounded, Sender, TrySendError};
use ft_bigint::BigInt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Callback = Box<dyn FnOnce(Result<BigInt, MulError>) + Send>;

struct TableState {
    results: Vec<Option<Result<BigInt, MulError>>>,
    remaining: usize,
    /// Threads currently blocked in a per-slot wait
    /// ([`BatchHandle::wait_slot`] or the streaming iterator). While this
    /// is zero — the common, whole-table case — slot arrivals stay silent
    /// and the single table-level notify fires when the last slot lands.
    slot_waiters: usize,
    /// Registered by [`ResponseHandle::on_ready`] on a one-slot table:
    /// receives the result in place of storing it.
    on_ready: Option<Callback>,
}

/// Shared result table for one submission: every element fills its own
/// slot; the waiter is woken once, when the last slot lands. This is the
/// wait-side half of the cross-request batching story — `n` requests
/// share one allocation, one condvar sleep, and one wake instead of `n`
/// of each.
struct ResultTable {
    state: Mutex<TableState>,
    ready: Condvar,
}

impl ResultTable {
    fn lock(&self) -> std::sync::MutexGuard<'_, TableState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Fill one slot; returns whether that was the last outstanding slot
    /// of a callback-less table (i.e. the single table-level notify is now
    /// owed). Wakes per-slot waiters immediately even when other slots are
    /// still outstanding, so [`BatchHandle::wait_slot`] resolves as soon
    /// as *its* slot lands — early elements stream out before the table
    /// completes. A registered callback runs right here instead (nothing
    /// sleeps on a callback table).
    fn store(&self, slot: usize, result: Result<BigInt, MulError>) -> bool {
        let mut state = self.lock();
        state.remaining -= 1;
        if state.remaining == 0 {
            if let Some(callback) = state.on_ready.take() {
                drop(state);
                // A panicking callback must not take down the service
                // thread that happened to resolve this request.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| callback(result)));
                return false;
            }
        }
        state.results[slot] = Some(result);
        let last = state.remaining == 0;
        if !last && state.slot_waiters > 0 {
            drop(state);
            self.ready.notify_all();
        }
        last
    }

    /// Block until `slot` holds a result.
    fn wait_for_slot<'a>(
        &'a self,
        mut state: std::sync::MutexGuard<'a, TableState>,
        slot: usize,
    ) -> std::sync::MutexGuard<'a, TableState> {
        while state.results[slot].is_none() {
            state.slot_waiters += 1;
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.slot_waiters -= 1;
        }
        state
    }
}

/// A fresh result table of `len` slots: the client's handle plus one
/// write capability per slot.
pub(crate) fn result_table(len: usize) -> (BatchHandle, Vec<SlotGuard>) {
    let table = Arc::new(ResultTable {
        state: Mutex::new(TableState {
            results: (0..len).map(|_| None).collect(),
            remaining: len,
            slot_waiters: 0,
            on_ready: None,
        }),
        ready: Condvar::new(),
    });
    let slots = (0..len)
        .map(|slot| SlotGuard {
            table: table.clone(),
            slot,
            fulfilled: false,
        })
        .collect();
    (BatchHandle { table }, slots)
}

/// A deferred wake-up for a fully-filled table (see [`SlotGuard::stage`]).
/// Dropping it delivers the notify, so a staged result can never strand
/// its waiter.
pub(crate) struct Waker {
    table: Arc<ResultTable>,
}

impl Drop for Waker {
    fn drop(&mut self) {
        self.table.ready.notify_all();
    }
}

/// One element's write capability into a result table. Dropping it
/// unfulfilled resolves the slot as `ServiceStopped`, so no handle can
/// ever hang on a lost request (worker death, refused submission,
/// service drop mid-queue).
pub(crate) struct SlotGuard {
    table: Arc<ResultTable>,
    slot: usize,
    fulfilled: bool,
}

impl SlotGuard {
    pub(crate) fn fulfill(self, result: Result<BigInt, MulError>) {
        drop(self.stage(result));
    }

    /// Publish the result but defer the waiter's wake-up to the returned
    /// [`Waker`] (`None` when no notify is owed). A worker stages a whole
    /// group of results first and wakes afterwards: each notify of a
    /// sleeping client is a context switch that preempts the publishing
    /// thread, so waking mid-publication turns a coalesced group back into
    /// per-request ping-pong. A woken client instead finds every companion
    /// result already readable and drains them without sleeping again.
    pub(crate) fn stage(mut self, result: Result<BigInt, MulError>) -> Option<Waker> {
        self.fulfilled = true;
        self.table.store(self.slot, result).then(|| Waker {
            table: self.table.clone(),
        })
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if !self.fulfilled && self.table.store(self.slot, Err(MulError::ServiceStopped)) {
            self.table.ready.notify_all();
        }
    }
}

/// Client-side handle to one accepted submission
/// ([`MulService::submit`]): resolves to one result per submitted pair,
/// in submission order.
pub struct BatchHandle {
    table: Arc<ResultTable>,
}

impl BatchHandle {
    /// How many pairs this submission carries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.lock().results.len()
    }

    /// Whether the submission was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block until every element resolves; results are in submission
    /// order.
    pub fn wait(self) -> Vec<Result<BigInt, MulError>> {
        let mut state = self.table.lock();
        while state.remaining > 0 {
            state = self
                .table
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state
            .results
            .drain(..)
            .map(|r| r.expect("filled"))
            .collect()
    }

    /// Non-blocking poll; `Err(self)` while any element is pending.
    pub fn try_wait(self) -> Result<Vec<Result<BigInt, MulError>>, BatchHandle> {
        let mut state = self.table.lock();
        if state.remaining > 0 {
            drop(state);
            return Err(self);
        }
        let results = state
            .results
            .drain(..)
            .map(|r| r.expect("filled"))
            .collect();
        drop(state);
        Ok(results)
    }

    /// Block until element `slot` (submission order) resolves, without
    /// waiting for its batch-mates — early elements of a large bulk
    /// submission stream out while later ones are still grinding. The
    /// handle stays usable: `wait_slot` can be called repeatedly, in any
    /// order, and [`Self::wait`] afterwards still returns every result.
    ///
    /// # Panics
    /// If `slot >= self.len()`.
    pub fn wait_slot(&self, slot: usize) -> Result<BigInt, MulError> {
        let state = self.table.lock();
        assert!(
            slot < state.results.len(),
            "slot {slot} out of range for batch of {}",
            state.results.len()
        );
        let state = self.table.wait_for_slot(state, slot);
        state.results[slot].clone().expect("checked above")
    }

    /// View a one-pair submission as a [`ResponseHandle`].
    pub(crate) fn into_single(self) -> ResponseHandle {
        debug_assert_eq!(self.len(), 1, "a ResponseHandle views a one-slot table");
        ResponseHandle { table: self.table }
    }
}

/// Streaming consumer of a [`BatchHandle`]: yields each element's result
/// in submission order, blocking only until *that* element resolves.
pub struct BatchResults {
    table: Arc<ResultTable>,
    next: usize,
    len: usize,
}

impl Iterator for BatchResults {
    type Item = Result<BigInt, MulError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.len {
            return None;
        }
        let slot = self.next;
        self.next += 1;
        let state = self.table.lock();
        let mut state = self.table.wait_for_slot(state, slot);
        // The iterator owns the handle, so the slot can be moved out.
        Some(state.results[slot].take().expect("checked above"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for BatchResults {}

impl IntoIterator for BatchHandle {
    type Item = Result<BigInt, MulError>;
    type IntoIter = BatchResults;

    /// Stream results in submission order as they land (see
    /// [`BatchResults`]).
    fn into_iter(self) -> BatchResults {
        let len = self.len();
        BatchResults {
            table: self.table,
            next: 0,
            len,
        }
    }
}

/// Client-side handle to one accepted request: a view of a one-slot
/// result table.
pub struct ResponseHandle {
    table: Arc<ResultTable>,
}

impl ResponseHandle {
    /// Take the result out of a resolved table.
    fn take(state: &mut TableState) -> Option<Result<BigInt, MulError>> {
        if state.remaining == 0 {
            state.results[0].take()
        } else {
            None
        }
    }

    /// Block until the request resolves.
    pub fn wait(self) -> Result<BigInt, MulError> {
        match self.wait_timeout(Duration::MAX) {
            Ok(result) => result,
            Err(_) => unreachable!("an unbounded wait returns the result"),
        }
    }

    /// Non-blocking poll; `Err(self)` when the request is still pending.
    pub fn try_wait(self) -> Result<Result<BigInt, MulError>, ResponseHandle> {
        let taken = Self::take(&mut self.table.lock());
        taken.ok_or(self)
    }

    /// Block for at most `timeout`; `Err(self)` hands the still-usable
    /// handle back when the request has not resolved in time.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<BigInt, MulError>, ResponseHandle> {
        let table = self.table.clone();
        let deadline = Instant::now().checked_add(timeout);
        let mut state = table.lock();
        loop {
            if let Some(result) = Self::take(&mut state) {
                return Ok(result);
            }
            // An overflowing deadline (e.g. Duration::MAX) waits forever.
            let Some(deadline) = deadline else {
                state = table
                    .ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                return Err(self);
            }
            let (guard, _) = table
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
    }

    /// Register a callback invoked with the result as soon as the request
    /// resolves, consuming the handle. If the request already resolved,
    /// the callback runs immediately on the calling thread; otherwise it
    /// runs on the service thread that resolves the request — keep it
    /// short and non-blocking.
    pub fn on_ready<F>(self, callback: F)
    where
        F: FnOnce(Result<BigInt, MulError>) + Send + 'static,
    {
        let mut state = self.table.lock();
        if let Some(result) = Self::take(&mut state) {
            drop(state);
            callback(result);
        } else {
            state.on_ready = Some(Box::new(callback));
        }
    }
}

/// A request's deadline, kept overflow-safe: a huge user timeout (e.g.
/// `Duration::MAX`) saturates to `Far` — it can never expire, but unlike
/// `None` it still marks the request as deadline-carrying, so load
/// shedding (which only applies to deadline-less requests) skips it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Deadline {
    /// No deadline requested; the request is sheddable under load.
    None,
    /// Expires at the given instant.
    At(Instant),
    /// Requested deadline overflowed `Instant`: effectively infinite.
    Far,
}

impl Deadline {
    fn after(timeout: Duration) -> Deadline {
        Instant::now()
            .checked_add(timeout)
            .map_or(Deadline::Far, Deadline::At)
    }

    pub(crate) fn expired(self, now: Instant) -> bool {
        matches!(self, Deadline::At(t) if now > t)
    }

    pub(crate) fn sheddable(self) -> bool {
        matches!(self, Deadline::None)
    }
}

pub(crate) struct MulRequest {
    pub(crate) a: BigInt,
    pub(crate) b: BigInt,
    /// Submission sequence number; seeds deterministic chaos and backoff
    /// jitter for this request.
    pub(crate) index: u64,
    pub(crate) deadline: Deadline,
    pub(crate) enqueued_at: Instant,
    pub(crate) done: SlotGuard,
}

/// One message on the submission queue: a whole job travelling
/// unexploded; the dispatcher explodes it into per-request entries for
/// grouping.
pub(crate) struct BatchJob {
    pairs: Vec<(BigInt, BigInt)>,
    /// Sequence number of the first element; element `i` is
    /// `first_index + i` (chaos/jitter seeding stays per-request).
    first_index: u64,
    deadline: Deadline,
    enqueued_at: Instant,
    slots: Vec<SlotGuard>,
}

impl BatchJob {
    /// Explode into per-request entries (dispatcher side).
    pub(crate) fn explode(self, round: &mut Vec<MulRequest>) {
        for (offset, ((a, b), done)) in self.pairs.into_iter().zip(self.slots).enumerate() {
            round.push(MulRequest {
                a,
                b,
                index: self.first_index + offset as u64,
                deadline: self.deadline,
                enqueued_at: self.enqueued_at,
                done,
            });
        }
    }
}

pub(crate) struct Shared {
    pub(crate) config: ServiceConfig,
    pub(crate) metrics: Metrics,
    pub(crate) plans: PlanCache,
    pub(crate) supervisor: Supervisor,
    /// The kernel policy currently in force. Starts as
    /// `config.kernel_policy`; the adaptive tuner republishes it from
    /// live latency data.
    pub(crate) live_policy: parking_lot::RwLock<crate::config::KernelPolicy>,
    /// Simulated fail-stop flag (see [`MulService::kill`]): when set, the
    /// admission gate resolves every not-yet-started request as
    /// `ServiceStopped` instead of executing it, so a sharded router can
    /// observe the loss and fail the work over to a survivor.
    pub(crate) killed: AtomicBool,
    /// Accepted requests no worker has started yet — queued, held in a
    /// dispatcher round, or waiting in the hand-off. Incremented on
    /// accept, decremented when a worker starts (or the dispatcher
    /// abandons) the request.
    pub(crate) pending: AtomicUsize,
}

impl Shared {
    pub(crate) fn new(config: ServiceConfig) -> Shared {
        Shared {
            plans: PlanCache::new(config.plan_cache_capacity),
            metrics: Metrics::default(),
            supervisor: Supervisor::new(
                config.retry.clone(),
                config.breaker.clone(),
                config.verify_residues,
                config.verify.clone(),
                config.chaos.clone(),
                config
                    .distributed
                    .enabled
                    .then(|| DistributedBackend::new(&config.distributed)),
            ),
            live_policy: parking_lot::RwLock::new(config.kernel_policy.clone()),
            killed: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            config,
        }
    }

    /// The kernel policy currently in force (tuner-adjusted).
    pub(crate) fn policy(&self) -> crate::config::KernelPolicy {
        self.live_policy.read().clone()
    }
}

/// The batching multiplication service. See the module docs for the
/// architecture and [`ServiceConfig`] for the knobs.
///
/// ```
/// use ft_service::{MulService, ServiceConfig};
/// use ft_bigint::BigInt;
///
/// let service = MulService::start(ServiceConfig::default());
/// let a: BigInt = "123456789123456789".parse().unwrap();
/// let b: BigInt = "-987654321987654321".parse().unwrap();
/// let bulk = service.submit(vec![(a.clone(), b.clone()); 3], None).unwrap();
/// for result in bulk.wait() {
///     assert_eq!(result.unwrap(), a.mul_schoolbook(&b));
/// }
/// service.shutdown();
/// ```
pub struct MulService {
    shared: Arc<Shared>,
    tx: Option<Sender<BatchJob>>,
    seq: AtomicU64,
    shutting_down: AtomicBool,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tuner: Option<crate::tuner::TunerHandle>,
}

/// Distinguishes service threads across service instances in one process.
static SERVICE_ID: AtomicUsize = AtomicUsize::new(0);

impl MulService {
    /// Spawn the worker pool, the coalescing dispatcher, and (when
    /// enabled) the adaptive tuner, and start accepting requests.
    ///
    /// # Panics
    /// Panics on a structurally invalid config (zero workers, zero
    /// capacity); [`ServiceConfig::from_json`] rejects those earlier.
    #[must_use]
    pub fn start(config: ServiceConfig) -> MulService {
        assert!(config.workers > 0, "workers must be >= 1");
        assert!(
            config.batching.queue_capacity > 0,
            "batching.queue_capacity must be >= 1"
        );
        let shared = Arc::new(Shared::new(config));
        // Resolve both Toom plans up front: the first coalesced batch
        // should not pay plan construction inside its latency.
        shared.plans.prewarm([
            shared.config.kernel_policy.seq_toom_k,
            shared.config.kernel_policy.par_toom_k,
        ]);
        let service_id = SERVICE_ID.fetch_add(1, Ordering::Relaxed) % 1_000;
        let (group_tx, group_rx) = bounded(shared.config.workers);
        let workers = (0..shared.config.workers)
            .map(|index| {
                let (rx, shared) = (group_rx.clone(), shared.clone());
                std::thread::Builder::new()
                    // Linux truncates thread names to 15 bytes: keep them
                    // short and unique.
                    .name(format!("ftsvc{service_id}-w{index}"))
                    .spawn(move || crate::dispatcher::run_groups(&rx, &shared))
                    .expect("spawn service worker")
            })
            .collect();
        // Only the workers hold the hand-off's receivers: if every one of
        // them dies, the dispatcher sees the channel disconnect.
        drop(group_rx);
        let (tx, rx) = bounded(shared.config.batching.queue_capacity);
        let dispatcher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("ftsvc{service_id}-disp"))
                .spawn(move || crate::dispatcher::dispatcher_loop(&rx, &group_tx, &shared))
                .expect("spawn service dispatcher")
        };
        let tuner = shared
            .config
            .tuner
            .enabled
            .then(|| crate::tuner::spawn(shared.clone(), service_id));
        MulService {
            shared,
            tx: Some(tx),
            seq: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            dispatcher: Some(dispatcher),
            workers,
            tuner,
        }
    }

    /// Submit `pairs` as one job and resolve them through one shared
    /// [`BatchHandle`], results in submission order. With a `deadline`,
    /// every element a worker does not reach in time resolves to
    /// [`MulError::DeadlineExceeded`]; huge deadlines (e.g.
    /// `Duration::MAX`) saturate to "never expires".
    ///
    /// The job occupies one slot of the submission queue regardless of
    /// length and pays the channel lock, the enqueue timestamp, the result
    /// table and the client's blocking wait once per *job* instead of once
    /// per request, mirroring the paper's per-batch (not
    /// per-multiplication) bandwidth/latency accounting. Elements still
    /// gate, group, verify, and count in metrics individually.
    pub fn submit(
        &self,
        pairs: Vec<(BigInt, BigInt)>,
        deadline: Option<Duration>,
    ) -> Result<BatchHandle, SubmitError> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let Some(tx) = self.tx.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let (handle, slots) = result_table(pairs.len());
        let n = pairs.len();
        if n == 0 {
            // Nothing to enqueue; the handle resolves immediately.
            return Ok(handle);
        }
        let job = BatchJob {
            pairs,
            first_index: self.seq.fetch_add(n as u64, Ordering::Relaxed),
            deadline: deadline.map_or(Deadline::None, Deadline::after),
            enqueued_at: Instant::now(),
            slots,
        };
        // Count the requests before a worker can see them, so its
        // decrement never runs ahead of this increment.
        let depth = self.shared.pending.fetch_add(n, Ordering::Relaxed) + n;
        match tx.try_send(job) {
            Ok(()) => {
                self.shared.metrics.observe_queue_depth(depth);
                Ok(handle)
            }
            // The rejected job's slot guards resolve the handle as
            // ServiceStopped on drop; the caller only sees the error.
            Err(error) => {
                self.shared.pending.fetch_sub(n, Ordering::Relaxed);
                match error {
                    TrySendError::Full(_) => {
                        self.shared.metrics.record_queue_full();
                        Err(SubmitError::QueueFull {
                            capacity: self.shared.config.batching.queue_capacity,
                        })
                    }
                    TrySendError::Disconnected(_) => Err(SubmitError::ShuttingDown),
                }
            }
        }
    }

    /// Point-in-time metrics (counters plus current queue depth).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared
            .metrics
            .snapshot(self.queue_depth(), self.shared.plans.stats())
    }

    /// Accepted requests no worker has started yet (queued, in a
    /// dispatcher round, or in the hand-off), without the full snapshot
    /// walk of [`MulService::metrics`] — cheap enough for per-rejection
    /// use, e.g. deriving an HTTP `Retry-After` from live backlog.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.pending.load(Ordering::Relaxed)
    }

    /// The configuration the service was started with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// The kernel policy currently in force: the configured one until the
    /// adaptive tuner republishes thresholds from live latency data.
    #[must_use]
    pub fn live_policy(&self) -> crate::config::KernelPolicy {
        self.shared.policy()
    }

    /// Simulated fail-stop: refuse new submissions and resolve every
    /// accepted-but-unstarted request as [`MulError::ServiceStopped`]
    /// the moment a worker starts its group. Requests already executing
    /// complete (and verify) normally — a fail-stop processor finishes
    /// nothing *new*, but this in-process simulation keeps its promises
    /// resolvable so no waiter ever hangs. The service threads stay up to
    /// drain the surrendered queue; [`Self::shutdown`] still works
    /// afterwards and returns the final metrics.
    pub fn kill(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.shared.killed.store(true, Ordering::Release);
    }

    /// Whether [`Self::kill`] was called.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.shared.killed.load(Ordering::Acquire)
    }

    /// Stop accepting work, drain every accepted request, join the
    /// service threads, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.shared.metrics.snapshot(0, self.shared.plans.stats())
    }

    fn stop_and_join(&mut self) {
        self.shutting_down.store(true, Ordering::Release);
        if let Some(tuner) = self.tuner.take() {
            tuner.stop();
        }
        // Disconnect the submission queue; the dispatcher drains it and
        // hangs up the hand-off, and the workers drain that in turn.
        self.tx = None;
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        for handle in self.workers.drain(..) {
            // A worker killed by an escalated panic already resolved its
            // lost requests as ServiceStopped via their slot guards.
            let _ = handle.join();
        }
    }
}

impl Drop for MulService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchingConfig, KernelPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Submit one pair; the returned handle views its one-slot table.
    fn one(
        service: &MulService,
        a: BigInt,
        b: BigInt,
        deadline: Option<Duration>,
    ) -> Result<ResponseHandle, SubmitError> {
        service
            .submit(vec![(a, b)], deadline)
            .map(BatchHandle::into_single)
    }

    /// Operands big enough to keep one schoolbook-only worker busy for
    /// hundreds of milliseconds — the deterministic "blocker" for the
    /// robustness tests below.
    fn blocker_policy() -> KernelPolicy {
        KernelPolicy {
            schoolbook_max_bits: u64::MAX,
            ..KernelPolicy::default()
        }
    }

    /// One round per job: the dispatcher hands every job over as its own
    /// group, so the jobs it can hold past the submission queue are
    /// exactly one in the hand-off plus one blocked in its hands.
    fn one_job_rounds(queue_capacity: usize) -> BatchingConfig {
        BatchingConfig {
            queue_capacity,
            max_batch: 1,
            ..BatchingConfig::default()
        }
    }

    #[test]
    fn kill_surrenders_queued_work_and_refuses_new_submits() {
        // One worker pinned by a slow schoolbook blocker; everything
        // queued behind it must resolve ServiceStopped after kill(), and
        // the blocker itself (already started) must complete normally.
        let service = MulService::start(ServiceConfig {
            workers: 1,
            kernel_policy: blocker_policy(),
            verify_residues: false,
            ..ServiceConfig::default()
        });
        let mut rng = rng(77);
        let a = BigInt::random_signed_bits(&mut rng, 400_000);
        let b = BigInt::random_signed_bits(&mut rng, 400_000);
        let blocker = one(&service, a.clone(), b.clone(), None).unwrap();
        std::thread::sleep(Duration::from_millis(30)); // let it start
        let queued: Vec<_> = (0..4)
            .map(|_| one(&service, a.clone(), b.clone(), None).unwrap())
            .collect();
        service.kill();
        assert!(service.is_killed());
        assert!(matches!(
            one(&service, a.clone(), b.clone(), None),
            Err(SubmitError::ShuttingDown)
        ));
        for handle in queued {
            assert_eq!(handle.wait(), Err(MulError::ServiceStopped));
        }
        assert_eq!(blocker.wait().unwrap(), a.mul_schoolbook(&b));
        let snap = service.shutdown();
        assert_eq!(snap.served, 1, "only the started request completed");
    }

    #[test]
    fn serves_and_verifies_small_batch() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(10);
        let mut expected = Vec::new();
        let mut handles = Vec::new();
        for bits in [100u64, 3_000, 20_000, 150_000] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            expected.push(a.mul_schoolbook(&b));
            handles.push(one(&service, a, b, None).unwrap());
        }
        for (handle, want) in handles.into_iter().zip(expected) {
            assert_eq!(handle.wait().unwrap(), want);
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 4);
        // Default thresholds route 100 bits → schoolbook and everything
        // else here → sequential Toom: with the limb-kernel base case the
        // schoolbook band ends at 2 kbit, and on the single-core reference
        // container the parallel kernel only pays at multi-megabit sizes
        // (far beyond what a unit test should multiply).
        assert_eq!(metrics.per_kernel[0].1, 1);
        assert_eq!(metrics.per_kernel[1].1, 3);
        assert_eq!(metrics.per_kernel[2].1, 0);
    }

    #[test]
    fn backpressure_rejects_when_queues_fill() {
        let config = ServiceConfig {
            workers: 1,
            kernel_policy: blocker_policy(),
            batching: one_job_rounds(2),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(11);
        let big = BigInt::random_bits(&mut rng, 400_000);
        let blocker = one(&service, big.clone(), big.clone(), None).unwrap();
        let tiny = BigInt::random_bits(&mut rng, 64);
        // While the worker grinds the blocker, the service can hold at
        // most 4 of these 8: one in the hand-off, one in the dispatcher's
        // hands, two in the depth-2 queue. At least 4 must bounce.
        let results: Vec<_> = (0..8)
            .map(|_| one(&service, tiny.clone(), tiny.clone(), None))
            .collect();
        let rejected = results.iter().filter(|r| r.is_err()).count();
        assert!(rejected >= 4, "expected >= 4 rejections, got {rejected}");
        for r in &results {
            if let Err(e) = r {
                assert_eq!(*e, SubmitError::QueueFull { capacity: 2 });
            }
        }
        let expect_tiny = tiny.mul_schoolbook(&tiny);
        for handle in results.into_iter().flatten() {
            assert_eq!(handle.wait().unwrap(), expect_tiny);
        }
        assert_eq!(blocker.wait().unwrap(), big.mul_schoolbook(&big));
        let metrics = service.shutdown();
        assert!(metrics.rejected_queue_full >= 4);
        assert!(metrics.queue_depth_high_water >= 1);
    }

    #[test]
    fn queue_depth_counts_requests_held_past_the_queue() {
        // The only worker straggles 300 ms on request 0, so everything
        // submitted meanwhile stays unstarted.
        let config = ServiceConfig {
            workers: 1,
            batching: one_job_rounds(8),
            chaos: Some(crate::chaos::ChaosConfig {
                straggle_ms: 300,
                force: vec![(0, crate::chaos::FaultKind::Straggle)],
                ..crate::chaos::ChaosConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(30);
        let x = BigInt::random_bits(&mut rng, 64);
        let straggler = one(&service, x.clone(), x.clone(), None).unwrap();
        // A started request is no longer queued.
        let deadline = Instant::now() + Duration::from_secs(60);
        while service.queue_depth() > 0 {
            assert!(Instant::now() < deadline, "the straggler never started");
            std::thread::yield_now();
        }
        // A 3-pair job plus two singles: wherever each waits — queue,
        // dispatcher round, or hand-off — every request counts until a
        // worker starts it.
        let job = service.submit(vec![(x.clone(), x.clone()); 3], None);
        let singles: Vec<_> = (0..2)
            .map(|_| one(&service, x.clone(), x.clone(), None).unwrap())
            .collect();
        assert_eq!(service.queue_depth(), 5);
        assert!(straggler.wait().is_ok());
        for result in job.unwrap().wait() {
            assert!(result.is_ok());
        }
        for handle in singles {
            assert!(handle.wait().is_ok());
        }
        assert_eq!(service.queue_depth(), 0);
        assert!(service.shutdown().queue_depth_high_water >= 5);
    }

    #[test]
    fn deadline_in_queue_times_out() {
        let config = ServiceConfig {
            workers: 1,
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(12);
        let big = BigInt::random_bits(&mut rng, 400_000);
        let blocker = one(&service, big, BigInt::random_bits(&mut rng, 400_000), None).unwrap();
        let tiny = BigInt::random_bits(&mut rng, 64);
        let doomed = one(&service, tiny.clone(), tiny, Some(Duration::from_millis(1))).unwrap();
        match doomed.wait() {
            Err(MulError::DeadlineExceeded { waited }) => {
                assert!(waited >= Duration::from_millis(1));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(blocker.wait().is_ok());
        assert_eq!(service.shutdown().timed_out, 1);
    }

    /// Satellite regression: a `Duration::MAX` deadline used to compute
    /// `Instant::now() + deadline` unchecked and panic; it must saturate
    /// to a never-expiring deadline instead.
    #[test]
    fn huge_deadlines_saturate_instead_of_panicking() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(17);
        let a = BigInt::random_signed_bits(&mut rng, 600);
        let b = BigInt::random_signed_bits(&mut rng, 600);
        let want = a.mul_schoolbook(&b);
        for huge in [Duration::MAX, Duration::MAX - Duration::from_nanos(1)] {
            let handle = one(&service, a.clone(), b.clone(), Some(huge)).unwrap();
            assert_eq!(handle.wait().unwrap(), want);
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 2);
        assert_eq!(metrics.timed_out, 0, "a Far deadline never expires");
    }

    /// Satellite regression: a saturated (`Far`) deadline is still a
    /// deadline — shedding must not touch it.
    #[test]
    fn far_deadline_is_not_sheddable() {
        let config = ServiceConfig {
            workers: 1,
            shed_after_ms: Some(0),
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(18);
        let big = BigInt::random_bits(&mut rng, 400_000);
        let blocker = one(&service, big.clone(), big, Some(Duration::from_secs(3600))).unwrap();
        let tiny = BigInt::random_bits(&mut rng, 64);
        // Queued behind the blocker with shed_after_ms = 0: a deadline-less
        // request would be shed, but Duration::MAX saturates to Far which
        // still counts as deadline-carrying.
        let kept = one(&service, tiny.clone(), tiny.clone(), Some(Duration::MAX)).unwrap();
        assert_eq!(kept.wait().unwrap(), tiny.mul_schoolbook(&tiny));
        assert!(blocker.wait().is_ok());
        assert_eq!(service.shutdown().shed, 0);
    }

    #[test]
    fn overaged_requests_are_shed() {
        let config = ServiceConfig {
            workers: 1,
            shed_after_ms: Some(0),
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(13);
        let big = BigInt::random_bits(&mut rng, 400_000);
        // The blocker carries a generous deadline so shedding (which only
        // applies to deadline-less requests) cannot touch it.
        let blocker = one(&service, big.clone(), big, Some(Duration::from_secs(3600))).unwrap();
        let tiny = BigInt::random_bits(&mut rng, 64);
        let shed = one(&service, tiny.clone(), tiny, None).unwrap();
        match shed.wait() {
            Err(MulError::Shed { .. }) => {}
            other => panic!("expected Shed, got {other:?}"),
        }
        assert!(blocker.wait().is_ok());
        assert_eq!(service.shutdown().shed, 1);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(14);
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let a = BigInt::random_signed_bits(&mut rng, 2_000);
                let b = BigInt::random_signed_bits(&mut rng, 2_000);
                let want = a.mul_schoolbook(&b);
                (one(&service, a, b, None).unwrap(), want)
            })
            .collect();
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 16);
        for (handle, want) in handles {
            assert_eq!(handle.wait().unwrap(), want);
        }
    }

    #[test]
    fn wait_timeout_returns_the_handle_then_the_result() {
        let config = ServiceConfig {
            workers: 1,
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(15);
        let big = BigInt::random_bits(&mut rng, 400_000);
        let handle = one(&service, big.clone(), big.clone(), None).unwrap();
        // The worker is still grinding: the timeout hands the handle back.
        let handle = match handle.wait_timeout(Duration::from_millis(1)) {
            Err(handle) => handle,
            Ok(r) => panic!("400kbit product finished in 1 ms: {r:?}"),
        };
        // The same handle still resolves to the real product.
        match handle.wait_timeout(Duration::from_secs(600)) {
            Ok(result) => assert_eq!(result.unwrap(), big.mul_schoolbook(&big)),
            Err(_) => panic!("400kbit product did not finish in 600 s"),
        }
        service.shutdown();
    }

    #[test]
    fn dead_workers_do_not_break_submission_or_shutdown() {
        crate::chaos::install_quiet_panic_hook();
        // Two workers; requests 0 and 1 panic with escalation enabled, so
        // whichever workers run them die mid-request.
        let config = ServiceConfig {
            workers: 2,
            kernel_policy: blocker_policy(),
            chaos: Some(crate::chaos::ChaosConfig {
                escalate_panics: true,
                force: vec![
                    (0, crate::chaos::FaultKind::Panic),
                    (1, crate::chaos::FaultKind::Panic),
                ],
                ..crate::chaos::ChaosConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(16);
        let x = BigInt::random_bits(&mut rng, 500);
        let doomed_a = one(&service, x.clone(), x.clone(), None).unwrap();
        let doomed_b = one(&service, x.clone(), x.clone(), None).unwrap();
        // The killed requests resolve (ServiceStopped via their slot
        // guards) instead of hanging.
        assert_eq!(doomed_a.wait(), Err(MulError::ServiceStopped));
        assert_eq!(doomed_b.wait(), Err(MulError::ServiceStopped));
        // One or both workers are gone. A survivor serves; with none left
        // the dispatcher resolves what it can no longer hand over as
        // ServiceStopped — never a hang or a panic — and shutdown still
        // joins cleanly.
        let expect = x.mul_schoolbook(&x);
        for _ in 0..4 {
            match one(&service, x.clone(), x.clone(), None) {
                Ok(handle) => match handle.wait() {
                    Ok(product) => assert_eq!(product, expect),
                    Err(MulError::ServiceStopped) => {}
                    Err(other) => panic!("unexpected error {other:?}"),
                },
                Err(other) => panic!("unexpected submit error {other:?}"),
            }
        }
        assert_eq!(service.queue_depth(), 0);
        service.shutdown(); // must not hang on the dead workers
    }

    #[test]
    fn submit_after_shutdown_flag_is_rejected() {
        let service = MulService::start(ServiceConfig::default());
        service.shutting_down.store(true, Ordering::Release);
        let x: BigInt = "1".parse().unwrap();
        assert!(matches!(
            one(&service, x.clone(), x, None),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn requests_resolve_and_coalesce() {
        let config = ServiceConfig {
            // A generous window so quickly-submitted requests coalesce
            // deterministically into few batches.
            batching: BatchingConfig {
                window_us: 50_000,
                max_batch: 8,
                ..BatchingConfig::default()
            },
            tuner: crate::config::TunerConfig {
                enabled: false,
                ..crate::config::TunerConfig::default()
            },
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(19);
        let mut handles = Vec::new();
        for _ in 0..8 {
            // Same size class (4 kbit) and kernel → one coalesced group.
            let a = BigInt::random_signed_bits(&mut rng, 4_000);
            let b = BigInt::random_signed_bits(&mut rng, 4_000);
            let want = a.mul_schoolbook(&b);
            handles.push((one(&service, a, b, None).unwrap(), want));
        }
        for (handle, want) in handles {
            assert_eq!(handle.wait().unwrap(), want);
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 8);
        assert!(metrics.batches >= 1, "expected coalescing, got none");
        assert!(
            metrics.batched_requests >= 2,
            "batched_requests {}",
            metrics.batched_requests
        );
        assert!(metrics.batch_size_high_water >= 2);
    }

    #[test]
    fn mixed_shapes_still_resolve_correctly() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(20);
        let mut handles = Vec::new();
        for bits in [100u64, 700, 3_000, 3_100, 20_000, 100, 20_500, 64] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            let want = a.mul_schoolbook(&b);
            handles.push((one(&service, a, b, None).unwrap(), want));
        }
        for (handle, want) in handles {
            assert_eq!(handle.wait().unwrap(), want);
        }
        assert_eq!(service.shutdown().served, 8);
    }

    #[test]
    fn on_ready_callback_fires_with_the_product() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(21);
        let a = BigInt::random_signed_bits(&mut rng, 2_000);
        let b = BigInt::random_signed_bits(&mut rng, 2_000);
        let want = a.mul_schoolbook(&b);
        let (tx, rx) = std::sync::mpsc::channel();
        one(&service, a, b, None)
            .unwrap()
            .on_ready(move |result| tx.send(result).unwrap());
        let got = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(got.unwrap(), want);
        // A callback registered after resolution fires immediately.
        let c = BigInt::random_signed_bits(&mut rng, 1_000);
        let d = BigInt::random_signed_bits(&mut rng, 1_000);
        let want2 = c.mul_schoolbook(&d);
        let handle = one(&service, c, d, None).unwrap();
        // Wait for completion through the metrics, keeping the handle.
        let deadline = Instant::now() + Duration::from_secs(60);
        while service.metrics().served < 2 {
            assert!(Instant::now() < deadline, "request did not complete");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (tx, rx) = std::sync::mpsc::channel();
        handle.on_ready(move |result| tx.send(result).unwrap());
        assert_eq!(rx.try_recv().unwrap().unwrap(), want2);
        service.shutdown();
    }

    #[test]
    fn on_ready_reports_service_stopped_for_dropped_requests() {
        let config = ServiceConfig {
            workers: 1,
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(22);
        let big = BigInt::random_bits(&mut rng, 300_000);
        let blocker = one(&service, big.clone(), big, None).unwrap();
        let tiny = BigInt::random_bits(&mut rng, 64);
        let (tx, rx) = std::sync::mpsc::channel();
        one(&service, tiny.clone(), tiny, None)
            .unwrap()
            .on_ready(move |result| tx.send(result).unwrap());
        // Shutdown drains the queue, so the callback fires with the real
        // product (or ServiceStopped if the request was lost — either way
        // it *fires*).
        drop(blocker);
        service.shutdown();
        let got = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert!(matches!(got, Ok(_) | Err(MulError::ServiceStopped)));
    }

    /// Satellite (e): a request whose deadline expires while it waits
    /// behind a chaos-injected straggler must resolve as
    /// `DeadlineExceeded` and count in `timed_out` — never in `served`.
    /// Deterministic: one worker, the straggler is forced on request 0.
    #[test]
    fn deadline_expiring_behind_straggler_counts_timed_out() {
        crate::chaos::install_quiet_panic_hook();
        let config = ServiceConfig {
            workers: 1,
            // Straggle request 0 for 80 ms on its first attempt.
            chaos: Some(crate::chaos::ChaosConfig {
                straggle_ms: 80,
                force: vec![(0, crate::chaos::FaultKind::Straggle)],
                ..crate::chaos::ChaosConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(23);
        let x = BigInt::random_bits(&mut rng, 500);
        let straggler = one(&service, x.clone(), x.clone(), None).unwrap();
        // Let the worker start the straggler first (same size class: in
        // one round the two would share its group).
        std::thread::sleep(Duration::from_millis(10));
        // Queued behind the straggler with a 5 ms deadline: it expires
        // while request 0 sleeps, after this request was accepted.
        let doomed = one(
            &service,
            x.clone(),
            x.clone(),
            Some(Duration::from_millis(5)),
        )
        .unwrap();
        assert!(straggler.wait().is_ok());
        match doomed.wait() {
            Err(MulError::DeadlineExceeded { waited }) => {
                assert!(waited >= Duration::from_millis(5));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.timed_out, 1);
        assert_eq!(metrics.served, 1, "the doomed request must not serve");
    }

    #[test]
    fn submit_many_resolves_in_submission_order() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(26);
        let mut pairs = Vec::new();
        let mut want = Vec::new();
        // Mixed sizes in one bulk submission: the dispatcher explodes it
        // into several (kernel, size-class) groups, yet results must come
        // back in submission order.
        for bits in [100u64, 700, 100, 3_000, 700, 3_100, 64, 100] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            want.push(a.mul_schoolbook(&b));
            pairs.push((a, b));
        }
        let handle = service.submit(pairs, None).unwrap();
        assert_eq!(handle.len(), 8);
        let results = handle.wait();
        assert_eq!(results.len(), 8);
        for (result, want) in results.into_iter().zip(want) {
            assert_eq!(result.unwrap(), want);
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 8);
        assert!(metrics.batches >= 1);
    }

    #[test]
    fn submit_many_empty_resolves_immediately() {
        let service = MulService::start(ServiceConfig::default());
        let handle = service.submit(Vec::new(), None).unwrap();
        assert!(handle.is_empty());
        assert_eq!(handle.try_wait().map_err(|_| ()).unwrap(), Vec::new());
        service.shutdown();
    }

    #[test]
    fn submit_many_deadline_covers_every_element() {
        crate::chaos::install_quiet_panic_hook();
        // The only worker grinds a forced straggler first; the bulk
        // submission's 5 ms deadline expires in-queue for ALL elements.
        let config = ServiceConfig {
            workers: 1,
            chaos: Some(crate::chaos::ChaosConfig {
                straggle_ms: 80,
                force: vec![(0, crate::chaos::FaultKind::Straggle)],
                ..crate::chaos::ChaosConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(27);
        let x = BigInt::random_bits(&mut rng, 500);
        let straggler = one(&service, x.clone(), x.clone(), None).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let doomed = service
            .submit(
                vec![(x.clone(), x.clone()), (x.clone(), x.clone())],
                Some(Duration::from_millis(5)),
            )
            .unwrap();
        assert!(straggler.wait().is_ok());
        for result in doomed.wait() {
            match result {
                Err(MulError::DeadlineExceeded { .. }) => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.timed_out, 2);
        assert_eq!(metrics.served, 1);
    }

    #[test]
    fn submit_many_wait_survives_shutdown_drain() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(28);
        let pairs: Vec<_> = (0..16)
            .map(|_| {
                (
                    BigInt::random_signed_bits(&mut rng, 1_000),
                    BigInt::random_signed_bits(&mut rng, 1_000),
                )
            })
            .collect();
        let want: Vec<_> = pairs.iter().map(|(a, b)| a.mul_schoolbook(b)).collect();
        let handle = service.submit(pairs, None).unwrap();
        // Shutdown drains the accepted job; every slot must resolve (to
        // the real product here — the drop-guards would resolve lost
        // slots as ServiceStopped instead of hanging the wait).
        service.shutdown();
        for (result, want) in handle.wait().into_iter().zip(want) {
            assert_eq!(result.unwrap(), want);
        }
    }

    #[test]
    fn wait_slot_resolves_before_the_batch_completes() {
        let config = ServiceConfig {
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(33);
        let tiny = BigInt::random_bits(&mut rng, 64);
        let big = BigInt::random_bits(&mut rng, 400_000);
        // Different size classes: the tiny element's group runs on its
        // own worker and lands long before the 400kbit blocker's.
        let handle = service
            .submit(
                vec![(tiny.clone(), tiny.clone()), (big.clone(), big.clone())],
                None,
            )
            .unwrap();
        assert_eq!(handle.wait_slot(0).unwrap(), tiny.mul_schoolbook(&tiny));
        let handle = match handle.try_wait() {
            Err(handle) => handle,
            Ok(r) => panic!("400kbit batch-mate finished with its tiny peer: {r:?}"),
        };
        // wait_slot is repeatable and leaves the whole-batch wait intact.
        assert_eq!(handle.wait_slot(0).unwrap(), tiny.mul_schoolbook(&tiny));
        let results = handle.wait();
        assert_eq!(results[0].clone().unwrap(), tiny.mul_schoolbook(&tiny));
        assert_eq!(results[1].clone().unwrap(), big.mul_schoolbook(&big));
        service.shutdown();
    }

    #[test]
    fn streaming_iteration_yields_results_in_submission_order() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(34);
        let mut pairs = Vec::new();
        let mut want = Vec::new();
        for bits in [3_000u64, 100, 700, 64] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            want.push(a.mul_schoolbook(&b));
            pairs.push((a, b));
        }
        let handle = service.submit(pairs, None).unwrap();
        let stream = handle.into_iter();
        assert_eq!(stream.len(), 4);
        let mut yielded = 0;
        for (result, want) in stream.zip(want) {
            assert_eq!(result.unwrap(), want);
            yielded += 1;
        }
        assert_eq!(yielded, 4);
        service.shutdown();
    }

    #[test]
    fn submit_many_queue_full_reports_and_resolves() {
        let config = ServiceConfig {
            workers: 1,
            kernel_policy: blocker_policy(),
            batching: one_job_rounds(1),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(29);
        let big = BigInt::random_bits(&mut rng, 400_000);
        let blocker = one(&service, big.clone(), big.clone(), None).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let tiny = BigInt::random_bits(&mut rng, 64);
        // With the only worker busy, the service holds at most 3 bulk
        // jobs (hand-off, dispatcher, capacity-1 queue); the rest bounce
        // whole.
        let mut rejected = 0;
        let mut accepted = Vec::new();
        for _ in 0..6 {
            match service.submit(vec![(tiny.clone(), tiny.clone()); 4], None) {
                Ok(handle) => accepted.push(handle),
                Err(e) => {
                    assert_eq!(e, SubmitError::QueueFull { capacity: 1 });
                    rejected += 1;
                }
            }
        }
        assert!(
            rejected >= 3,
            "expected at least 3 QueueFull, got {rejected}"
        );
        assert_eq!(blocker.wait().unwrap(), big.mul_schoolbook(&big));
        let expect = tiny.mul_schoolbook(&tiny);
        for handle in accepted {
            for result in handle.wait() {
                assert_eq!(result.unwrap(), expect);
            }
        }
        service.shutdown();
    }
}
