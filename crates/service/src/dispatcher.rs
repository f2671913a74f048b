//! The coalescing dispatcher and the worker pool behind
//! [`crate::MulService::submit`].
//!
//! One dispatcher thread consumes the submission queue. After the first
//! job of a round arrives it keeps collecting for at most
//! `batching.window_us` (or until `batching.max_batch` requests), then
//! partitions the round's requests by `(kernel, operand size class)` and
//! hands each group to the `workers` threads over one shared channel
//! bounded by `workers`. The dispatcher only groups; it never executes,
//! so a huge job occupies one worker while small requests keep flowing to
//! the others. When every worker is busy the hand-off fills, the
//! dispatcher blocks on it, and the submission queue absorbs the backlog
//! up to its capacity (then `QueueFull`).
//!
//! A worker gates a group when it starts it — kill, deadline, and shed
//! checks against a fresh clock read — then runs the survivors as ONE
//! supervised batch through the kernel's multi-product entry point: one
//! plan resolution, one chaos/`catch_unwind` boundary, one breaker update
//! for the whole group (see
//! [`crate::supervisor::Supervisor::execute_batch`]). A singleton group
//! is a batch of one.
//!
//! This is the serving-layer analogue of the paper's cost accounting:
//! bandwidth and latency are charged per *batch* of parallel
//! multiplications, so same-shape requests should share one submission
//! into the engine instead of paying per-request overhead `n` times.
//! In the same spirit, queued backlog is drained through
//! `try_recv_many` — one lock hand-off per sweep, not one per job — so a
//! loaded dispatcher stops contending with submitters on the channel
//! mutex.

use crate::error::MulError;
use crate::kernel::Kernel;
use crate::metrics::size_class;
use crate::service::{BatchJob, MulRequest, Shared};
use crossbeam::channel::{Receiver, RecvTimeoutError, SendError, Sender};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One coalesced group: its kernel, its size class, and the member
/// requests tagged with their (already computed) operand bit length.
pub(crate) struct Group {
    kernel: Kernel,
    class: usize,
    members: Vec<(u64, MulRequest)>,
}

/// Run the dispatcher until the submission queue disconnects and drains.
///
/// `max_batch` bounds how many requests a round collects; a job always
/// joins its round whole, so rounds may exceed `max_batch` elements
/// rather than split a client's batch.
pub(crate) fn dispatcher_loop(rx: &Receiver<BatchJob>, workers: &Sender<Group>, shared: &Shared) {
    let window = Duration::from_micros(shared.config.batching.window_us);
    let max_batch = shared.config.batching.max_batch;
    let mut round: Vec<MulRequest> = Vec::with_capacity(max_batch);
    let mut backlog: Vec<BatchJob> = Vec::with_capacity(max_batch);
    // Sweep the backlog in one lock acquisition, up to the round's slack.
    let sweep = |round: &mut Vec<MulRequest>, backlog: &mut Vec<BatchJob>| {
        rx.try_recv_many(backlog, max_batch.saturating_sub(round.len()));
        for job in backlog.drain(..) {
            job.explode(round);
        }
    };
    // recv keeps returning queued jobs after disconnect until the queue
    // is empty, so shutdown drains everything already accepted.
    while let Ok(first) = rx.recv() {
        first.explode(&mut round);
        sweep(&mut round, &mut backlog);
        // Only if that leaves slack, wait out the window for same-round
        // companions.
        if !window.is_zero() && round.len() < max_batch {
            let close_at = Instant::now() + window;
            while round.len() < max_batch {
                let Some(remaining) = close_at
                    .checked_duration_since(Instant::now())
                    .filter(|r| !r.is_zero())
                else {
                    break;
                };
                match rx.recv_timeout(remaining) {
                    Ok(job) => {
                        job.explode(&mut round);
                        sweep(&mut round, &mut backlog);
                    }
                    Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        dispatch_round(&mut round, workers, shared);
    }
}

/// Group one collected round and hand every group to the worker pool,
/// blocking while the hand-off is full.
fn dispatch_round(round: &mut Vec<MulRequest>, workers: &Sender<Group>, shared: &Shared) {
    let policy = shared.policy();
    // Grouping key: (kernel, size class). Insertion-ordered Vec — rounds
    // are small, a hash map would be overhead.
    let mut groups: Vec<Group> = Vec::new();
    for request in round.drain(..) {
        let kernel = Kernel::select(&request.a, &request.b, &policy);
        let bits = request.a.bit_length().min(request.b.bit_length());
        let class = size_class(bits);
        match groups
            .iter_mut()
            .find(|g| g.kernel == kernel && g.class == class)
        {
            Some(group) => group.members.push((bits, request)),
            None => groups.push(Group {
                kernel,
                class,
                members: vec![(bits, request)],
            }),
        }
    }
    for group in groups {
        if let Err(SendError(group)) = workers.send(group) {
            // Every worker died (escalated panics): nothing will start
            // this group. Dropping it resolves its members as
            // ServiceStopped through their slot guards.
            shared
                .pending
                .fetch_sub(group.members.len(), Ordering::Relaxed);
        }
    }
}

/// A worker thread: run handed-off groups until the dispatcher hangs up
/// and the hand-off drains.
pub(crate) fn run_groups(rx: &Receiver<Group>, shared: &Shared) {
    while let Ok(group) = rx.recv() {
        run_group(group, shared);
    }
}

/// Apply the start-of-execution checks to one request: surrender it when
/// the service was killed, reject it when its deadline has passed
/// (counted `timed_out`), shed it when it is deadline-less and over-aged.
/// Returns the request when it should run.
fn gate(request: MulRequest, now: Instant, shared: &Shared) -> Option<MulRequest> {
    if shared.killed.load(Ordering::Acquire) {
        // Simulated fail-stop: unstarted work is surrendered, not served.
        // The router's completion callback re-routes it to a live shard.
        request.done.fulfill(Err(MulError::ServiceStopped));
        return None;
    }
    let waited = now.saturating_duration_since(request.enqueued_at);
    if request.deadline.expired(now) {
        shared.metrics.record_timed_out();
        request
            .done
            .fulfill(Err(MulError::DeadlineExceeded { waited }));
        return None;
    }
    if request.deadline.sheddable() {
        if let Some(shed_after_ms) = shared.config.shed_after_ms {
            if waited > Duration::from_millis(shed_after_ms) {
                shared.metrics.record_shed();
                request.done.fulfill(Err(MulError::Shed { waited }));
                return None;
            }
        }
    }
    Some(request)
}

/// Start one group: gate its members against one fresh clock read, then
/// execute the survivors as a single supervised batch and publish
/// per-element results.
fn run_group(group: Group, shared: &Shared) {
    shared
        .pending
        .fetch_sub(group.members.len(), Ordering::Relaxed);
    let now = Instant::now();
    let members: Vec<(u64, MulRequest)> = group
        .members
        .into_iter()
        .filter_map(|(bits, request)| gate(request, now, shared).map(|r| (bits, r)))
        .collect();
    if members.is_empty() {
        return;
    }
    let kernel = promote(group.kernel, &members, shared);
    shared.metrics.record_batch(members.len());
    let mut pairs = Vec::with_capacity(members.len());
    let mut meta = Vec::with_capacity(members.len());
    let mut requests = Vec::with_capacity(members.len());
    for (bits, member) in members {
        requests.push(member.index);
        meta.push((bits, member.enqueued_at, member.done));
        pairs.push((member.a, member.b));
    }
    let results = shared.supervisor.execute_batch(
        &pairs,
        &requests,
        kernel,
        &shared.policy(),
        &shared.plans,
        &shared.metrics,
    );
    // Stage every result first, then wake: see [`SlotGuard::stage`].
    let done_at = Instant::now();
    let mut wakers = Vec::with_capacity(meta.len());
    for (result, (bits, enqueued_at, done)) in results.into_iter().zip(meta) {
        if let Ok((_, used_kernel)) = &result {
            let latency = done_at.saturating_duration_since(enqueued_at);
            shared.metrics.record_served(*used_kernel, bits, latency);
        }
        wakers.extend(done.stage(result.map(|(product, _)| product)));
    }
    drop(wakers);
}

/// Promote an eligible group to the distributed backend (the simulated
/// coded machine). [`Kernel::select`] never picks
/// [`Kernel::DistributedToom`]; promotion is the one route to the
/// machine — the backend must be enabled, the group big enough to
/// amortise a machine spin-up per element, and every member inside the
/// configured operand-size window. The supervisor still owns what happens
/// next: breakers can divert the promoted group, and unrecoverable runs
/// walk the ordinary degradation ladder back to the local kernels.
fn promote(kernel: Kernel, members: &[(u64, MulRequest)], shared: &Shared) -> Kernel {
    let dist = &shared.config.distributed;
    let eligible = dist.enabled
        && kernel != Kernel::Schoolbook
        && members.len() >= dist.min_group
        && members
            .iter()
            .all(|&(bits, _)| bits >= dist.min_bits && bits <= dist.max_bits);
    if eligible {
        Kernel::DistributedToom
    } else {
        kernel
    }
}
