//! Client connections and request pacing.
//!
//! [`Conn`] wraps one keep-alive [`Client`] and reconnects when the
//! server answers `Connection: close` (ft-net closes every connection
//! after `keep_alive_requests` exchanges). A reconnect is counted, not
//! failed. [`open_loop`] sends on a fixed schedule and times each
//! request from when it was *due*, so a stall's cost is charged to every
//! request that had to wait behind it.

use ft_http::client::{Client, Response};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Per-read timeout on benchmark connections. Generous: the largest
/// class takes about a second, and a timeout is a failed request.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One logical client connection that survives server-side closes.
pub struct Conn {
    addr: SocketAddr,
    client: Option<Client>,
    /// TCP connections opened, the first included.
    pub connects: u64,
}

impl Conn {
    #[must_use]
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            client: None,
            connects: 0,
        }
    }

    fn client(&mut self) -> std::io::Result<&mut Client> {
        if self.client.is_none() {
            self.client = Some(Client::connect(self.addr, READ_TIMEOUT)?);
            self.connects += 1;
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    /// Drop the connection after a response that announced a close, or
    /// after any transport error (the stream state is unknown then).
    fn settle(&mut self, result: std::io::Result<Response>) -> std::io::Result<Response> {
        match result {
            Ok(rsp) => {
                if rsp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.client = None;
                }
                Ok(rsp)
            }
            Err(e) => {
                self.client = None;
                Err(e)
            }
        }
    }

    /// One request with a whole-body response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<Response> {
        let result = self.client()?.request(method, path, body);
        self.settle(result)
    }

    /// One request whose chunked response is delivered line by line.
    pub fn request_streaming(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        on_line: impl FnMut(&str),
    ) -> std::io::Result<Response> {
        let result = self
            .client()?
            .request_streaming(method, path, body, on_line);
        self.settle(result)
    }
}

/// Timing of one open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Due time, s from the schedule's start.
    pub due_s: f64,
    /// Send time − due time, ms (the generator's lateness).
    pub late_ms: f64,
    /// Completion − due time, ms (the reported latency).
    pub latency_ms: f64,
}

/// Run `send(index, due)` on a fixed schedule — request `i` is due at
/// `start + offset + i·tick` — until `end`. A request that comes due
/// while the previous one is still out is sent as soon as it returns;
/// its latency still counts from its due time. `send` returns whether
/// the request succeeded; only the timings of successes are kept.
pub fn open_loop(
    start: Instant,
    offset: Duration,
    tick: Duration,
    end: Instant,
    mut send: impl FnMut(u64, Instant) -> bool,
) -> Vec<Timed> {
    let mut timed = Vec::new();
    for index in 0u64.. {
        let due = start + offset + tick.mul_f64(index as f64);
        if due >= end {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let ok = send(index, due);
        let done = Instant::now();
        if ok {
            timed.push(Timed {
                due_s: (due - start).as_secs_f64(),
                late_ms: ms(sent - due),
                latency_ms: ms(done - due),
            });
        }
    }
    timed
}

/// The timings of several streams of one phase, merged in due-time
/// order so that figures over the phase read in time order.
#[must_use]
pub fn by_due(streams: impl IntoIterator<Item = Vec<Timed>>) -> Vec<Timed> {
    let mut all: Vec<Timed> = streams.into_iter().flatten().collect();
    all.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    all
}

/// A duration in milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let tick = Duration::from_millis(5);
        let start = Instant::now();
        let timed = open_loop(
            start,
            Duration::ZERO,
            tick,
            start + Duration::from_millis(200),
            |i, _| {
                if i == 4 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                true
            },
        );
        // Every slot of the schedule was sent, stall or not.
        assert_eq!(timed.len(), 40);
        // The stalled request itself.
        assert!(timed[4].latency_ms >= 60.0);
        // Request 5 was due 5 ms into the stall: it was sent ~55 ms
        // late and its latency counts that wait although its own
        // exchange took no time. Timed from its send, it would read ~0.
        assert!(timed[5].late_ms >= 50.0, "{:?}", timed[5]);
        assert!(timed[5].latency_ms >= 50.0);
        // Lateness drains as the generator catches up: the backlog
        // (due during the stall) is sent back to back.
        assert!(timed[10].late_ms < timed[5].late_ms);
        let last = timed.last().unwrap();
        assert!(last.late_ms < 5.0, "{last:?}");
    }

    #[test]
    fn failures_are_sent_but_carry_no_latency() {
        let start = Instant::now();
        let mut attempted = 0;
        let timed = open_loop(
            start,
            Duration::ZERO,
            Duration::from_millis(1),
            start + Duration::from_millis(20),
            |i, _| {
                attempted += 1;
                i % 2 == 0
            },
        );
        assert_eq!(attempted, 20);
        assert_eq!(timed.len(), 10);
        // The kept timings are the even slots, due 0, 2, 4 … ms.
        assert!(timed
            .iter()
            .all(|t| ((t.due_s * 1e3).round() as u64).is_multiple_of(2)));
    }
}
