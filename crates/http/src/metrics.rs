//! HTTP-layer metrics: per-route request counters by status code and
//! per-route latency histograms, kept separately from the service's own
//! [`ft_service::MetricsSnapshot`] (which counts multiplications, not
//! HTTP exchanges — one batch POST is one exchange but many
//! multiplications).
//!
//! The histograms reuse the service's latency bucket bounds
//! ([`ft_service::metrics::LATENCY_BUCKET_BOUNDS_US`]) so the two layers
//! line up on a dashboard: the gap between a route's duration and the
//! service's completion latency is the HTTP overhead (parse, JSON,
//! socket writes).

use ft_service::metrics::{latency_bucket, LATENCY_BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Live HTTP-layer counters, updated by the request handler.
#[derive(Debug, Default)]
pub struct HttpMetrics {
    /// Per-route tallies, under one lock so a snapshot is consistent.
    routes: Mutex<Routes>,
    /// Batch result lines streamed over chunked responses.
    streamed_results: AtomicU64,
}

#[derive(Debug, Default)]
struct Routes {
    /// (route, status) → completed exchanges.
    by_status: BTreeMap<(&'static str, u16), u64>,
    /// Per-route duration histograms (µs), same bounds as the service.
    histograms: BTreeMap<&'static str, HttpHistogramRow>,
}

impl HttpMetrics {
    /// Record one finished exchange on `route` with `status`, taking
    /// `elapsed_us` from request-parsed to response-flushed.
    pub fn record(&self, route: &'static str, status: u16, elapsed_us: u64) {
        let mut routes = self.routes.lock().unwrap_or_else(PoisonError::into_inner);
        *routes.by_status.entry((route, status)).or_insert(0) += 1;
        let h = routes.histograms.entry(route).or_insert(HttpHistogramRow {
            route,
            buckets: [0; LATENCY_BUCKETS],
            sum_us: 0,
            count: 0,
        });
        h.buckets[latency_bucket(elapsed_us)] += 1;
        h.sum_us = h.sum_us.saturating_add(elapsed_us);
        h.count += 1;
    }

    /// Count one batch result line streamed to a client.
    pub fn record_streamed(&self) {
        self.streamed_results.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent point-in-time copy for rendering.
    #[must_use]
    pub fn snapshot(&self) -> HttpSnapshot {
        let routes = self.routes.lock().unwrap_or_else(PoisonError::into_inner);
        HttpSnapshot {
            by_status: routes
                .by_status
                .iter()
                .map(|(&(route, status), &n)| (route, status, n))
                .collect(),
            histograms: routes.histograms.values().copied().collect(),
            streamed_results: self.streamed_results.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`HttpMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HttpSnapshot {
    /// (route, status, count) rows, sorted by route then status.
    pub by_status: Vec<(&'static str, u16, u64)>,
    /// One histogram row per route that served at least one exchange.
    pub histograms: Vec<HttpHistogramRow>,
    /// Batch result lines streamed over chunked responses.
    pub streamed_results: u64,
}

/// One route's duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpHistogramRow {
    pub route: &'static str,
    /// Bucket `i` counts exchanges at or under
    /// [`ft_service::metrics::LATENCY_BUCKET_BOUNDS_US`]`[i]` µs; the
    /// last bucket is overflow.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Sum of durations, µs (saturating).
    pub sum_us: u64,
    /// Total exchanges (equals the bucket sum).
    pub count: u64,
}

impl HttpSnapshot {
    /// Total exchanges across every route and status.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.by_status.iter().map(|&(_, _, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_by_route_and_status() {
        let m = HttpMetrics::default();
        m.record("mul", 200, 50);
        m.record("mul", 200, 700);
        m.record("mul", 400, 10);
        m.record("healthz", 200, 5);
        m.record_streamed();
        m.record_streamed();
        let s = m.snapshot();
        assert_eq!(s.total_requests(), 4);
        assert!(s.by_status.contains(&("mul", 200, 2)));
        assert!(s.by_status.contains(&("mul", 400, 1)));
        assert_eq!(s.streamed_results, 2);
        let mul = s.histograms.iter().find(|h| h.route == "mul").unwrap();
        assert_eq!(mul.count, 3);
        assert_eq!(mul.buckets.iter().sum::<u64>(), 3);
        // 50µs and 10µs land in the first bucket (≤100), 700µs in the
        // third (≤1000).
        assert_eq!(mul.buckets[0], 2);
        assert_eq!(mul.buckets[2], 1);
        assert_eq!(mul.sum_us, 760);
    }

    #[test]
    fn overflow_bucket_catches_huge_durations() {
        let m = HttpMetrics::default();
        m.record("metrics", 200, u64::MAX);
        let s = m.snapshot();
        let h = s.histograms.iter().find(|h| h.route == "metrics").unwrap();
        assert_eq!(h.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(h.sum_us, u64::MAX);
    }
}
