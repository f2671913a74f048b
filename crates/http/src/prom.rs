//! Prometheus text exposition (format version 0.0.4) for the service
//! snapshot plus the HTTP layer's own counters.
//!
//! The service rows come from the metric registry
//! ([`ft_service::metrics::ROWS`]); the HTTP and connection rows below
//! go through the same [`Exposition`] writer. Everything is rendered
//! from point-in-time snapshots, so a scrape is internally consistent
//! the same way the JSON snapshot is: the histogram `_count` equals
//! `ft_requests_served_total`, and the quantile gauges are estimated
//! from the very same buckets the scrape exports (a dashboard
//! recomputing `histogram_quantile` over them gets the same numbers).

use crate::metrics::HttpSnapshot;
use ft_service::metrics::{Exposition, Kind};
use ft_service::MetricsSnapshot;

/// Connection-level stats of the ft-net server, sampled at scrape time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections currently open.
    pub active_connections: usize,
    /// Connections accepted since startup.
    pub total_connections: u64,
    /// Requests rejected by the HTTP parser (malformed, oversized, …).
    pub parse_errors: u64,
    /// Transient `accept()` failures (each arms the accept backoff).
    pub accept_errors: u64,
    /// Connects answered `503` because the connection cap was reached.
    pub rejected_over_cap: u64,
    /// Half-received requests answered `408` on read timeout.
    pub request_timeouts: u64,
}

/// The scrape content type mandated by the text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Render one scrape from the three snapshots.
#[must_use]
pub fn render(service: &MetricsSnapshot, http: &HttpSnapshot, net: &NetStats) -> String {
    let mut out = Exposition::default();
    service.write_prometheus(&mut out);
    out.family(
        "http_requests_total",
        "HTTP exchanges by route and status code.",
        Kind::Counter,
    );
    for &(route, status, count) in &http.by_status {
        out.sample(&format!("route=\"{route}\",code=\"{status}\""), count);
    }
    out.family(
        "http_request_duration_us",
        "HTTP exchange duration by route, microseconds.",
        Kind::Histogram,
    );
    for row in &http.histograms {
        let labels = format!("route=\"{}\"", row.route);
        out.histogram(&labels, &row.buckets, row.sum_us, row.count);
    }
    #[rustfmt::skip]
    let rows = [
        ("http_streamed_results_total", Kind::Counter, http.streamed_results,
            "Batch result lines streamed over chunked responses."),
        ("http_connections_active", Kind::Gauge, net.active_connections as u64,
            "Open HTTP connections at scrape time."),
        ("http_connections_total", Kind::Counter, net.total_connections,
            "HTTP connections accepted since startup."),
        ("http_parse_errors_total", Kind::Counter, net.parse_errors,
            "Requests rejected by the HTTP parser."),
        ("http_accept_errors_total", Kind::Counter, net.accept_errors,
            "Transient accept() failures (each arms the accept backoff)."),
        ("http_connections_rejected_total", Kind::Counter, net.rejected_over_cap,
            "Connects answered 503 at the connection cap."),
        ("http_request_timeouts_total", Kind::Counter, net.request_timeouts,
            "Half-received requests answered 408 on read timeout."),
    ];
    for (name, kind, value, help) in rows {
        out.family(name, help, kind);
        out.sample("", value);
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HttpMetrics;

    fn lines_of(text: &str) -> Vec<&str> {
        text.lines().collect()
    }

    #[test]
    fn exposition_is_well_formed() {
        let service = MetricsSnapshot::default();
        let m = HttpMetrics::default();
        m.record("mul", 200, 42);
        let net = NetStats {
            active_connections: 1,
            total_connections: 3,
            parse_errors: 2,
            accept_errors: 4,
            rejected_over_cap: 5,
            request_timeouts: 6,
        };
        let text = render(&service, &m.snapshot(), &net);
        for line in lines_of(&text) {
            assert!(
                line.starts_with("# HELP ")
                    || line.starts_with("# TYPE ")
                    || line.split_once(' ').is_some_and(
                        |(name, value)| !name.is_empty() && value.parse::<u64>().is_ok()
                    ),
                "bad exposition line: {line:?}"
            );
        }
        // Every # TYPE'd metric family appears with at least one sample
        // (counter/gauge families always emit; labeled families emit per
        // observed label set, and this scrape observed one of each).
        assert!(text.contains("ft_requests_served_total 0"));
        assert!(text.contains("ft_request_latency_us_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("ft_request_latency_quantile_us{quantile=\"0.999\"} 0"));
        assert!(text.contains("ft_distributed_detect_rounds_total 0"));
        assert!(text.contains("ftsvc_verify_checks_total{rung=\"residue\"} 0"));
        assert!(text.contains("ftsvc_verify_checks_total{rung=\"dual\"} 0"));
        assert!(text.contains("ftsvc_verify_failures_total{rung=\"recompute\"} 0"));
        assert!(text.contains("ftsvc_verify_cost_us_total{rung=\"dual\"} 0"));
        assert!(text.contains("ftsvc_verify_escalations_total 0"));
        assert!(text.contains("ftsvc_router_shards 0"));
        assert!(text.contains("ftsvc_router_shard_deaths_total 0"));
        assert!(text.contains("ftsvc_router_failovers_total 0"));
        assert!(text.contains("ftsvc_router_steals_total 0"));
        assert!(text.contains("ftsvc_router_rejoins_total 0"));
        assert!(text.contains("http_requests_total{route=\"mul\",code=\"200\"} 1"));
        assert!(text.contains("http_request_duration_us_count{route=\"mul\"} 1"));
        assert!(text.contains("http_connections_total 3"));
        assert!(text.contains("http_parse_errors_total 2"));
        assert!(text.contains("http_accept_errors_total 4"));
        assert!(text.contains("http_connections_rejected_total 5"));
        assert!(text.contains("http_request_timeouts_total 6"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_match_count() {
        let mut service = MetricsSnapshot::default();
        service.latency_buckets[0] = 4;
        service.latency_buckets[3] = 2;
        service.latency_buckets[8] = 1; // overflow
        service.served = 7;
        service.latency_total_us = 12_345;
        let text = render(&service, &HttpSnapshot::default(), &NetStats::default());
        assert!(text.contains("ft_request_latency_us_bucket{le=\"100\"} 4"));
        assert!(text.contains("ft_request_latency_us_bucket{le=\"5000\"} 6"));
        assert!(text.contains("ft_request_latency_us_bucket{le=\"+Inf\"} 7"));
        assert!(text.contains("ft_request_latency_us_sum 12345"));
        assert!(text.contains("ft_request_latency_us_count 7"));
    }
}
