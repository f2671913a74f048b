//! Pins the two metric exports of a fully populated snapshot.
//!
//! The fixture sets every field of two shard snapshots to a distinct
//! nonzero value, merges them the way the router does, and stamps the
//! router section. The golden test pins `/v1/metrics` JSON byte for byte
//! and every `/metrics` sample and `# TYPE` line in order; HELP lines are
//! checked for presence only.

use ft_http::metrics::{HttpHistogramRow, HttpSnapshot};
use ft_http::prom::{self, NetStats};
use ft_service::metrics::KernelClassRow;
use ft_service::{FaultKind, Kernel, MetricsSnapshot, RouterSnapshot};

/// One shard's snapshot; every value is `base` plus a distinct offset.
fn shard(base: u64, classes: &[(&'static str, u32)]) -> MetricsSnapshot {
    let mut n = base;
    let mut next = move || {
        n += 1;
        n
    };
    let latency_buckets: [u64; 9] = std::array::from_fn(|i| next() << (2 * (8 - i)));
    let mut s = MetricsSnapshot {
        served: latency_buckets.iter().sum(),
        latency_buckets,
        ..MetricsSnapshot::default()
    };
    s.rejected_queue_full = next();
    s.timed_out = next();
    s.shed = next();
    s.per_kernel = Kernel::ALL.map(|k| (k.name(), next()));
    s.queue_depth = next() as usize;
    s.queue_depth_high_water = next() as usize;
    s.latency_total_us = next() * 100_000_000;
    s.kernel_classes = classes
        .iter()
        .map(|&(kernel, log2)| KernelClassRow {
            kernel,
            class_bits: 1 << log2,
            served: next(),
            total_us: next() * 97,
        })
        .collect();
    s.batches = next();
    s.batched_requests = next();
    s.batch_size_high_water = next() as usize;
    s.batch_faults = next();
    s.batch_element_retries = next();
    s.tuner_retunes = next();
    s.plan_cache_hits = next();
    s.plan_cache_misses = next();
    s.retries = next();
    s.fallbacks = next();
    s.worker_faults = next();
    s.residue_checks = next();
    s.verification_failures = next();
    s.verify.residue_checks = next();
    s.verify.residue_failures = next();
    s.verify.residue_cost_us = next();
    s.verify.dual_checks = next();
    s.verify.dual_failures = next();
    s.verify.dual_cost_us = next();
    s.verify.recompute_checks = next();
    s.verify.recompute_failures = next();
    s.verify.recompute_cost_us = next();
    s.verify.escalations = next();
    s.breaker_opens = next();
    s.breaker_closes = next();
    s.injected_faults = FaultKind::ALL.map(|k| (k.name(), next()));
    s.distributed.runs = next();
    s.distributed.recoveries = next();
    s.distributed.unrecoverable = next();
    s.distributed.false_positives = next();
    s.distributed.detect_rounds = next();
    s.distributed.stragglers_flagged = next();
    s.distributed.max_detect_latency_ticks = next();
    s
}

/// Two shards merged into a default accumulator, router section stamped.
fn golden_service() -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    merged.merge(&shard(0, &[("schoolbook", 10), ("par_toom", 17)]));
    merged.merge(&shard(100, &[("schoolbook", 10), ("ntt", 23)]));
    merged.router = RouterSnapshot {
        shards: 3,
        live: 2,
        shard_deaths: 4,
        failovers: 5,
        steals: 6,
        rejoins: 7,
        monitor_rounds: 8,
    };
    merged
}

fn golden_http() -> (HttpSnapshot, NetStats) {
    let histogram = |route, base: u64| {
        let buckets: [u64; 9] = std::array::from_fn(|i| base + i as u64);
        HttpHistogramRow {
            route,
            buckets,
            sum_us: base * 1_000,
            count: buckets.iter().sum(),
        }
    };
    let http = HttpSnapshot {
        by_status: vec![("mul", 200, 31), ("mul", 429, 32), ("mul_batch", 200, 33)],
        histograms: vec![histogram("mul", 40), histogram("mul_batch", 50)],
        streamed_results: 34,
    };
    let net = NetStats {
        active_connections: 61,
        total_connections: 62,
        parse_errors: 63,
        accept_errors: 64,
        rejected_over_cap: 65,
        request_timeouts: 66,
    };
    (http, net)
}

fn golden_scrape() -> String {
    let (http, net) = golden_http();
    prom::render(&golden_service(), &http, &net)
}

/// The family a sample or `# TYPE` line belongs to.
fn family(line: &str) -> &str {
    let name = line.strip_prefix("# TYPE ").unwrap_or(line);
    let end = name.find(['{', ' ']).unwrap_or(name.len());
    let name = &name[..end];
    ["_bucket", "_sum", "_count"]
        .iter()
        .find_map(|suffix| name.strip_suffix(suffix))
        .unwrap_or(name)
}

const GOLDEN_JSON: &str = r#"{"batching":{"batch_element_retries":158,"batch_faults":156,"batch_size_high_water":127,"batched_requests":152,"batches":150},"distributed":{"detect_rounds":218,"false_positives":216,"max_detect_latency_ticks":161,"recoveries":212,"runs":210,"stragglers_flagged":220,"unrecoverable":214},"latency_buckets":[{"count":6684672,"le_us":100},{"count":1703936,"le_us":500},{"count":434176,"le_us":1000},{"count":110592,"le_us":5000},{"count":28160,"le_us":25000},{"count":7168,"le_us":100000},{"count":1824,"le_us":500000},{"count":464,"le_us":2000000},{"count":118,"le_us":null}],"latency_quantiles":{"p50_us":67,"p999_us":31308,"p99_us":3120},"mean_latency_us":1560,"per_kernel":{"distributed_toom":134,"ntt":132,"par_toom":130,"schoolbook":126,"seq_toom":128},"plan_cache_hits":162,"plan_cache_misses":164,"queue_depth":136,"queue_depth_high_water":119,"rejected_queue_full":120,"robustness":{"breaker_closes":198,"breaker_opens":196,"fallbacks":168,"injected_faults":{"corrupt":204,"panic":200,"shard_kill":206,"shard_stall":208,"straggle":202},"residue_checks":172,"retries":166,"verification_failures":174,"worker_faults":170},"router":{"failovers":5,"live":2,"monitor_rounds":8,"rejoins":7,"shard_deaths":4,"shards":3,"steals":6},"served":8971110,"shed":124,"size_classes":[{"class_bits":1024,"kernel":"schoolbook","mean_us":98,"served":142},{"class_bits":131072,"kernel":"par_toom","mean_us":101,"served":23},{"class_bits":8388608,"kernel":"ntt","mean_us":97,"served":123}],"timed_out":122,"tuner_retunes":160,"verify":{"dual_checks":182,"dual_cost_us":186,"dual_failures":184,"escalations":194,"recompute_checks":188,"recompute_cost_us":192,"recompute_failures":190,"residue_checks":176,"residue_cost_us":180,"residue_failures":178}}"#;

const GOLDEN_PROM: &str = r#"
# TYPE ft_requests_served_total counter
ft_requests_served_total 8971110
# TYPE ft_rejected_queue_full_total counter
ft_rejected_queue_full_total 120
# TYPE ft_timed_out_total counter
ft_timed_out_total 122
# TYPE ft_shed_total counter
ft_shed_total 124
# TYPE ft_kernel_served_total counter
ft_kernel_served_total{kernel="schoolbook"} 126
ft_kernel_served_total{kernel="seq_toom"} 128
ft_kernel_served_total{kernel="par_toom"} 130
ft_kernel_served_total{kernel="ntt"} 132
ft_kernel_served_total{kernel="distributed_toom"} 134
# TYPE ft_queue_depth gauge
ft_queue_depth 136
# TYPE ft_queue_depth_high_water gauge
ft_queue_depth_high_water 119
# TYPE ft_request_latency_us histogram
ft_request_latency_us_bucket{le="100"} 6684672
ft_request_latency_us_bucket{le="500"} 8388608
ft_request_latency_us_bucket{le="1000"} 8822784
ft_request_latency_us_bucket{le="5000"} 8933376
ft_request_latency_us_bucket{le="25000"} 8961536
ft_request_latency_us_bucket{le="100000"} 8968704
ft_request_latency_us_bucket{le="500000"} 8970528
ft_request_latency_us_bucket{le="2000000"} 8970992
ft_request_latency_us_bucket{le="+Inf"} 8971110
ft_request_latency_us_sum 14000000000
ft_request_latency_us_count 8971110
# TYPE ft_request_latency_quantile_us gauge
ft_request_latency_quantile_us{quantile="0.5"} 67
ft_request_latency_quantile_us{quantile="0.99"} 3120
ft_request_latency_quantile_us{quantile="0.999"} 31308
# TYPE ft_batches_total counter
ft_batches_total 150
# TYPE ft_batched_requests_total counter
ft_batched_requests_total 152
# TYPE ft_batch_size_high_water gauge
ft_batch_size_high_water 127
# TYPE ft_batch_faults_total counter
ft_batch_faults_total 156
# TYPE ft_batch_element_retries_total counter
ft_batch_element_retries_total 158
# TYPE ft_tuner_retunes_total counter
ft_tuner_retunes_total 160
# TYPE ft_plan_cache_hits_total counter
ft_plan_cache_hits_total 162
# TYPE ft_plan_cache_misses_total counter
ft_plan_cache_misses_total 164
# TYPE ft_retries_total counter
ft_retries_total 166
# TYPE ft_fallbacks_total counter
ft_fallbacks_total 168
# TYPE ft_worker_faults_total counter
ft_worker_faults_total 170
# TYPE ft_residue_checks_total counter
ft_residue_checks_total 172
# TYPE ft_verification_failures_total counter
ft_verification_failures_total 174
# TYPE ftsvc_verify_checks_total counter
ftsvc_verify_checks_total{rung="residue"} 176
ftsvc_verify_checks_total{rung="dual"} 182
ftsvc_verify_checks_total{rung="recompute"} 188
# TYPE ftsvc_verify_failures_total counter
ftsvc_verify_failures_total{rung="residue"} 178
ftsvc_verify_failures_total{rung="dual"} 184
ftsvc_verify_failures_total{rung="recompute"} 190
# TYPE ftsvc_verify_cost_us_total counter
ftsvc_verify_cost_us_total{rung="residue"} 180
ftsvc_verify_cost_us_total{rung="dual"} 186
ftsvc_verify_cost_us_total{rung="recompute"} 192
# TYPE ftsvc_verify_escalations_total counter
ftsvc_verify_escalations_total 194
# TYPE ft_breaker_opens_total counter
ft_breaker_opens_total 196
# TYPE ft_breaker_closes_total counter
ft_breaker_closes_total 198
# TYPE ft_chaos_injected_total counter
ft_chaos_injected_total{kind="panic"} 200
ft_chaos_injected_total{kind="straggle"} 202
ft_chaos_injected_total{kind="corrupt"} 204
ft_chaos_injected_total{kind="shard_kill"} 206
ft_chaos_injected_total{kind="shard_stall"} 208
# TYPE ft_distributed_runs_total counter
ft_distributed_runs_total 210
# TYPE ft_distributed_recoveries_total counter
ft_distributed_recoveries_total 212
# TYPE ft_distributed_unrecoverable_total counter
ft_distributed_unrecoverable_total 214
# TYPE ft_distributed_false_positives_total counter
ft_distributed_false_positives_total 216
# TYPE ft_distributed_detect_rounds_total counter
ft_distributed_detect_rounds_total 218
# TYPE ft_distributed_stragglers_flagged_total counter
ft_distributed_stragglers_flagged_total 220
# TYPE ft_distributed_max_detect_latency_ticks gauge
ft_distributed_max_detect_latency_ticks 161
# TYPE ftsvc_router_shards gauge
ftsvc_router_shards 3
# TYPE ftsvc_router_shards_live gauge
ftsvc_router_shards_live 2
# TYPE ftsvc_router_shard_deaths_total counter
ftsvc_router_shard_deaths_total 4
# TYPE ftsvc_router_failovers_total counter
ftsvc_router_failovers_total 5
# TYPE ftsvc_router_steals_total counter
ftsvc_router_steals_total 6
# TYPE ftsvc_router_rejoins_total counter
ftsvc_router_rejoins_total 7
# TYPE ftsvc_router_monitor_rounds_total counter
ftsvc_router_monitor_rounds_total 8
# TYPE http_requests_total counter
http_requests_total{route="mul",code="200"} 31
http_requests_total{route="mul",code="429"} 32
http_requests_total{route="mul_batch",code="200"} 33
# TYPE http_request_duration_us histogram
http_request_duration_us_bucket{route="mul",le="100"} 40
http_request_duration_us_bucket{route="mul",le="500"} 81
http_request_duration_us_bucket{route="mul",le="1000"} 123
http_request_duration_us_bucket{route="mul",le="5000"} 166
http_request_duration_us_bucket{route="mul",le="25000"} 210
http_request_duration_us_bucket{route="mul",le="100000"} 255
http_request_duration_us_bucket{route="mul",le="500000"} 301
http_request_duration_us_bucket{route="mul",le="2000000"} 348
http_request_duration_us_bucket{route="mul",le="+Inf"} 396
http_request_duration_us_sum{route="mul"} 40000
http_request_duration_us_count{route="mul"} 396
http_request_duration_us_bucket{route="mul_batch",le="100"} 50
http_request_duration_us_bucket{route="mul_batch",le="500"} 101
http_request_duration_us_bucket{route="mul_batch",le="1000"} 153
http_request_duration_us_bucket{route="mul_batch",le="5000"} 206
http_request_duration_us_bucket{route="mul_batch",le="25000"} 260
http_request_duration_us_bucket{route="mul_batch",le="100000"} 315
http_request_duration_us_bucket{route="mul_batch",le="500000"} 371
http_request_duration_us_bucket{route="mul_batch",le="2000000"} 428
http_request_duration_us_bucket{route="mul_batch",le="+Inf"} 486
http_request_duration_us_sum{route="mul_batch"} 50000
http_request_duration_us_count{route="mul_batch"} 486
# TYPE http_streamed_results_total counter
http_streamed_results_total 34
# TYPE http_connections_active gauge
http_connections_active 61
# TYPE http_connections_total counter
http_connections_total 62
# TYPE http_parse_errors_total counter
http_parse_errors_total 63
# TYPE http_accept_errors_total counter
http_accept_errors_total 64
# TYPE http_connections_rejected_total counter
http_connections_rejected_total 65
# TYPE http_request_timeouts_total counter
http_request_timeouts_total 66
"#;

#[test]
fn golden_exports_of_a_fully_populated_snapshot() {
    let json = golden_service().to_json();
    assert_eq!(json, GOLDEN_JSON, "/v1/metrics JSON drifted");

    let scrape = golden_scrape();
    // The per-(kernel, size class) families are covered by the parity
    // test; every other sample and # TYPE line is pinned in order.
    let pinned: Vec<&str> = scrape
        .lines()
        .filter(|line| !line.starts_with("# HELP "))
        .filter(|line| !family(line).starts_with("ft_kernel_class_"))
        .collect();
    let expected: Vec<&str> = GOLDEN_PROM.trim().lines().collect();
    assert_eq!(pinned, expected, "/metrics exposition drifted");

    // Every family has exactly one non-empty HELP line, right before its
    // # TYPE line.
    let lines: Vec<&str> = scrape.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            let help = i
                .checked_sub(1)
                .and_then(|p| lines[p].strip_prefix("# HELP "))
                .and_then(|h| h.strip_prefix(name))
                .and_then(|h| h.strip_prefix(' '));
            assert!(
                help.is_some_and(|h| !h.trim().is_empty()),
                "{name}: missing HELP"
            );
            let helps = lines
                .iter()
                .filter(|l| l.starts_with(&format!("# HELP {name} ")))
                .count();
            assert_eq!(helps, 1, "{name}: HELP written {helps} times");
        }
    }
}

/// Parity: the JSON and Prometheus exports of the golden snapshot agree,
/// value for value, row by row of the metric registry.
mod parity {
    use super::{golden_scrape, golden_service};
    use ft_service::json::Json;
    use ft_service::metrics::{At, ROWS};
    use std::collections::HashMap;

    /// Every sample of a scrape, keyed by name with labels.
    fn samples(scrape: &str) -> HashMap<&str, u64> {
        scrape
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (name, value) = line.rsplit_once(' ').unwrap();
                (name, value.parse().unwrap())
            })
            .collect()
    }

    /// The JSON value at dot-separated `path`.
    fn json_at<'a>(doc: &'a Json, path: &str) -> &'a Json {
        path.split('.').fold(doc, |node, key| {
            node.get(key)
                .unwrap_or_else(|| panic!("no JSON value at {path}"))
        })
    }

    /// Dot paths of every scalar leaf under `node` (array items by index).
    fn leaves(node: &Json, path: &str, out: &mut Vec<String>) {
        let join = |key: &str| {
            if path.is_empty() {
                key.to_string()
            } else {
                format!("{path}.{key}")
            }
        };
        match node {
            Json::Obj(fields) => {
                for (key, value) in fields {
                    leaves(value, &join(key), out);
                }
            }
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    leaves(item, &join(&i.to_string()), out);
                }
            }
            _ => out.push(path.to_string()),
        }
    }

    #[test]
    fn every_json_value_has_a_prometheus_twin() {
        let service = golden_service();
        let doc = Json::parse(&service.to_json()).unwrap();
        let scrape = golden_scrape();
        let prom = samples(&scrape);
        let sample = |name: &str| *prom.get(name).unwrap_or_else(|| panic!("no sample {name}"));
        let as_u64 = |value: &Json| value.as_u64().expect("JSON number");
        // JSON leaves the checks below account for.
        let mut checked = Vec::new();
        for row in ROWS {
            match row.at {
                At::Field(..) if row.prom.is_empty() => {
                    // The mean is derived from the histogram's sum and count.
                    assert_eq!(row.json, "mean_latency_us");
                    let mean =
                        sample("ft_request_latency_us_sum") / sample("ft_request_latency_us_count");
                    assert_eq!(as_u64(json_at(&doc, row.json)), mean);
                    checked.push(row.json.to_string());
                }
                At::Field(..) => {
                    assert_eq!(
                        as_u64(json_at(&doc, row.json)),
                        sample(row.prom),
                        "{} vs {}",
                        row.json,
                        row.prom
                    );
                    checked.push(row.json.to_string());
                }
                At::Labelled(key, ..) => {
                    let Json::Obj(entries) = json_at(&doc, row.json) else {
                        panic!("{} is not an object", row.json);
                    };
                    assert_eq!(entries.len(), 5, "{}", row.json);
                    for (name, value) in entries {
                        let twin = format!("{}{{{key}=\"{name}\"}}", row.prom);
                        assert_eq!(as_u64(value), sample(&twin), "{twin}");
                        checked.push(format!("{}.{name}", row.json));
                    }
                }
                At::Histogram => {
                    let Json::Arr(buckets) = json_at(&doc, row.json) else {
                        panic!("{} is not an array", row.json);
                    };
                    let mut cumulative = 0;
                    for (i, bucket) in buckets.iter().enumerate() {
                        cumulative += as_u64(bucket.get("count").unwrap());
                        let le = bucket
                            .get("le_us")
                            .unwrap()
                            .as_u64()
                            .map_or_else(|| "+Inf".to_string(), |le| le.to_string());
                        let twin = format!("{}_bucket{{le=\"{le}\"}}", row.prom);
                        assert_eq!(sample(&twin), cumulative, "{twin}");
                        checked.push(format!("{}.{i}.count", row.json));
                        checked.push(format!("{}.{i}.le_us", row.json));
                    }
                    assert_eq!(sample(&format!("{}_count", row.prom)), cumulative);
                }
                // Checked cell by cell below.
                At::Class(..) => {}
            }
        }

        // The size-class families match the `size_classes` rows.
        let Json::Arr(cells) = json_at(&doc, "size_classes") else {
            panic!("size_classes is not an array");
        };
        assert_eq!(cells.len(), service.kernel_classes.len());
        for (i, cell) in cells.iter().enumerate() {
            let Some(Json::Str(kernel)) = cell.get("kernel") else {
                panic!("size_classes.{i}: no kernel");
            };
            let class_bits = as_u64(cell.get("class_bits").unwrap());
            let labels = format!("{{kernel=\"{kernel}\",class_bits=\"{class_bits}\"}}");
            let served = sample(&format!("ft_kernel_class_served_total{labels}"));
            let total_us = sample(&format!("ft_kernel_class_latency_us_total{labels}"));
            assert_eq!(as_u64(cell.get("served").unwrap()), served, "{labels}");
            assert_eq!(as_u64(cell.get("mean_us").unwrap()), total_us / served);
            for key in ["kernel", "class_bits", "served", "mean_us"] {
                checked.push(format!("size_classes.{i}.{key}"));
            }
        }

        // No JSON value escaped the checks.
        let mut all = Vec::new();
        leaves(&doc, "", &mut all);
        all.sort();
        checked.sort();
        assert_eq!(all, checked);
    }
}
