//! The benchmark's own tests: reconnect-on-close against a server with a
//! small `keep_alive_requests`, and a reduced-length smoke of every
//! workload, untraced and traced, whose metric names must match
//! `BENCHMARK.json`. The percentile rule and due-time accounting are
//! unit-tested in `src/stats.rs` and `src/conn.rs`.

use ft_http::{HttpConfig, HttpServer};
use ft_service::json::Json;
use ft_service::ServiceConfig;
use perfbench::conn::Conn;
use perfbench::pool::{product_field, product_matches, MulCase};
use perfbench::{run, Options};

#[test]
fn reconnects_when_the_server_closes_and_counts_it() {
    let http = HttpConfig {
        net: ft_net::ServerConfig {
            keep_alive_requests: 3,
            ..ft_net::ServerConfig::default()
        },
        ..HttpConfig::default()
    };
    let server = HttpServer::start(&http, ServiceConfig::default()).unwrap();
    let case = MulCase::new(9, 512);
    let mut conn = Conn::new(server.local_addr());
    for _ in 0..10 {
        let rsp = conn.request("POST", "/v1/mul", Some(&case.body)).unwrap();
        assert_eq!(rsp.status, 200);
        let product = product_field(&rsp.text()).unwrap();
        assert!(product_matches(&product, &case.product_hex));
    }
    // Ten exchanges at three per connection: four connections, no errors.
    assert_eq!(conn.connects, 4);
    assert_eq!(server.net_stats().total_connections, 4);
    drop(conn);
    let (_, leftover) = server.shutdown();
    assert_eq!(leftover, 0);
}

/// Metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key}");
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("unnamed metric"),
        })
        .collect()
}

/// The smokes share two cores with their servers; run them one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn smoke(workload: &str, seconds: f64, trace: bool) {
    let _one = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let out = run(&Options::new(workload, 7, seconds, trace))
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(out.correct, "{workload}: wrong product");
    assert_eq!(out.failed, 0, "{workload}: {}", out.record);
    assert!(out.attempted >= 100, "{workload}: {}", out.attempted);
    let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    let want = listed(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(names, want, "{workload}");
    if !trace {
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            out.metrics
        );
    }
    let record = Json::parse(&out.record).unwrap();
    assert!(record.get("record").and_then(|r| r.get("host")).is_some());
    let line = Json::parse(&out.result_line()).unwrap();
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
}

// The workloads move multi-megabit operands; a debug build takes
// minutes, so the smokes run in release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn big_mixed_smoke() {
    smoke("big_mixed", 4.0, false);
    smoke("big_mixed", 4.0, true);
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn batch_stream_smoke() {
    smoke("batch_stream", 3.0, false);
    smoke("batch_stream", 3.0, true);
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run(&Options::new("nope", 1, 1.0, false)).is_err());
}
