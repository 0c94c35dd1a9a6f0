//! End-to-end tests of the serve daemon (ISSUE 6 tentpole): an
//! in-process server on an ephemeral port, exercised by raw
//! `TcpStream` clients through the crate's own minimal HTTP layer.
//!
//! The core contract under test: a served `/infer` response body is
//! **bit-identical** to what `cati infer --json` prints for the same
//! binary — across concurrency, micro-batching, backpressure, and a
//! model hot-swap. Overload and deadline behavior must be clean
//! protocol answers (503/504), never hangs or panics.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cati::obs::{MetricsSnapshot, NOOP};
use cati::{Cati, Config, InferReport};
use cati_asm::binary::Binary;
use cati_serve::{roundtrip, roundtrip_with_timeout, Request, Response, ServeConfig, Server};
use cati_synbin::{build_corpus, Corpus, CorpusConfig};

/// One small trained system + corpus shared by every test in this
/// file (training is the expensive part).
fn trained() -> &'static (Cati, Corpus) {
    static CELL: OnceLock<(Cati, Corpus)> = OnceLock::new();
    CELL.get_or_init(|| {
        let corpus = build_corpus(&CorpusConfig::small(4));
        let n = corpus.train.len().min(4);
        let cati = Cati::train(&corpus.train[..n], &Config::small(), &NOOP);
        (cati, corpus)
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cati_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What `cati infer --model M BIN --json` prints (sans the trailing
/// newline `println!` adds): sorted vars, pretty-printed.
fn one_shot_strict(cati: &Cati, binary: &Binary) -> String {
    let mut vars = cati.infer(binary).expect("strict inference");
    vars.sort_by_key(|v| (v.key.func, v.key.offset));
    serde_json::to_string_pretty(&vars).unwrap()
}

/// What `cati infer --lenient --json` prints: the full report with
/// sorted vars.
fn one_shot_lenient(cati: &Cati, binary: &Binary) -> String {
    let mut report = cati.infer_lenient(binary);
    report.vars.sort_by_key(|v| (v.key.func, v.key.offset));
    serde_json::to_string_pretty(&report).unwrap()
}

fn infer_request(binary: &Binary) -> Request {
    Request::new("POST", "/infer").with_body(serde_json::to_vec(binary).unwrap())
}

fn start(cfg: ServeConfig) -> cati_serve::ServerHandle {
    let (cati, _) = trained();
    Server::start(cati.clone(), cfg).expect("server start")
}

fn ephemeral(mut cfg: ServeConfig) -> ServeConfig {
    cfg.addr = "127.0.0.1:0".to_string();
    cfg
}

/// The tentpole contract: with 8 clients hammering the daemon
/// concurrently, every response body is byte-identical to the
/// one-shot CLI output for its binary, and every response names the
/// serving model version. Checked without a cache, and with a
/// server-side artifact cache: once cold, then warm.
#[test]
fn served_inference_is_bit_identical_under_concurrent_clients() {
    let (cati, corpus) = trained();
    let cases: Vec<(Binary, String)> = corpus
        .test
        .iter()
        .cycle()
        .take(8)
        .map(|built| {
            let stripped = built.binary.strip();
            let expected = one_shot_strict(cati, &stripped);
            (stripped, expected)
        })
        .collect();

    let plain = start(ephemeral(ServeConfig::default()));
    concurrent_parity_round(&plain, &cases);
    assert!(snapshot(&plain).counter("serve.requests").unwrap_or(0) >= 8);

    let cache_dir = temp_dir("parity_cache");
    let cached = start(ephemeral(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    }));
    concurrent_parity_round(&cached, &cases[..4]);
    let cold = snapshot(&cached);
    assert!(
        cold.counter("cache.miss").unwrap_or(0) > 0,
        "cold round must fill the cache"
    );
    concurrent_parity_round(&cached, &cases[..4]);
    let warm = snapshot(&cached);
    assert!(
        warm.counter("cache.hit").unwrap_or(0) > cold.counter("cache.hit").unwrap_or(0),
        "warm round must read the cache"
    );
    std::fs::remove_dir_all(&cache_dir).ok();
}

/// Sends every case from its own client thread at once and checks
/// each served body against its one-shot output.
fn concurrent_parity_round(handle: &cati_serve::ServerHandle, cases: &[(Binary, String)]) {
    let addr = handle.addr();
    let version = handle.model_version();
    let threads: Vec<_> = cases
        .iter()
        .cloned()
        .map(|(binary, expected)| {
            let version = version.clone();
            std::thread::spawn(move || {
                let response = roundtrip(addr, &infer_request(&binary)).expect("roundtrip");
                assert_eq!(response.status, 200, "body: {}", text(&response));
                assert_eq!(response.header("content-type"), Some("application/json"));
                assert_eq!(
                    response.header("x-cati-model-version"),
                    Some(version.as_str())
                );
                assert_eq!(
                    text(&response),
                    expected,
                    "served body must be bit-identical to one-shot inference"
                );
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
}

#[test]
fn lenient_mode_serves_the_full_report() {
    let (cati, corpus) = trained();
    let handle = start(ephemeral(ServeConfig::default()));
    let binary = &corpus.test[0].binary;
    let expected = one_shot_lenient(cati, binary);

    // Via query string...
    let request =
        Request::new("POST", "/infer?mode=lenient").with_body(serde_json::to_vec(binary).unwrap());
    let response = roundtrip(handle.addr(), &request).unwrap();
    assert_eq!(response.status, 200, "body: {}", text(&response));
    assert_eq!(text(&response), expected);
    let report: InferReport = serde_json::from_slice(&response.body).unwrap();
    assert_eq!(report.coverage.bytes_total, binary.text.len() as u64);

    // ...and via the header form.
    let request = infer_request(binary).with_header("x-cati-mode", "lenient");
    let response = roundtrip(handle.addr(), &request).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(text(&response), expected);
}

/// Requests that arrive while the single worker is busy must coalesce
/// into one micro-batch — and still yield bit-identical bodies.
#[test]
fn concurrent_requests_coalesce_into_micro_batches() {
    let (cati, corpus) = trained();
    let mut cfg = ephemeral(ServeConfig::default());
    cfg.workers = 1;
    cfg.allow_test_delay = true;
    let handle = start(cfg);
    let addr = handle.addr();

    let binary = corpus.test[0].binary.strip();
    let expected = one_shot_strict(cati, &binary);

    // Occupy the worker: a request whose processing sleeps 400ms.
    let blocker = {
        let binary = binary.clone();
        std::thread::spawn(move || {
            let request = infer_request(&binary).with_header("x-cati-test-sleep-ms", 400);
            roundtrip(addr, &request).expect("blocker roundtrip")
        })
    };
    std::thread::sleep(Duration::from_millis(150));

    // These four queue up behind the blocker and drain as one batch.
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let binary = binary.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let response = roundtrip(addr, &infer_request(&binary)).expect("roundtrip");
                assert_eq!(response.status, 200, "body: {}", text(&response));
                assert_eq!(text(&response), expected);
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }
    assert_eq!(blocker.join().expect("blocker").status, 200);

    let histogram = snapshot(&handle);
    let batches = histogram
        .histogram("serve.batch_size")
        .expect("batch-size histogram");
    // 5 requests in fewer than 5 batches ⇒ some batch held > 1
    // request. (sum = total requests, count = number of batches.)
    assert!(
        batches.sum > batches.count as f64,
        "no coalescing: {} requests in {} batches",
        batches.sum,
        batches.count
    );
}

/// A full queue answers 503 immediately (`serve.rejected`); admitted
/// requests still complete correctly.
#[test]
fn full_queue_sheds_load_with_deterministic_503() {
    let (cati, corpus) = trained();
    let mut cfg = ephemeral(ServeConfig::default());
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    cfg.allow_test_delay = true;
    let handle = start(cfg);
    let addr = handle.addr();

    let binary = corpus.test[0].binary.strip();
    let expected = one_shot_strict(cati, &binary);

    // A occupies the worker (600ms of "work")...
    let a = {
        let binary = binary.clone();
        std::thread::spawn(move || {
            let request = infer_request(&binary).with_header("x-cati-test-sleep-ms", 600);
            roundtrip(addr, &request).expect("A")
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    // ...B fills the queue's single slot...
    let b = {
        let binary = binary.clone();
        std::thread::spawn(move || roundtrip(addr, &infer_request(&binary)).expect("B"))
    };
    std::thread::sleep(Duration::from_millis(100));
    // ...so C must be shed, fast.
    let t0 = Instant::now();
    let c = roundtrip(addr, &infer_request(&binary)).expect("C");
    assert_eq!(c.status, 503, "body: {}", text(&c));
    assert!(
        t0.elapsed() < Duration::from_millis(300),
        "503 must be immediate, took {:?}",
        t0.elapsed()
    );
    assert!(text(&c).contains("queue full"));

    for (name, response) in [("A", a.join().unwrap()), ("B", b.join().unwrap())] {
        assert_eq!(response.status, 200, "{name} body: {}", text(&response));
        assert_eq!(text(&response), expected, "{name} served a wrong body");
    }
    assert!(snapshot(&handle).counter("serve.rejected").unwrap_or(0) >= 1);
}

/// `POST /admin/reload` swaps the model under live traffic: no
/// request fails, every response belongs to exactly one of the two
/// versions, and post-swap responses are bit-identical to one-shot
/// inference under the new model.
#[test]
fn hot_swap_keeps_every_inflight_request_correct() {
    let (_, corpus) = trained();
    let dir = temp_dir("swap");
    let v1_path = dir.join("v1.cati");
    let v2_path = dir.join("v2.cati");
    trained().0.save(&v1_path).unwrap();
    let v2 = {
        let corpus2 = build_corpus(&CorpusConfig::small(9));
        let n = corpus2.train.len().min(3);
        Cati::train(&corpus2.train[..n], &Config::small(), &NOOP)
    };
    v2.save(&v2_path).unwrap();

    let handle = Server::start_from_path(&v1_path, ephemeral(ServeConfig::default())).unwrap();
    let addr = handle.addr();
    let v1 = Cati::load(&v1_path).unwrap();
    let v2 = Cati::load(&v2_path).unwrap();
    let v1_version = cati_serve::model_version(&v1);
    let v2_version = cati_serve::model_version(&v2);
    assert_ne!(v1_version, v2_version, "test needs two distinct models");
    assert_eq!(handle.model_version(), v1_version);

    let binary = corpus.test[0].binary.strip();
    let expected_v1 = one_shot_strict(&v1, &binary);
    let expected_v2 = one_shot_strict(&v2, &binary);

    let served_after_swap = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let binary = binary.clone();
            let (v1_version, v2_version) = (v1_version.clone(), v2_version.clone());
            let (expected_v1, expected_v2) = (expected_v1.clone(), expected_v2.clone());
            let served_after_swap = Arc::clone(&served_after_swap);
            std::thread::spawn(move || {
                for _ in 0..6 {
                    let response = roundtrip(addr, &infer_request(&binary)).expect("roundtrip");
                    assert_eq!(response.status, 200, "body: {}", text(&response));
                    let version = response.header("x-cati-model-version").unwrap().to_string();
                    // Each response is internally consistent: the body
                    // matches the version that stamped it.
                    let expected = if version == v1_version {
                        &expected_v1
                    } else if version == v2_version {
                        served_after_swap.fetch_add(1, Ordering::SeqCst);
                        &expected_v2
                    } else {
                        panic!("unknown model version {version}");
                    };
                    assert_eq!(&text(&response), expected);
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(50));
    let reload = Request::new("POST", "/admin/reload").with_body(format!(
        "{{\"model\": {:?}}}",
        v2_path.display().to_string()
    ));
    let response = roundtrip(addr, &reload).unwrap();
    assert_eq!(response.status, 200, "body: {}", text(&response));
    assert_eq!(
        response.header("x-cati-model-version"),
        Some(v2_version.as_str())
    );
    for t in clients {
        t.join().expect("client thread");
    }

    // The swap is total: a fresh request is served by v2, body
    // bit-identical to one-shot inference under v2.
    assert_eq!(handle.model_version(), v2_version);
    let response = roundtrip(addr, &infer_request(&binary)).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("x-cati-model-version"),
        Some(v2_version.as_str())
    );
    assert_eq!(text(&response), expected_v2);
    assert!(snapshot(&handle).counter("serve.reloads").unwrap_or(0) >= 1);
}

/// A request whose hang limit is below its processing time gets a
/// clean 504 within 2× the limit — and the server keeps serving.
#[test]
fn deadline_miss_is_a_fast_504_and_the_server_survives() {
    let (cati, corpus) = trained();
    let mut cfg = ephemeral(ServeConfig::default());
    cfg.workers = 1;
    cfg.allow_test_delay = true;
    let handle = start(cfg);
    let addr = handle.addr();
    let binary = corpus.test[0].binary.strip();

    let limit_ms = 500u64;
    let request = infer_request(&binary)
        .with_header("x-cati-test-sleep-ms", 2500)
        .with_header("x-cati-hang-limit-ms", limit_ms);
    let t0 = Instant::now();
    let response = roundtrip_with_timeout(addr, &request, Some(Duration::from_secs(10))).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(response.status, 504, "body: {}", text(&response));
    assert!(
        elapsed < Duration::from_millis(2 * limit_ms),
        "504 took {elapsed:?}, over 2x the {limit_ms}ms limit"
    );
    assert!(
        snapshot(&handle)
            .counter("serve.deadline_expired")
            .unwrap_or(0)
            >= 1
    );

    // The abandoned computation finishes in the background and the
    // next (unlimited) request is served correctly.
    let response = roundtrip(addr, &infer_request(&binary)).unwrap();
    assert_eq!(response.status, 200, "body: {}", text(&response));
    assert_eq!(text(&response), one_shot_strict(cati, &binary));

    // The worker's late result was dropped, not delivered.
    let t0 = Instant::now();
    loop {
        if snapshot(&handle)
            .counter("serve.deadline_dropped")
            .unwrap_or(0)
            >= 1
        {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "late result never recorded as dropped"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Protocol-level garbage gets protocol-level answers, never a crash.
#[test]
fn malformed_traffic_gets_4xx_and_the_server_stays_up() {
    let handle = start(ephemeral(ServeConfig::default()));
    let addr = handle.addr();

    // Raw garbage on the wire → 400.
    let mut stream = TcpStream::connect(addr).unwrap();
    std::io::Write::write_all(&mut stream, b"GARBAGE\r\n\r\n").unwrap();
    let response = read_response(stream);
    assert_eq!(response.status, 400);

    // A declared body over the hard cap → 413, refused before buffering.
    let mut stream = TcpStream::connect(addr).unwrap();
    std::io::Write::write_all(
        &mut stream,
        b"POST /infer HTTP/1.1\r\ncontent-length: 999999999999\r\n\r\n",
    )
    .unwrap();
    let response = read_response(stream);
    assert_eq!(response.status, 413);

    // Unknown route → 404; wrong method → 405; non-Binary JSON → 400.
    let response = roundtrip(addr, &Request::new("GET", "/nope")).unwrap();
    assert_eq!(response.status, 404);
    let response = roundtrip(addr, &Request::new("GET", "/infer")).unwrap();
    assert_eq!(response.status, 405);
    let response = roundtrip(
        addr,
        &Request::new("POST", "/infer").with_body(&b"not json"[..]),
    )
    .unwrap();
    assert_eq!(response.status, 400);

    // And the daemon is still healthy.
    let response = roundtrip(addr, &Request::new("GET", "/health")).unwrap();
    assert_eq!(response.status, 200);
    assert!(snapshot(&handle).counter("serve.errors").unwrap_or(0) >= 4);
}

#[test]
fn health_and_metrics_expose_the_live_registry() {
    let (_, corpus) = trained();
    let handle = start(ephemeral(ServeConfig::default()));
    let addr = handle.addr();

    let response = roundtrip(addr, &Request::new("GET", "/health")).unwrap();
    assert_eq!(response.status, 200);
    let health: serde_json::Value = serde_json::from_slice(&response.body).unwrap();
    assert_eq!(
        health["model_version"].as_str(),
        Some(handle.model_version().as_str())
    );

    let binary = corpus.test[0].binary.strip();
    roundtrip(addr, &infer_request(&binary)).unwrap();

    // The worker stamps `serve.served` *after* waking the client, so a fast
    // scrape can race it: poll until the counter lands.
    let deadline = Instant::now() + Duration::from_secs(5);
    let scraped = loop {
        let response = roundtrip(addr, &Request::new("GET", "/metrics")).unwrap();
        assert_eq!(response.status, 200);
        let scraped: MetricsSnapshot = serde_json::from_slice(&response.body).unwrap();
        if scraped.counter("serve.served").unwrap_or(0) >= 1 || Instant::now() >= deadline {
            break scraped;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(scraped.counter("serve.requests").unwrap_or(0) >= 1);
    assert!(scraped.counter("serve.served").unwrap_or(0) >= 1);
    assert!(scraped.histogram("serve.latency_ms").is_some());
}

/// A failed reload must not disturb the serving model.
#[test]
fn reload_of_a_bad_model_is_rejected_and_harmless() {
    let (cati, corpus) = trained();
    let handle = start(ephemeral(ServeConfig::default()));
    let addr = handle.addr();
    let version = handle.model_version();

    let reload = Request::new("POST", "/admin/reload")
        .with_body(&br#"{"model": "/nonexistent/model.cati"}"#[..]);
    let response = roundtrip(addr, &reload).unwrap();
    assert_eq!(response.status, 422, "body: {}", text(&response));
    assert_eq!(
        handle.model_version(),
        version,
        "failed reload must not swap"
    );

    let reload = Request::new("POST", "/admin/reload").with_body(&b"{}"[..]);
    let response = roundtrip(addr, &reload).unwrap();
    assert_eq!(response.status, 400);

    let binary = corpus.test[0].binary.strip();
    let response = roundtrip(addr, &infer_request(&binary)).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(text(&response), one_shot_strict(cati, &binary));
}

/// Every response carries a trace id; generated ids are unique across
/// 8 concurrent clients and a caller-supplied id is echoed verbatim.
#[test]
fn trace_ids_are_unique_and_caller_ids_are_echoed() {
    let (_, corpus) = trained();
    let handle = start(ephemeral(ServeConfig::default()));
    let addr = handle.addr();
    let binary = corpus.test[0].binary.strip();

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let binary = binary.clone();
            std::thread::spawn(move || {
                let response = roundtrip(addr, &infer_request(&binary)).expect("roundtrip");
                assert_eq!(response.status, 200);
                response
                    .header("x-cati-trace-id")
                    .expect("every response carries a trace id")
                    .to_string()
            })
        })
        .collect();
    let ids: Vec<String> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let unique: std::collections::HashSet<&String> = ids.iter().collect();
    assert_eq!(
        unique.len(),
        ids.len(),
        "generated trace ids collided: {ids:?}"
    );

    // A caller-supplied id is honored; hostile ones are replaced.
    let tagged = infer_request(&binary).with_header("x-cati-trace-id", "req-42-from-client");
    let response = roundtrip(addr, &tagged).unwrap();
    assert_eq!(
        response.header("x-cati-trace-id"),
        Some("req-42-from-client")
    );

    let hostile = infer_request(&binary).with_header("x-cati-trace-id", "bad id with spaces");
    let response = roundtrip(addr, &hostile).unwrap();
    let got = response.header("x-cati-trace-id").expect("replacement id");
    assert_ne!(got, "bad id with spaces");
}

/// `GET /metrics?format=prometheus` answers well-formed text
/// exposition: parses, carries the serve families, and each histogram
/// is structurally consistent (`+Inf` bucket == `_count`).
#[test]
fn metrics_prometheus_exposition_is_well_formed() {
    let (_, corpus) = trained();
    let handle = start(ephemeral(ServeConfig::default()));
    let addr = handle.addr();
    let response = roundtrip(addr, &infer_request(&corpus.test[0].binary.strip())).unwrap();
    assert_eq!(response.status, 200);

    let response = roundtrip(addr, &Request::new("GET", "/metrics?format=prometheus")).unwrap();
    assert_eq!(response.status, 200);
    assert!(response
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    let body = text(&response);
    let exposition = cati::obs::prometheus::parse(&body)
        .unwrap_or_else(|e| panic!("exposition rejected: {e}\n{body}"));
    assert!(
        exposition.value("serve_requests").is_some(),
        "serve.requests counter missing:\n{body}"
    );
    for phase in ["queue_wait", "embed", "batch_wait", "leaf", "vote"] {
        let count = exposition.value(&format!("serve_phase_{phase}_ms_count"));
        assert!(
            count.is_some_and(|c| c >= 1.0),
            "serve.phase.{phase}_ms histogram missing or empty:\n{body}"
        );
    }
}

/// The JSON `/metrics` histograms carry estimated p50/p95/p99.
#[test]
fn metrics_json_histograms_carry_quantiles() {
    let (_, corpus) = trained();
    let handle = start(ephemeral(ServeConfig::default()));
    let addr = handle.addr();
    let response = roundtrip(addr, &infer_request(&corpus.test[0].binary.strip())).unwrap();
    assert_eq!(response.status, 200);

    let response = roundtrip(addr, &Request::new("GET", "/metrics")).unwrap();
    assert_eq!(response.status, 200);
    let v: serde_json::Value = serde_json::from_str(&text(&response)).expect("metrics json");
    let histograms = v["histograms"].as_array().expect("histograms array");
    let latency = histograms
        .iter()
        .find(|h| h["name"] == "serve.latency_ms")
        .expect("serve.latency_ms histogram");
    for q in ["p50", "p95", "p99"] {
        assert!(
            latency[q].as_f64().is_some_and(f64::is_finite),
            "serve.latency_ms lacks {q}: {latency:?}"
        );
    }
}

/// `GET /debug/profile` dumps the aggregated span tree, including the
/// batched-classification span after traffic has flowed.
#[test]
fn debug_profile_exposes_the_span_tree() {
    let (_, corpus) = trained();
    let handle = start(ephemeral(ServeConfig::default()));
    let addr = handle.addr();
    let response = roundtrip(addr, &infer_request(&corpus.test[0].binary.strip())).unwrap();
    assert_eq!(response.status, 200);

    // The batch span closes when the worker's drain loop returns —
    // shortly *after* the response is delivered — so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    let batch = loop {
        let response = roundtrip(addr, &Request::new("GET", "/debug/profile")).unwrap();
        assert_eq!(response.status, 200);
        let v: serde_json::Value = serde_json::from_str(&text(&response)).expect("profile json");
        let roots = v["span_tree"]["roots"]
            .as_array()
            .expect("roots array")
            .clone();
        // Dotted paths nest: `serve.batch` is root `serve`, child `batch`.
        if let Some(batch) = roots
            .iter()
            .filter_map(|n| n["children"].as_array())
            .flatten()
            .find(|n| n["path"] == "serve.batch")
        {
            break batch.clone();
        }
        assert!(
            Instant::now() < deadline,
            "no serve.batch span in profile after 5s: {v:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(batch["calls"].as_u64().is_some_and(|c| c >= 1));
    assert!(batch["total_ns"].as_u64().is_some_and(|ns| ns > 0));
}

fn text(response: &Response) -> String {
    String::from_utf8_lossy(&response.body).into_owned()
}

fn snapshot(handle: &cati_serve::ServerHandle) -> MetricsSnapshot {
    handle.recorder().metrics().snapshot()
}

fn read_response(stream: TcpStream) -> Response {
    let mut reader = std::io::BufReader::new(stream);
    Response::read_from(&mut reader).expect("response")
}
