//! End-to-end gateway tests over real sockets: a tiny-but-real frozen
//! model behind a [`Gateway`] on an ephemeral port, exercised through
//! the crate's own HTTP client.
//!
//! Covers the wire contract (single and batch `/match`, thresholds),
//! the error mapping (malformed → 400, expired deadline → 504, shed
//! burst → 429, unknown route → 404, wrong method → 405, oversized
//! body → 413), connection-level admission control (503), concurrent
//! clients, and that `/metrics` yields parseable Prometheus text.

use em_core::pipeline::train_tokenizer;
use em_gateway::{http_request, Gateway, GatewayConfig, HttpClient};
use em_serve::{freeze_parts, FaultPlan, FrozenMatcher, ServeConfig, ServeMatcher};
use em_tokenizers::Tokenizer;
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// A tiny frozen BERT whose vocab matches its trained tokenizer — real
/// tokenization and forward passes at test-suite speed.
fn tiny_frozen(seed: u64) -> FrozenMatcher {
    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(30, seed);
    let tok = train_tokenizer(arch, &corpus, 200);
    let cfg = TransformerConfig::tiny(arch, tok.vocab_size());
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a7e);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    freeze_parts(&model, &head, tok, 48)
}

/// Spawn a gateway over a fresh matcher built from `serve_cfg`.
fn spawn_gateway(serve_cfg: ServeConfig, gw_cfg: GatewayConfig) -> Gateway {
    em_obs::set_level(em_obs::LEVEL_AGGREGATE);
    let matcher = Arc::new(ServeMatcher::start(tiny_frozen(7), serve_cfg));
    Gateway::spawn(matcher, gw_cfg).expect("gateway binds an ephemeral port")
}

fn default_gateway() -> Gateway {
    spawn_gateway(
        ServeConfig::builder().workers(2).build().unwrap(),
        GatewayConfig::default(),
    )
}

/// `(code, retryable)` out of an `ErrorBody` JSON, asserting the shape.
fn error_code(body: &str) -> (String, bool) {
    let v: serde_json::Value = serde_json::from_str(body).expect("error body is JSON");
    let code = v.get_field("code").and_then(|c| c.as_str()).expect("code");
    let retryable = v
        .get_field("retryable")
        .and_then(|r| r.as_bool())
        .expect("retryable");
    (code.to_string(), retryable)
}

#[test]
fn single_and_batch_requests_score_over_the_wire() {
    let gw = default_gateway();
    let mut client = HttpClient::connect(gw.addr()).unwrap();

    let single = client
        .post_json(
            "/match",
            r#"{"left": "sony vaio 15in laptop", "right": "sony vaio 15.5 notebook"}"#,
        )
        .unwrap();
    assert_eq!(single.status, 200, "{}", single.body);
    let v: serde_json::Value = serde_json::from_str(&single.body).unwrap();
    assert_eq!(v.get_field("count").and_then(|c| c.as_u64()), Some(1));
    let score = v
        .get_field("results")
        .and_then(|r| r.as_array())
        .and_then(|a| a.first())
        .and_then(|r| r.get_field("score"))
        .and_then(|s| s.as_f64())
        .expect("score");
    assert!((0.0..=1.0).contains(&score), "score {score} out of range");

    // Batch form with an explicit threshold of 0: every score > 0, so
    // every pair must be reported as a match.
    let batch = client
        .post_json(
            "/match",
            r#"{"pairs": [{"left":"canon eos","right":"canon eos camera"},
                          {"left":"red shoe","right":"blender 700w"}],
                "threshold": 0.0}"#,
        )
        .unwrap();
    assert_eq!(batch.status, 200, "{}", batch.body);
    let v: serde_json::Value = serde_json::from_str(&batch.body).unwrap();
    let results = v
        .get_field("results")
        .and_then(|r| r.as_array())
        .expect("results");
    assert_eq!(results.len(), 2);
    for r in results {
        assert_eq!(
            r.get_field("is_match").and_then(|m| m.as_bool()),
            Some(true),
            "threshold 0 makes every positive score a match"
        );
    }

    // The same pair scored twice must agree: the forward is
    // deterministic and the wire adds nothing.
    let again = client
        .post_json(
            "/match",
            r#"{"left": "sony vaio 15in laptop", "right": "sony vaio 15.5 notebook"}"#,
        )
        .unwrap();
    assert_eq!(again.body, single.body);
}

#[test]
fn concurrent_clients_share_one_gateway() {
    let gw = default_gateway();
    let addr = gw.addr();
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    let mut bodies = Vec::new();
                    for j in 0..3 {
                        let req = format!(
                            r#"{{"left": "client {i} item {j}", "right": "client {i} offer {j}"}}"#
                        );
                        let resp = client.post_json("/match", &req).unwrap();
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        bodies.push(resp.body);
                    }
                    bodies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(bodies.len(), 12);
    for body in &bodies {
        let v: serde_json::Value = serde_json::from_str(body).unwrap();
        assert_eq!(v.get_field("count").and_then(|c| c.as_u64()), Some(1));
    }
}

#[test]
fn malformed_requests_are_400_with_stable_codes() {
    let gw = default_gateway();
    let addr = gw.addr();

    // Each bad body is sent on a fresh connection: a parse failure
    // poisons the framing, so the gateway answers and closes.
    for bad in [
        "this is not json",
        r#"{"pairs": "not an array"}"#,
        r#"{"deadline_ms": 5}"#,
        r#"{"left":"a","right":"b","pairs":[{"left":"c","right":"d"}]}"#,
        r#"{"left":"a","right":"b","threshold": 7.5}"#,
        r#"{"pairs": []}"#,
    ] {
        let resp = http_request(addr, "POST", "/match", Some(bad)).unwrap();
        assert_eq!(resp.status, 400, "body {bad:?} → {}", resp.body);
        let (code, retryable) = error_code(&resp.body);
        assert_eq!(code, "bad_request", "{bad:?}");
        assert!(!retryable, "malformed input never deserves a retry");
    }

    let resp = http_request(addr, "GET", "/nope", None).unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp.body).0, "not_found");

    let resp = http_request(addr, "GET", "/match", None).unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(error_code(&resp.body).0, "method_not_allowed");
}

/// A body of half a MiB of `[` (under the 1 MiB cap) once overflowed the
/// JSON parser's stack and aborted the whole process. It must now be a
/// plain 400, with the gateway still answering afterwards.
#[test]
fn nesting_bomb_is_400_and_the_gateway_survives() {
    let gw = default_gateway();
    let bomb = "[".repeat(512 * 1024);
    let resp = http_request(gw.addr(), "POST", "/match", Some(&bomb)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert_eq!(error_code(&resp.body).0, "bad_request");
    let health = http_request(gw.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
}

#[test]
fn oversized_bodies_are_413_without_buffering() {
    let gw = spawn_gateway(
        ServeConfig::builder().workers(1).build().unwrap(),
        GatewayConfig {
            max_body_bytes: 256,
            ..GatewayConfig::default()
        },
    );
    let big = format!(r#"{{"left": "{}", "right": "b"}}"#, "x".repeat(1024));
    let resp = http_request(gw.addr(), "POST", "/match", Some(&big)).unwrap();
    assert_eq!(resp.status, 413, "{}", resp.body);
    assert_eq!(error_code(&resp.body).0, "payload_too_large");
}

#[test]
fn expired_deadline_maps_to_504() {
    // Cache off so the second identical request cannot sidestep scoring.
    let gw = spawn_gateway(
        ServeConfig::builder()
            .workers(1)
            .cache_capacity(0)
            .build()
            .unwrap(),
        GatewayConfig::default(),
    );
    let resp = http_request(
        gw.addr(),
        "POST",
        "/match",
        Some(r#"{"left": "a product", "right": "another product", "deadline_ms": 0}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body);
    let (code, retryable) = error_code(&resp.body);
    assert_eq!(code, "timeout");
    assert!(retryable, "a fresh deadline may succeed");

    // The same request with a sane deadline succeeds — the 504 above was
    // the deadline, not the pair.
    let ok = http_request(
        gw.addr(),
        "POST",
        "/match",
        Some(r#"{"left": "a product", "right": "another product", "deadline_ms": 30000}"#),
    )
    .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);
}

#[test]
fn overload_burst_sheds_with_429() {
    // One slow worker (every batch delayed 30 ms), a queue of depth 1,
    // shedding on: a concurrent burst must overflow the queue and the
    // overflow must surface as HTTP 429, not blocked sockets.
    let gw = spawn_gateway(
        ServeConfig::builder()
            .workers(1)
            .queue_depth(1)
            .cache_capacity(0)
            .shed(true)
            .fault(FaultPlan {
                delay_every: 1,
                delay: Duration::from_millis(30),
                ..FaultPlan::default()
            })
            .build()
            .unwrap(),
        GatewayConfig::default(),
    );
    let addr = gw.addr();
    let statuses: Vec<u16> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                s.spawn(move || {
                    let pairs: Vec<String> = (0..16)
                        .map(|j| format!(r#"{{"left":"burst {i} {j}","right":"other {i} {j}"}}"#))
                        .collect();
                    let body = format!(r#"{{"pairs": [{}]}}"#, pairs.join(","));
                    let resp = http_request(addr, "POST", "/match", Some(&body)).unwrap();
                    if resp.status == 429 {
                        let (code, retryable) = error_code(&resp.body);
                        assert_eq!(code, "overloaded");
                        assert!(retryable, "shedding is explicitly retryable");
                    }
                    resp.status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        statuses.contains(&429),
        "a 128-pair burst into a depth-1 queue must shed: {statuses:?}"
    );
    for s in &statuses {
        assert!(
            [200, 429, 504].contains(s),
            "unexpected status {s} in {statuses:?}"
        );
    }
}

#[test]
fn connection_cap_rejects_with_503() {
    let gw = spawn_gateway(
        ServeConfig::builder().workers(1).build().unwrap(),
        GatewayConfig {
            max_connections: 1,
            ..GatewayConfig::default()
        },
    );
    // First client occupies the single slot with a keep-alive session.
    let mut occupant = HttpClient::connect(gw.addr()).unwrap();
    assert_eq!(occupant.get("/healthz").unwrap().status, 200);
    // Second connection is turned away at the door.
    let resp = http_request(gw.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    let (code, retryable) = error_code(&resp.body);
    assert_eq!(code, "overloaded");
    assert!(retryable);
    // The occupant's session still works…
    assert_eq!(occupant.get("/healthz").unwrap().status, 200);
    // …and releasing it frees the slot for new connections.
    drop(occupant);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let resp = http_request(gw.addr(), "GET", "/healthz", None).unwrap();
        if resp.status == 200 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after the occupant disconnected"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn metrics_endpoint_serves_parseable_prometheus_text() {
    let gw = default_gateway();
    let mut client = HttpClient::connect(gw.addr()).unwrap();
    // Generate some traffic first so the gateway series exist.
    assert_eq!(
        client
            .post_json(
                "/match",
                r#"{"left":"metrics probe","right":"metrics probe b"}"#
            )
            .unwrap()
            .status,
        200
    );
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.header("content-type")
            .unwrap_or("")
            .starts_with("text/plain"),
        "Prometheus scrapers expect text/plain"
    );
    // Every non-comment line must be `name[{labels}] value` with a
    // parseable float value — the exposition-format contract.
    let mut samples = 0;
    for line in resp
        .body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable value in {line:?}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition must not be empty after traffic");
    assert!(
        resp.body.contains("gateway_responses"),
        "gateway series missing:\n{}",
        resp.body
    );
    assert!(
        resp.body.contains("serve_requests"),
        "matcher series missing:\n{}",
        resp.body
    );
}

#[test]
fn shutdown_stops_accepting_but_leaves_the_matcher_alive() {
    let matcher = Arc::new(ServeMatcher::start(
        tiny_frozen(11),
        ServeConfig::builder().workers(1).build().unwrap(),
    ));
    let mut gw = Gateway::spawn(Arc::clone(&matcher), GatewayConfig::default()).unwrap();
    let addr = gw.addr();
    assert_eq!(
        http_request(addr, "GET", "/healthz", None).unwrap().status,
        200
    );
    gw.shutdown();
    // New connections fail (refused) or are closed without an answer.
    assert!(http_request(addr, "GET", "/healthz", None).is_err());
    // The matcher is caller-owned and keeps scoring in-process.
    assert!(matcher.score_text("still", "alive").is_ok());
}

/// `/healthz` pins the model-identity fields, and `/admin/swap` replaces
/// the serving model from a checkpoint on disk — version advances, quant
/// mode changes, scoring keeps working. Bad paths and incompatible
/// models are typed HTTP refusals that leave the gateway serving.
#[test]
fn healthz_pins_model_identity_and_admin_swap_advances_it() {
    let gw = default_gateway();
    let mut client = HttpClient::connect(gw.addr()).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let v: serde_json::Value = serde_json::from_str(&health.body).unwrap();
    assert_eq!(v.get_field("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(
        v.get_field("model_version").and_then(|n| n.as_u64()),
        Some(1)
    );
    assert_eq!(v.get_field("quant").and_then(|q| q.as_str()), Some("f32"));

    // An int8 checkpoint of a compatible model (same tokenizer seed).
    let path = std::env::temp_dir().join(format!("em-gateway-swap-{}.emck", std::process::id()));
    tiny_frozen(7)
        .quantize(em_serve::QuantMode::Int8)
        .save_checkpoint(&path)
        .expect("save checkpoint");

    // Unloadable path → 400 bad_checkpoint, identity unchanged.
    let resp = client
        .post_json("/admin/swap", r#"{"path": "/nonexistent/model.emck"}"#)
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert_eq!(error_code(&resp.body).0, "bad_checkpoint");

    // Wire-incompatible model (different max_len) → 409 swap_incompatible.
    let bad_path =
        std::env::temp_dir().join(format!("em-gateway-swap-bad-{}.emck", std::process::id()));
    {
        let arch = Architecture::Bert;
        let corpus = em_data::generate_corpus(30, 7);
        let tok = train_tokenizer(arch, &corpus, 200);
        let cfg = TransformerConfig::tiny(arch, tok.vocab_size());
        let hidden = cfg.hidden;
        let model = TransformerModel::new(cfg, 7);
        let mut rng = StdRng::seed_from_u64(7 ^ 0x6a7e);
        let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
        freeze_parts(&model, &head, tok, 32)
            .save_checkpoint(&bad_path)
            .expect("save incompatible checkpoint");
    }
    let body = format!(
        "{{\"path\": {}}}",
        serde_json::to_string(&bad_path.display().to_string()).unwrap()
    );
    let resp = client.post_json("/admin/swap", &body).unwrap();
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert_eq!(error_code(&resp.body).0, "swap_incompatible");

    // Malformed body → 400.
    assert_eq!(
        client.post_json("/admin/swap", "{oops").unwrap().status,
        400
    );

    // Health is untouched by the refusals.
    let v: serde_json::Value = serde_json::from_str(&client.get("/healthz").unwrap().body).unwrap();
    assert_eq!(
        v.get_field("model_version").and_then(|n| n.as_u64()),
        Some(1)
    );

    // The real swap: 200, version 2, int8.
    let body = format!(
        "{{\"path\": {}}}",
        serde_json::to_string(&path.display().to_string()).unwrap()
    );
    let resp = client.post_json("/admin/swap", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(
        v.get_field("status").and_then(|s| s.as_str()),
        Some("swapped")
    );
    assert_eq!(
        v.get_field("model_version").and_then(|n| n.as_u64()),
        Some(2)
    );
    assert_eq!(v.get_field("quant").and_then(|q| q.as_str()), Some("int8"));

    // /healthz reflects the new generation and /match still scores.
    let v: serde_json::Value = serde_json::from_str(&client.get("/healthz").unwrap().body).unwrap();
    assert_eq!(
        v.get_field("model_version").and_then(|n| n.as_u64()),
        Some(2)
    );
    assert_eq!(v.get_field("quant").and_then(|q| q.as_str()), Some("int8"));
    let scored = client
        .post_json("/match", r#"{"left":"acer one","right":"acer aspire one"}"#)
        .unwrap();
    assert_eq!(scored.status, 200, "{}", scored.body);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&bad_path);
}
