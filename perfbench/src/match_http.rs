//! `match-http`: raw text in, scores out, over HTTP/1.1 against the
//! `em-gateway` binary started with its default flags.
//!
//! The load is an open loop at [`RATE`] requests per second, about half
//! of where this mix saturates the default gateway on a 2-vCPU host:
//! request `i` is due at `i / RATE` whatever the server does, and its
//! latency is timed from that due time, so a stall also delays the
//! requests queued behind it. Two connections (one per generator
//! thread, at most `nproc`) share the schedule. Most requests carry one
//! pair, some carry 2–4; records run from short citation titles to long
//! Abt-Buy descriptions, and no pair repeats, so the score cache is
//! bypassed. This is the only workload where gateway parse/write and
//! the coalescer's latency trade-off sit on the critical path.
//!
//! The latency percentiles are taken over the requests the host left
//! alone: those during which the hypervisor's steal counter did not
//! move (see [`steal_exposure`]).

use crate::dedup::tokenize_and_forward;
use crate::report::Report;
use crate::stats::{
    consecutive_groups, least_exposed, lowest_percentile, mean, median, median_percentile,
    percentile, PromHistogram,
};
use crate::{host, model, timed_setups, Opts};
use em_core::{MatchRequest, MatchResponse, TextPair};
use em_data::{DatasetId, PrF1};
use em_gateway::HttpClient;
use em_serve::{FrozenMatcher, ServeConfig, ServeMatcher};
use em_tokenizers::encode_pair;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::Value;
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Offered load, requests per second.
pub const RATE: f64 = 160.0;
/// Share of requests that carry a single pair.
const SINGLE_SHARE: f64 = 0.8;
/// Largest multi-pair request.
const MAX_PAIRS: usize = 4;
/// Generator threads, one keep-alive connection each.
const CONNECTIONS: usize = 2;
/// Unmeasured requests sent first, so every worker has planned its
/// length buckets before the window opens.
const WARMUP: Duration = Duration::from_secs(2);
/// Per-request socket timeout.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// How far the schedule may fall behind before the rest is abandoned.
const GIVE_UP: Duration = Duration::from_secs(30);
/// Fewest requests the latency percentiles are taken over: enough for
/// a p99 with ten beyond it.
const LATENCY_SAMPLES: usize = 1000;
/// How often the host's steal counter is read during a window.
const STEAL_PERIOD: Duration = Duration::from_millis(50);
/// Pairs whose served score is re-computed by the oracle.
const ORACLE_SAMPLE: usize = 300;

/// One request of the schedule.
struct Req {
    pairs: Vec<TextPair>,
    labels: Vec<bool>,
    body: String,
}

/// What happened to one request; times in seconds since the window
/// opened.
struct Outcome {
    due: f64,
    sent: f64,
    done: f64,
    /// HTTP status, 0 for a transport error.
    status: u16,
    body: String,
}

/// The gateway child process; killed and reaped on drop.
struct Gateway {
    child: Child,
    addr: SocketAddr,
}

impl Gateway {
    fn spawn(opts: &Opts) -> Result<Gateway, String> {
        let mut child = Command::new(&opts.gateway_bin)
            .args(["--port", "0"])
            .env("EM_OBS", if opts.trace { "1" } else { "0" })
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", opts.gateway_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut gateway = Gateway {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .and_then(Result::ok)
            .ok_or("gateway exited before listening")?;
        gateway.addr = line
            .strip_prefix("listening on http://")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("unexpected gateway banner {line:?}"))?;
        Ok(gateway)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn metrics(&self) -> Result<String, String> {
        let resp = HttpClient::connect(self.addr)
            .and_then(|mut c| c.get("/metrics"))
            .map_err(|e| format!("GET /metrics: {e}"))?;
        Ok(resp.body)
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Unique labelled pairs from three datasets, shuffled: citation
/// records (short), Walmart-Amazon products, Abt-Buy descriptions
/// (long).
fn pair_pool(seed: u64, needed: usize) -> Vec<(TextPair, bool)> {
    let sources = [
        DatasetId::DblpAcm,
        DatasetId::WalmartAmazon,
        DatasetId::AbtBuy,
    ];
    let full: usize = sources.iter().map(|d| d.table3_stats().0).sum();
    let scale = (needed as f64 * 1.2 / full as f64).min(1.0);
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for (k, id) in sources.iter().enumerate() {
        let ds = id.generate(scale, seed ^ (k as u64) << 32);
        for p in &ds.pairs {
            let pair = TextPair::new(ds.serialize_record(&p.a), ds.serialize_record(&p.b));
            if seen.insert((pair.left.clone(), pair.right.clone())) {
                pool.push((pair, p.label));
            }
        }
    }
    pool.shuffle(&mut StdRng::seed_from_u64(seed));
    pool
}

/// The request schedule: `count` requests drawing pairs from the pool
/// without repeats. The mix is fixed and only the texts follow the seed:
/// every fifth request carries 2..=8 pairs, sizes cycling, the rest one
/// pair. Spacing the batches evenly keeps the latency tail from
/// depending on how a seed happens to cluster them.
fn schedule(seed: u64, count: usize) -> Result<Vec<Req>, String> {
    let period = (1.0 / (1.0 - SINGLE_SHARE)).round() as usize;
    let sizes: Vec<usize> = (0..count)
        .map(|i| {
            if i % period == period - 1 {
                2 + (i / period) % (MAX_PAIRS - 1)
            } else {
                1
            }
        })
        .collect();
    let needed: usize = sizes.iter().sum();
    let mut pool = pair_pool(seed, needed).into_iter();
    sizes
        .into_iter()
        .map(|n| {
            let (pairs, labels): (Vec<_>, Vec<_>) = pool.by_ref().take(n).unzip();
            if pairs.len() < n {
                return Err(format!("pair pool ran out before {needed} pairs"));
            }
            let body = serde_json::to_string(&MatchRequest::batch(pairs.clone()))
                .map_err(|e| e.to_string())?;
            Ok(Req {
                pairs,
                labels,
                body,
            })
        })
        .collect()
}

/// Readings of the host's steal counter: (seconds since the window
/// opened, ticks), ascending in time.
type StealSamples = Vec<(f64, u64)>;

/// Send `reqs` on the open-loop schedule and collect every outcome,
/// reading the host's steal counter every [`STEAL_PERIOD`] meanwhile. A
/// wedged gateway cannot hold the run: each request times out after
/// [`REQUEST_TIMEOUT`], and requests due after the schedule has run
/// [`GIVE_UP`] late are counted as failed without being sent.
fn drive(addr: SocketAddr, reqs: &[Req]) -> (Vec<Outcome>, StealSamples) {
    let t0 = Instant::now() + Duration::from_millis(20);
    let give_up = t0 + Duration::from_secs_f64(reqs.len() as f64 / RATE) + GIVE_UP;
    let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let finished = AtomicBool::new(false);
    let (mut outcomes, steal): (Vec<(usize, Outcome)>, _) = std::thread::scope(|s| {
        // The last reading is taken after every request has ended, so
        // each request has a reading on both sides of it.
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            loop {
                let last = finished.load(Ordering::Acquire);
                match host::steal_ticks() {
                    Some(ticks) => samples.push((secs(Instant::now()), ticks)),
                    None => return Vec::new(),
                }
                if last {
                    return samples;
                }
                std::thread::sleep(STEAL_PERIOD);
            }
        });
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                s.spawn(move || {
                    let mut client =
                        HttpClient::connect(addr).expect("client for a parsed address");
                    client.timeout = REQUEST_TIMEOUT;
                    let mut out = Vec::new();
                    for i in (k..reqs.len()).step_by(CONNECTIONS) {
                        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let response = if sent < give_up {
                            client.post_json("/match", &reqs[i].body).ok()
                        } else {
                            None
                        };
                        let (status, body) =
                            response.map_or((0, String::new()), |r| (r.status, r.body));
                        let done = Instant::now();
                        out.push((
                            i,
                            Outcome {
                                due: secs(due),
                                sent: secs(sent),
                                done: secs(done),
                                status,
                                body,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        let outcomes = handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect();
        finished.store(true, Ordering::Release);
        (outcomes, sampler.join().expect("steal sampler panicked"))
    });
    outcomes.sort_by_key(|(i, _)| *i);
    (outcomes.into_iter().map(|(_, o)| o).collect(), steal)
}

/// Steal ticks between the last reading at or before each request's due
/// time and the first reading at or after its end: how much CPU the
/// host gave to other guests while the request was outstanding. The
/// hypervisor's share is not the program's, and on a small shared host
/// it sets a latency tail of its own, so the latency percentiles are
/// taken over the requests it touched least. All zeros when the host
/// has no steal counter.
fn steal_exposure(outcomes: &[Outcome], steal: &[(f64, u64)]) -> Vec<u64> {
    if steal.is_empty() {
        return vec![0; outcomes.len()];
    }
    let at_or_before = |t: f64| {
        let i = steal.partition_point(|&(s, _)| s <= t);
        steal[i.saturating_sub(1)].1
    };
    let at_or_after = |t: f64| {
        let i = steal.partition_point(|&(s, _)| s < t);
        steal[i.min(steal.len() - 1)].1
    };
    outcomes
        .iter()
        .map(|o| at_or_after(o.done).saturating_sub(at_or_before(o.due)))
        .collect()
}

/// One measured window: its requests, what came back, and checks.
struct Phase {
    sent: usize,
    ok: usize,
    ok_pairs: usize,
    /// Latency from the due time, ms; failed requests are +inf.
    latency_ms: Vec<f64>,
    /// Host steal ticks while each request was outstanding.
    steal_exposure: Vec<u64>,
    /// Host steal ticks over the whole window.
    steal_ticks: u64,
    late_ms: Vec<f64>,
    /// Client-observed service time (done − sent) per request, ms;
    /// `None` where it failed.
    service_ms: Vec<Option<f64>>,
    span_s: f64,
    decisions: Vec<bool>,
    labels: Vec<bool>,
    matched: usize,
    cpu_s: f64,
}

fn measure(
    gw: &Gateway,
    reqs: &[Req],
    oracle: &FrozenMatcher,
    report: &mut Report,
) -> Result<Phase, String> {
    let cpu0 = host::cpu_seconds("self").zip(host::cpu_seconds(&gw.pid()));
    let (outcomes, steal) = drive(gw.addr, reqs);
    let cpu1 = host::cpu_seconds("self").zip(host::cpu_seconds(&gw.pid()));
    let cpu_s = cpu0
        .zip(cpu1)
        .map_or(0.0, |((a0, b0), (a1, b1))| (a1 - a0) + (b1 - b0));

    let mut phase = Phase {
        sent: outcomes.len(),
        ok: 0,
        ok_pairs: 0,
        latency_ms: Vec::new(),
        steal_exposure: steal_exposure(&outcomes, &steal),
        steal_ticks: match (steal.first(), steal.last()) {
            (Some(a), Some(b)) => b.1.saturating_sub(a.1),
            _ => 0,
        },
        late_ms: Vec::new(),
        service_ms: Vec::new(),
        span_s: outcomes.iter().map(|o| o.done).fold(0.0, f64::max),
        decisions: Vec::new(),
        labels: Vec::new(),
        matched: 0,
        cpu_s,
    };
    let mut malformed = Vec::new();
    let mut oracle_worst = 0.0f32;
    let mut oracle_checked = 0usize;
    let every = (reqs.len() / ORACLE_SAMPLE).max(1);
    for (i, (req, o)) in reqs.iter().zip(&outcomes).enumerate() {
        phase.late_ms.push((o.sent - o.due) * 1e3);
        let parsed = (o.status == 200)
            .then(|| serde_json::from_str::<MatchResponse>(&o.body).ok())
            .flatten();
        let Some(resp) = parsed else {
            phase.latency_ms.push(f64::INFINITY);
            phase.service_ms.push(None);
            continue;
        };
        let aligned = resp.count == req.pairs.len() && resp.results.len() == req.pairs.len();
        if !aligned || resp.results.iter().any(|r| r.is_match != (r.score > 0.5)) {
            malformed.push(i);
            phase.latency_ms.push(f64::INFINITY);
            phase.service_ms.push(None);
            continue;
        }
        phase.ok += 1;
        phase.ok_pairs += req.pairs.len();
        phase.latency_ms.push((o.done - o.due) * 1e3);
        phase.service_ms.push(Some((o.done - o.sent) * 1e3));
        for (r, &label) in resp.results.iter().zip(&req.labels) {
            phase.decisions.push(r.is_match);
            phase.labels.push(label);
            phase.matched += usize::from(r.is_match);
        }
        if i % every == 0 {
            // Every pair of the sampled request, by index: a response
            // out of request order fails here.
            for (pair, r) in req.pairs.iter().zip(&resp.results) {
                let enc = encode_pair(
                    &oracle.tokenizer,
                    &pair.left,
                    &pair.right,
                    oracle.max_len,
                    oracle.cls_position(),
                );
                let want = oracle.score_encodings(&[enc])[0];
                oracle_worst = oracle_worst.max((want - r.score).abs());
                oracle_checked += 1;
            }
        }
    }
    report.check(
        "HTTP 200 bodies are index-aligned with their requests",
        malformed.is_empty(),
        || {
            format!(
                "{} malformed responses, first request {:?}",
                malformed.len(),
                malformed.first()
            )
        },
    );
    report.check(
        "served scores equal FrozenMatcher::score_encodings within 1e-5 (sampled)",
        oracle_checked > 0 && oracle_worst <= 1e-5,
        || format!("{oracle_checked} pairs, max deviation {oracle_worst}"),
    );
    report.attempted += phase.sent as u64;
    report.failed += (phase.sent - phase.ok) as u64;
    Ok(phase)
}

/// F1 of the served decisions against the pairs' labels.
fn f1(phase: &Phase) -> f64 {
    PrF1::from_predictions(&phase.decisions, &phase.labels).f1()
}

/// Open-loop honesty: what was sent, what came back, how late the
/// generator ran.
fn record_open_loop_facts(phase: &Phase, label: &str, report: &mut Report) {
    let mut late = phase.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let facts = vec![
        ("offered_rps".to_string(), Value::Float(RATE)),
        ("sent".into(), Value::UInt(phase.sent as u64)),
        ("ok".into(), Value::UInt(phase.ok as u64)),
        ("failed".into(), Value::UInt((phase.sent - phase.ok) as u64)),
        ("ok_pairs".into(), Value::UInt(phase.ok_pairs as u64)),
        ("host_steal_ticks".into(), Value::UInt(phase.steal_ticks)),
        (
            "steal_free_requests".into(),
            Value::UInt(phase.steal_exposure.iter().filter(|&&e| e == 0).count() as u64),
        ),
        (
            "generator_late_p99_ms".into(),
            percentile(&late, 0.99).map_or(Value::Null, Value::Float),
        ),
        (
            "match_rate".into(),
            Value::Float(phase.matched as f64 / phase.ok_pairs.max(1) as f64),
        ),
        ("f1".into(), Value::Float(f1(phase))),
    ];
    report.fact(label, Value::Object(facts));
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let (gw, setup_s) = timed_setups(|| Gateway::spawn(opts))?;
    report.metric("setup_s", setup_s);

    let per_window = (RATE * opts.seconds.as_secs_f64()).ceil() as usize;
    let warmup = (RATE * WARMUP.as_secs_f64()) as usize;
    // The traced window is twice as long: small batches at this rate
    // need it for a p99 over forwards.
    let traced_window = if opts.trace { 2 * per_window } else { 0 };
    let mut reqs = schedule(opts.seed, warmup + per_window + traced_window)?;
    let oracle = model::gateway_default();

    let measured = reqs.split_off(warmup);
    drive(gw.addr, &reqs);
    let (plain_reqs, traced_reqs) = measured.split_at(per_window);
    let plain = measure(&gw, plain_reqs, &oracle, report)?;
    record_open_loop_facts(&plain, "plain", report);

    if !opts.trace {
        // Over the requests the host's steal left alone (failed ones
        // count as misses), split into consecutive stretches, each with
        // its own p99 tail: the median p50 and the least disturbed
        // stretch's p99, so a stretch disturbed in a way the steal
        // counter does not show cannot set the figure either.
        let latency = least_exposed(&plain.latency_ms, &plain.steal_exposure, LATENCY_SAMPLES);
        let groups = consecutive_groups(&latency, LATENCY_SAMPLES);
        let thin = || "too few requests for the percentile".to_string();
        let p50 = median_percentile(&groups, 0.5).ok_or_else(thin)?;
        let p99 = lowest_percentile(&groups, 0.99).ok_or_else(thin)?;
        report.metric(
            "throughput_pairs_per_s",
            plain.ok_pairs as f64 / plain.span_s,
        );
        report.percentile("p50_ms", p50, groups[0].len());
        report.percentile("p99_ms", p99, groups[0].len());
        report.fact("latency_groups", Value::UInt(groups.len() as u64));
        report.metric("ok_frac", plain.ok as f64 / plain.sent.max(1) as f64);
        report.metric("peak_rss_mib", host::peak_rss_mib(&gw.pid()).unwrap_or(0.0));
        return Ok(());
    }

    let before = gw.metrics()?;
    let traced = measure(&gw, traced_reqs, &oracle, report)?;
    record_open_loop_facts(&traced, "traced", report);
    let after = gw.metrics()?;
    let server = server_layers(&before, &after, &traced, report)?;
    report.metric("quality.f1", f1(&traced));

    let mean_latency = |p: &Phase| {
        mean(
            &p.latency_ms
                .iter()
                .copied()
                .filter(|l| l.is_finite())
                .collect::<Vec<_>>(),
        )
    };
    report.metric(
        "tracing_overhead_frac",
        mean_latency(&traced) / mean_latency(&plain) - 1.0,
    );
    report.metric(
        "cpu_s_per_kpair",
        plain.cpu_s / plain.ok_pairs.max(1) as f64 * 1000.0,
    );
    let mut late = traced.late_ms.clone();
    late.sort_by(f64::total_cmp);
    report.percentile(
        "loadgen.late_p99_ms",
        percentile(&late, 0.99).ok_or("too few requests for the percentile")?,
        late.len(),
    );

    // Client-side costs of the gateway's own steps on this traffic.
    let parse_passes: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for r in traced_reqs {
                let req: MatchRequest = serde_json::from_str(std::hint::black_box(&r.body))
                    .expect("the generator's bodies parse");
                std::hint::black_box(req.validate().is_ok());
            }
            t.elapsed().as_secs_f64() / traced_reqs.len() as f64 * 1e6
        })
        .collect();
    let parse_us = median(&parse_passes);
    report.metric("gateway.parse_us", parse_us);

    let texts: Vec<(&str, &str)> = traced_reqs
        .iter()
        .flat_map(|r| r.pairs.iter().map(|p| (p.left.as_str(), p.right.as_str())))
        .take(2000)
        .collect();
    let local = ServeMatcher::start(
        oracle.clone(),
        ServeConfig::builder()
            .workers(1)
            .build()
            .expect("one worker is valid"),
    );
    let (tok_us, seq) =
        tokenize_and_forward(&local, &oracle, &texts, server.pairs_per_batch, report);
    drop(local);
    // Fill against the capacity of the dominant length bucket under the
    // gateway's defaults (`--batch 16 --max-len 64`): /metrics carries
    // batch sizes but not each batch's bucket.
    let gateway_cfg = ServeConfig::builder()
        .max_batch(16)
        .build()
        .expect("gateway defaults");
    let capacity = gateway_cfg.bucket_capacity(model::MAX_LEN, seq.max(1));
    report.metric("serve.batch_fill", server.pairs_per_batch / capacity as f64);

    // What share of the server's time no layer explains, per pair: a
    // request's pairs wait for all of its pairs, and its tokenization is
    // sequential, so both sides are weighted by pairs per request. The
    // server time of a request is its client service time less the mean
    // client gap; the explained part is parse, tokenize and the matcher's
    // own end-to-end time (queue, batch, forward, reply).
    let (mut server_s, mut tok_weight, mut pairs) = (0.0, 0.0, 0.0);
    for (req, service_ms) in traced_reqs.iter().zip(&traced.service_ms) {
        let Some(ms) = service_ms else { continue };
        let n = req.pairs.len() as f64;
        server_s += (ms - server.gap_ms) / 1e3 * n;
        tok_weight += n * n;
        pairs += n;
    }
    let server_per_pair = server_s / pairs.max(1.0);
    let explained =
        parse_us * 1e-6 + tok_us * 1e-6 * tok_weight / pairs.max(1.0) + server.e2e_mean_s;
    report.metric("unattributed_frac", 1.0 - explained / server_per_pair);
    report.fill_not_on_path();
    Ok(())
}

/// Server-side means the attribution needs.
struct ServerTimes {
    /// Mean client service time less mean server request time.
    gap_ms: f64,
    e2e_mean_s: f64,
    pairs_per_batch: f64,
}

/// The gateway's and matcher's own instruments over the traced window,
/// read as deltas of two `/metrics` scrapes.
fn server_layers(
    before: &str,
    after: &str,
    traced: &Phase,
    report: &mut Report,
) -> Result<ServerTimes, String> {
    let hist =
        |name: &str| PromHistogram::parse(after, name).since(&PromHistogram::parse(before, name));
    let counter = |series: &str| {
        let read = |body: &str| {
            body.lines()
                .find_map(|l| {
                    l.strip_prefix(series)?
                        .strip_prefix(' ')?
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
                .unwrap_or(0.0)
        };
        read(after) - read(before)
    };
    let ms = |h: &PromHistogram, name: &str, q: f64| {
        h.quantile(q)
            .map(|v| v * 1e3)
            .ok_or(format!("too few {name} samples for the percentile"))
    };
    let request = hist("gateway_request_seconds");
    report.percentile(
        "gateway.server_p50_ms",
        ms(&request, "request", 0.5)?,
        request.count as usize,
    );
    report.percentile(
        "gateway.server_p99_ms",
        ms(&request, "request", 0.99)?,
        request.count as usize,
    );
    let service: Vec<f64> = traced.service_ms.iter().flatten().copied().collect();
    let gap_ms = mean(&service) - request.mean() * 1e3;
    report.metric("gateway.client_gap_ms", gap_ms);
    let queue = hist("serve_queue_wait");
    let batch_wait = hist("serve_batch_wait");
    let forward = hist("serve_forward");
    let sizes = hist("serve_batch_size");
    report.percentile(
        "serve.queue_wait_p99_ms",
        ms(&queue, "queue_wait", 0.99)?,
        queue.count as usize,
    );
    report.percentile(
        "serve.batch_wait_p50_ms",
        ms(&batch_wait, "batch_wait", 0.5)?,
        batch_wait.count as usize,
    );
    report.percentile(
        "serve.forward_p50_ms",
        ms(&forward, "forward", 0.5)?,
        forward.count as usize,
    );
    report.percentile(
        "serve.forward_p99_ms",
        ms(&forward, "forward", 0.99)?,
        forward.count as usize,
    );
    let pairs_per_batch = sizes.mean();
    report.metric("serve.pairs_per_batch", pairs_per_batch);
    report.metric("serve.shed", counter("serve_shed"));
    report.metric(
        "serve.timeouts",
        counter("gateway_match_errors{code=\"timeout\"}"),
    );
    report.metric("serve.retries", counter("serve_retries"));
    report.metric("serve.worker_restarts", counter("serve_worker_restarts"));
    report.metric(
        "serve.match_rate",
        traced.matched as f64 / traced.ok_pairs.max(1) as f64,
    );
    report.metric(
        "forward.us_per_pair",
        forward.sum / sizes.sum.max(1.0) * 1e6,
    );
    let hits = counter("serve_plan_cache_hits");
    let misses = counter("serve_plan_cache_misses");
    report.metric("graph.plan_cache_hit_rate", hits / (hits + misses).max(1.0));
    Ok(ServerTimes {
        gap_ms,
        e2e_mean_s: hist("serve_e2e").mean(),
        pairs_per_batch,
    })
}
