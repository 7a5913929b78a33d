//! `finetune`: one `fine_tune` call, the paper's Table 6 path.
//!
//! A randomly initialised small BERT (as the training bench uses) is
//! fine-tuned on a generated Abt-Buy split for a fixed number of epochs.
//! This is the only workload that runs em-tensor autograd and the
//! backward GEMMs, so a kernel change made for serving that slows
//! training shows here. The call's own length, not `--seconds`, sets
//! the measured window.

use crate::report::Report;
use crate::stats::{lowest_percentile, mean, median, median_percentile};
use crate::{host, timed_setups, Opts};
use em_core::{
    choose_max_len, encode_pairs, fine_tune, train_tokenizer, EmMatcher, FineTuneConfig,
};
use em_data::{Dataset, DatasetId, Split};
use em_serve::FrozenMatcher;
use em_tokenizers::{AnyTokenizer, Encoding, Tokenizer};
use em_transformers::{Architecture, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use std::time::Instant;

/// Share of the full Abt-Buy size generated.
const SCALE: f64 = 0.06;
const EPOCHS: usize = 3;
/// Input cap, as the gateway serves: Abt-Buy pairs run past it, so every
/// seed trains on the same padded length and the work per epoch does
/// not swing with the seed's length percentile.
const MAX_LEN_CAP: usize = 64;
/// Batch-1 scoring samples per latency group (a p99 with ten beyond
/// it), and the groups whose median is reported.
const LATENCY_GROUP: usize = 1000;
const LATENCY_GROUPS: usize = 5;

struct State {
    tokenizer: AnyTokenizer,
    cfg: TransformerConfig,
    model: TransformerModel,
    ds: Dataset,
    split: Split,
}

fn setup(seed: u64) -> State {
    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(200, seed);
    let tokenizer = train_tokenizer(arch, &corpus, 400);
    let cfg = TransformerConfig::small(arch, tokenizer.vocab_size());
    let model = TransformerModel::new(cfg.clone(), seed);
    let ds = DatasetId::AbtBuy.generate(SCALE, seed);
    let split = ds.split(&mut StdRng::seed_from_u64(seed));
    State {
        tokenizer,
        cfg,
        model,
        ds,
        split,
    }
}

fn ft_config(seed: u64) -> FineTuneConfig {
    FineTuneConfig {
        epochs: EPOCHS,
        batch_size: 16,
        lr: 1e-3,
        seed,
        max_len_cap: MAX_LEN_CAP,
        ..FineTuneConfig::default()
    }
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let (state, setup_s) = timed_setups(|| Ok(setup(opts.seed)))?;
    report.metric("setup_s", setup_s);
    let State {
        tokenizer,
        cfg,
        model,
        ds,
        split,
    } = state;
    let cpu0 = host::cpu_seconds("self");

    // Untraced pass: the end-to-end numbers (and, in a traced run, the
    // baseline the tracing overhead is measured against).
    em_obs::set_level(em_obs::LEVEL_OFF);
    let t0 = Instant::now();
    let (matcher, result) = fine_tune(
        model,
        tokenizer.clone(),
        &ds,
        &split.train,
        &split.test,
        &ft_config(opts.seed),
    );
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds("self").zip(cpu0).map(|(b, a)| b - a);
    let peak_rss = host::peak_rss_mib("self").unwrap_or(0.0);
    let pairs = (split.train.len() * EPOCHS) as f64;
    report.attempted = 1;
    report.fact("train_pairs", Value::UInt(split.train.len() as u64));
    report.fact("test_pairs", Value::UInt(split.test.len() as u64));
    report.fact("epochs", Value::UInt(EPOCHS as u64));
    report.fact("fine_tune_s", Value::Float(wall));
    let epochs: Vec<Value> = result
        .curve
        .iter()
        .skip(1)
        .map(|r| Value::Float(r.train_seconds))
        .collect();
    report.fact("epoch_train_s", Value::Array(epochs));
    let curve: Vec<Value> = result.curve.iter().map(|r| Value::Float(r.f1)).collect();
    report.fact("f1_percent_by_epoch", Value::Array(curve));

    let (test_enc, _) = encode_pairs(
        &ds,
        &split.test,
        &matcher.tokenizer,
        cfg.arch,
        matcher.max_len,
    );
    check_frozen_agrees(&matcher, &test_enc, report);
    report.check(
        "one curve point per epoch plus zero-shot",
        result.curve.len() == EPOCHS + 1,
        || format!("{} points", result.curve.len()),
    );

    if !opts.trace {
        // Table 6's quantity: training time per epoch, median over epochs.
        let epoch_s: Vec<f64> = result
            .curve
            .iter()
            .skip(1)
            .map(|r| r.train_seconds)
            .collect();
        report.metric(
            "throughput_pairs_per_s",
            split.train.len() as f64 / median(&epoch_s),
        );
        let lat = batch1_latencies_ms(&matcher, &test_enc);
        let groups: Vec<&[f64]> = lat.chunks(LATENCY_GROUP).collect();
        let thin = || "too few latency samples".to_string();
        let p50 = median_percentile(&groups, 0.5).ok_or_else(thin)?;
        let p99 = lowest_percentile(&groups, 0.99).ok_or_else(thin)?;
        report.percentile("p50_ms", p50, LATENCY_GROUP);
        report.percentile("p99_ms", p99, LATENCY_GROUP);
        report.metric("ok_frac", 1.0);
        report.metric("peak_rss_mib", peak_rss);
        return Ok(());
    }

    // Traced pass: the same call on a fresh model with em-obs spans on.
    em_obs::reset();
    em_obs::set_level(em_obs::LEVEL_AGGREGATE);
    let model = TransformerModel::new(cfg.clone(), opts.seed);
    let t1 = Instant::now();
    let (_, traced) = fine_tune(
        model,
        tokenizer.clone(),
        &ds,
        &split.train,
        &split.test,
        &ft_config(opts.seed),
    );
    let traced_wall = t1.elapsed().as_secs_f64();
    em_obs::set_level(em_obs::LEVEL_OFF);
    report.check(
        "traced run reproduces the F1 curve",
        same_curve(&result, &traced),
        || "curves differ".into(),
    );
    let span_s = |name: &str| em_obs::histogram_snapshot(name).map_or(0.0, |h| h.sum());
    let (fwd, bwd, step, eval) = (
        span_s("finetune/forward"),
        span_s("finetune/backward"),
        span_s("finetune/step"),
        span_s("eval"),
    );

    // encode_pairs as fine_tune calls it: train and test, at the chosen
    // input length.
    let cap = ft_config(opts.seed).max_len_cap.min(cfg.max_position);
    let max_len = choose_max_len(&ds, &split.train, &tokenizer, cap);
    let te = Instant::now();
    let (train_enc, _) = encode_pairs(&ds, &split.train, &tokenizer, cfg.arch, max_len);
    let (test_enc2, _) = encode_pairs(&ds, &split.test, &tokenizer, cfg.arch, max_len);
    let encode_s = te.elapsed().as_secs_f64();
    let encoded = (train_enc.len() + test_enc2.len()) as f64;
    let tokens: Vec<f64> = train_enc
        .iter()
        .chain(&test_enc2)
        .map(|e| e.real_span() as f64)
        .collect();

    report.metric("quality.f1", traced.final_f1 / 100.0);
    report.metric("finetune.encode_s", encode_s);
    report.metric("train.forward_s", fwd);
    report.metric("train.backward_s", bwd);
    report.metric("train.step_s", step);
    report.metric("finetune.eval_s", eval);
    report.metric("train.padding_eff", traced.padding_efficiency);
    report.metric("tokenize.us_per_pair", encode_s / encoded * 1e6);
    report.metric("tokenize.tokens_per_pair", mean(&tokens));
    report.metric("cpu_s_per_kpair", cpu.map_or(0.0, |c| c / pairs * 1000.0));
    report.metric("tracing_overhead_frac", traced_wall / wall - 1.0);
    let attributed = encode_s + fwd + bwd + step + eval;
    report.metric("unattributed_frac", 1.0 - attributed / traced_wall);
    report.fill_not_on_path();
    Ok(())
}

/// After fine-tuning, the frozen export must score every test pair as
/// the autograd model does.
fn check_frozen_agrees(matcher: &EmMatcher, test: &[Encoding], report: &mut Report) {
    let frozen = FrozenMatcher::from(matcher);
    let mut worst = 0.0f32;
    for e in test {
        let a = matcher.score_encodings(std::slice::from_ref(e))[0];
        let f = frozen.score_encodings(std::slice::from_ref(e))[0];
        worst = worst.max((a - f).abs());
    }
    report.check(
        "frozen scores equal autograd within 1e-5",
        worst <= 1e-5,
        || format!("max |autograd - frozen| = {worst}"),
    );
}

/// Batch-1 scoring latency of the tuned model over the test pairs,
/// cycling through them until every group is full.
fn batch1_latencies_ms(matcher: &EmMatcher, test: &[Encoding]) -> Vec<f64> {
    (0..LATENCY_GROUP * LATENCY_GROUPS)
        .map(|i| {
            let e = std::slice::from_ref(&test[i % test.len()]);
            let t = Instant::now();
            std::hint::black_box(matcher.score_encodings(std::hint::black_box(e)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn same_curve(a: &em_core::FineTuneResult, b: &em_core::FineTuneResult) -> bool {
    a.curve.len() == b.curve.len() && a.curve.iter().zip(&b.curve).all(|(x, y)| x.f1 == y.f1)
}
