//! Tests of the one frozen forward: it reproduces the autograd logits to
//! 1e-5 on all four architectures (XLNet's relative position bias and
//! last-position CLS included) over ragged batches, a workspace already
//! dirtied by a larger batch gives bit-identical results to a fresh one
//! in every weight representation, and the serving pool scores exactly
//! what the direct path scores while reusing its workspaces.

use em_core::train_tokenizer;
use em_nn::Ctx;
use em_serve::{freeze_parts, FrozenMatcher, QuantMode, ServeConfig, ServeMatcher, ServeStats};
use em_tensor::no_grad;
use em_tokenizers::Encoding;
use em_transformers::{
    Architecture, Batch, ClassificationHead, TransformerConfig, TransformerModel,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 50;

const ARCHS: [Architecture; 4] = [
    Architecture::Bert,
    Architecture::Xlnet,
    Architecture::Roberta,
    Architecture::DistilBert,
];

fn tiny_model(arch: Architecture, seed: u64) -> (TransformerModel, ClassificationHead) {
    let mut cfg = TransformerConfig::tiny(arch, VOCAB);
    // Four heads and room for 40 tokens: past t = 3·hidden/heads = 24
    // the score tensor outgrows the QKV slot it takes over, so batches
    // cover both workspace regimes.
    cfg.heads = 4;
    cfg.max_position = 64;
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ead);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    (model, head)
}

/// A random well-formed encoding of `min..=max` real tokens (no
/// padding): CLS at the architecture's position, random segment split.
fn random_encoding(rng: &mut StdRng, arch: Architecture, min: usize, max: usize) -> Encoding {
    let real = rng.gen_range(min.max(3)..=max);
    let ids: Vec<u32> = (0..real).map(|_| rng.gen_range(1..VOCAB as u32)).collect();
    let split = rng.gen_range(1..real);
    let segments: Vec<u8> = (0..real).map(|i| u8::from(i >= split)).collect();
    let cls_index = match arch {
        Architecture::Xlnet => real - 1,
        _ => 0,
    };
    Encoding {
        ids,
        segments,
        mask: vec![1u8; real],
        cls_index,
        pad_id: 0,
    }
}

fn ragged(rng: &mut StdRng, arch: Architecture, n: usize, max_len: usize) -> Vec<Encoding> {
    (0..n)
        .map(|_| random_encoding(rng, arch, 3, max_len))
        .collect()
}

fn tiny_frozen_matcher(arch: Architecture, seed: u64, max_len: usize) -> FrozenMatcher {
    let (model, head) = tiny_model(arch, seed);
    let corpus = em_data::generate_corpus(30, seed);
    let tok = train_tokenizer(arch, &corpus, 200);
    freeze_parts(&model, &head, tok, max_len)
}

/// Autograd-path logits for a batch, exactly as `EmMatcher` computes them.
fn autograd_logits(
    model: &TransformerModel,
    head: &ClassificationHead,
    batch: &Batch,
) -> em_tensor::Array {
    no_grad(|| {
        let mut ctx = Ctx::eval();
        let hidden = model.forward(batch, None, None, &mut ctx);
        let pooled = model.pooled_states(&hidden, batch);
        head.forward(&pooled, &mut ctx).value()
    })
}

/// Frozen logits vs autograd within 1e-5 on a ragged (padded) batch.
fn assert_frozen_matches_autograd(arch: Architecture, seed: u64) {
    let (model, head) = tiny_model(arch, seed);
    let max_len = 40;
    let corpus = em_data::generate_corpus(30, seed);
    let matcher = freeze_parts(&model, &head, train_tokenizer(arch, &corpus, 200), max_len);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(47).wrapping_add(13));
    let batch = Batch::from_encodings(&ragged(&mut rng, arch, 4, max_len));
    let want = autograd_logits(&model, &head, &batch);
    let got = matcher.logits(&batch);
    assert_eq!(want.shape(), got.shape());
    for (i, (w, g)) in want.data().iter().zip(got.data()).enumerate() {
        assert!(
            (w - g).abs() < 1e-5,
            "{} logit {i}: autograd {w} vs frozen {g}",
            arch.name()
        );
    }
}

/// Logits of `batch` on a thread whose workspace has never been used.
fn fresh_workspace_logits(matcher: &FrozenMatcher, batch: &Batch) -> Vec<f32> {
    std::thread::scope(|s| {
        s.spawn(|| matcher.logits(batch).into_vec())
            .join()
            .expect("fresh-workspace forward")
    })
}

/// A workspace already grown and filled by a longer, larger batch of a
/// different model gives bit-identical logits to a fresh one: every
/// element a stage reads is written earlier in the same forward, so the
/// shared, never-zeroed layout leaks nothing between forwards.
fn assert_dirty_workspace_is_bit_equal(arch: Architecture, seed: u64) {
    let max_len = 40;
    let matcher = tiny_frozen_matcher(arch, seed, max_len);
    let other = tiny_frozen_matcher(arch, seed ^ 0xd1, max_len);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(91).wrapping_add(5));
    let small = Batch::from_encodings(&ragged(&mut rng, arch, 3, 14));
    let big: Vec<Encoding> = (0..7)
        .map(|_| random_encoding(&mut rng, arch, 17, max_len))
        .collect();
    let big = Batch::from_encodings(&big);
    for mode in [QuantMode::F32, QuantMode::F16, QuantMode::Int8] {
        let q = matcher.quantize(mode);
        let want = fresh_workspace_logits(&q, &small);
        std::thread::scope(|s| {
            s.spawn(|| {
                other.quantize(mode).logits(&big);
                assert_eq!(
                    q.logits(&small).into_vec(),
                    want,
                    "{} {mode}: dirty workspace changed the logits",
                    arch.name()
                );
            });
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn frozen_matches_autograd_bert(seed in 0u64..10_000) {
        assert_frozen_matches_autograd(Architecture::Bert, seed);
    }

    #[test]
    fn frozen_matches_autograd_xlnet(seed in 0u64..10_000) {
        assert_frozen_matches_autograd(Architecture::Xlnet, seed);
    }

    #[test]
    fn frozen_matches_autograd_roberta(seed in 0u64..10_000) {
        assert_frozen_matches_autograd(Architecture::Roberta, seed);
    }

    #[test]
    fn frozen_matches_autograd_distilbert(seed in 0u64..10_000) {
        assert_frozen_matches_autograd(Architecture::DistilBert, seed);
    }

    #[test]
    fn dirty_workspace_is_bit_equal_bert(seed in 0u64..10_000) {
        assert_dirty_workspace_is_bit_equal(Architecture::Bert, seed);
    }

    #[test]
    fn dirty_workspace_is_bit_equal_xlnet(seed in 0u64..10_000) {
        assert_dirty_workspace_is_bit_equal(Architecture::Xlnet, seed);
    }

    #[test]
    fn dirty_workspace_is_bit_equal_roberta(seed in 0u64..10_000) {
        assert_dirty_workspace_is_bit_equal(Architecture::Roberta, seed);
    }

    #[test]
    fn dirty_workspace_is_bit_equal_distilbert(seed in 0u64..10_000) {
        assert_dirty_workspace_is_bit_equal(Architecture::DistilBert, seed);
    }
}

/// Every public entry point runs the same forward: the hidden states of
/// `forward` and `forward_into` agree exactly, and `forward_into`
/// reports a reuse only when the workspace already fits the batch.
#[test]
fn forward_entry_points_agree_and_report_workspace_reuse() {
    let arch = Architecture::Bert;
    let matcher = tiny_frozen_matcher(arch, 8, 24);
    let model = &matcher.model;
    let mut rng = StdRng::seed_from_u64(8);
    let small = Batch::from_encodings(&ragged(&mut rng, arch, 2, 10));
    let large = Batch::from_encodings(&ragged(&mut rng, arch, 5, 24));
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut hidden = Vec::new();
            assert!(!model.forward_into(&small, &mut hidden), "cold workspace");
            assert!(model.forward_into(&small, &mut hidden), "same geometry");
            assert_eq!(model.forward(&small).into_vec(), hidden);
            assert!(!model.forward_into(&large, &mut hidden), "larger batch");
            assert!(model.forward_into(&small, &mut hidden), "smaller batch");
        });
    });
    // The workspace is the largest of the attention stage's six [b*t, d]
    // slots, split heads plus scores, and the two FFN outputs.
    let (b, t, d, h, inner) = (5, 24, 32, 4, 64);
    let want = (6 * b * t * d)
        .max(3 * b * t * d + b * h * t * t)
        .max(b * t * (inner + d));
    assert_eq!(model.workspace_len(b, t), want);
}

/// Served scores match the direct path within 1e-5 for every
/// architecture, over ragged requests coalesced by two workers.
#[test]
fn served_scores_match_direct_scores() {
    for arch in ARCHS {
        let max_len = 16;
        let matcher = tiny_frozen_matcher(arch, 55, max_len);
        let mut rng = StdRng::seed_from_u64(4242);
        let encodings = ragged(&mut rng, arch, 12, max_len);
        let cfg = ServeConfig::builder()
            .workers(2)
            .max_batch(4)
            .cache_capacity(0)
            .build()
            .unwrap();
        let served = ServeMatcher::start(matcher.clone(), cfg)
            .score_encodings(&encodings)
            .unwrap();
        for (i, (s, e)) in served.iter().zip(&encodings).enumerate() {
            let direct = matcher.score_encodings(std::slice::from_ref(e))[0];
            assert!(
                (s - direct).abs() <= 1e-5,
                "{} pair {i}: served {s} vs direct {direct}",
                arch.name()
            );
        }
    }
}

/// Once a worker has met its largest batch, every later batch reuses
/// its workspace: the steady-state reuse rate read from `ServeStats` is
/// exactly 1.0, and every scored batch is counted once.
#[test]
fn served_workspace_reuse_reaches_one() {
    let arch = Architecture::Bert;
    let max_len = 16;
    let matcher = tiny_frozen_matcher(arch, 56, max_len);
    let mut rng = StdRng::seed_from_u64(4243);
    let uniform: Vec<Encoding> = (0..12)
        .map(|_| random_encoding(&mut rng, arch, max_len, max_len))
        .collect();
    let cfg = ServeConfig::builder()
        .workers(1)
        .max_batch(4)
        .max_wait_ms(20)
        .cache_capacity(0)
        .build()
        .unwrap();
    let serve = ServeMatcher::start(matcher, cfg);
    // Warm until a whole pass grows nothing: the worker has then seen a
    // full batch at the one sequence length, the largest it can get.
    let mut warm = serve.stats();
    for _ in 0..8 {
        serve.score_encodings(&uniform).unwrap();
        let now = serve.stats();
        let grew = now.plan_cache_misses > warm.plan_cache_misses;
        warm = now;
        if !grew {
            break;
        }
    }
    assert!(warm.plan_cache_misses >= 1, "the cold worker grows once");
    serve.score_encodings(&uniform).unwrap();
    let fin = serve.stats();
    let steady = ServeStats {
        plan_cache_hits: fin.plan_cache_hits - warm.plan_cache_hits,
        plan_cache_misses: fin.plan_cache_misses - warm.plan_cache_misses,
        ..fin
    };
    assert!(steady.plan_cache_hits >= 3, "{steady:?}");
    assert_eq!(steady.plan_cache_hit_rate(), 1.0, "{steady:?}");
    assert_eq!(
        fin.plan_cache_hits + fin.plan_cache_misses,
        fin.batches,
        "one workspace probe per scored batch"
    );
}
