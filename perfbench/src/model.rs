//! The matcher the `em-gateway` binary serves with its default flags,
//! rebuilt in-process as the score oracle and as dedup-serve's scorer.
//!
//! The recipe mirrors `crates/gateway/src/main.rs` without `--smoke`,
//! `--checkpoint` or `--quant`: a randomly initialised small BERT over a
//! tokenizer trained on the synthetic product corpus. If the two drift
//! apart, match-http's score check fails.

use em_core::train_tokenizer;
use em_serve::{freeze_parts, FrozenMatcher};
use em_tokenizers::Tokenizer;
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `--seed` default of the gateway binary: it fixes the weights, not
/// the workload.
pub const MODEL_SEED: u64 = 42;
/// `--max-len` default of the gateway binary.
pub const MAX_LEN: usize = 64;

/// The gateway's default model, frozen.
pub fn gateway_default() -> FrozenMatcher {
    let arch = Architecture::Bert;
    let corpus = em_data::generate_corpus(200, MODEL_SEED);
    let tokenizer = train_tokenizer(arch, &corpus, 400);
    let mut cfg = TransformerConfig::small(arch, tokenizer.vocab_size());
    cfg.max_position = cfg.max_position.max(MAX_LEN);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, MODEL_SEED);
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    freeze_parts(&model, &head, tokenizer, MAX_LEN)
}
