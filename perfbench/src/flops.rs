//! Arithmetic done by one encoder forward, counted from the geometry.
//!
//! Only the matrix products are counted (two FLOPs per multiply-add):
//! the QKV, output and feed-forward projections, the two attention
//! products and the classifier. Embedding lookups, norms, softmax and
//! activations are memory-bound and left out, so a GFLOP/s figure built
//! on this count is a lower bound on the work the forward does.

use em_transformers::TransformerConfig;

/// FLOPs of one forward over a `batch × seq` padded batch.
pub fn forward_flops(cfg: &TransformerConfig, batch: usize, seq: usize) -> f64 {
    let (b, t) = (batch as f64, seq as f64);
    let (h, inner) = (cfg.hidden as f64, cfg.inner as f64);
    let rows = b * t;
    let projections = 2.0 * rows * h * (3.0 * h) // fused QKV
        + 2.0 * rows * h * h // attention output
        + 2.0 * rows * h * inner * 2.0; // FFN up and down
                                        // Scores (T×dh · dh×T) and context (T×T · T×dh) per head; the heads
                                        // together span the hidden width.
    let attention = 2.0 * 2.0 * b * t * t * h;
    let classifier = 2.0 * b * h * 2.0;
    cfg.layers as f64 * (projections + attention) + classifier
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_transformers::Architecture;

    #[test]
    fn matches_a_hand_count_of_every_product() {
        let mut cfg = TransformerConfig::small(Architecture::Bert, 100);
        cfg.hidden = 4;
        cfg.heads = 2;
        cfg.inner = 8;
        cfg.layers = 1;
        // batch 2, seq 8: every GEMM as 2·m·k·n.
        let gemm = |m: f64, k: f64, n: f64| 2.0 * m * k * n;
        let rows = 16.0;
        let per_head = gemm(8.0, 2.0, 8.0) + gemm(8.0, 8.0, 2.0);
        let hand = gemm(rows, 4.0, 12.0) // QKV
            + 2.0 * 2.0 * per_head // batch × heads
            + gemm(rows, 4.0, 4.0) // output projection
            + gemm(rows, 4.0, 8.0) // FFN up
            + gemm(rows, 8.0, 4.0) // FFN down
            + gemm(2.0, 4.0, 2.0); // classifier on the CLS rows
        assert_eq!(hand, 6176.0);
        assert_eq!(forward_flops(&cfg, 2, 8), hand);
        cfg.layers = 3;
        assert_eq!(forward_flops(&cfg, 2, 8), 3.0 * (hand - 32.0) + 32.0);
    }
}
