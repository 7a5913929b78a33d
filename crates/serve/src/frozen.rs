//! Frozen model export: copy weights out of the `Rc`-based autograd graph
//! into plain `Vec<f32>` buffers and run an inference-only forward pass.
//!
//! The autograd [`TransformerModel`] cannot cross threads — its tensors are
//! `Rc` handles onto a single-threaded tape. A [`FrozenModel`] holds the
//! same weights as raw buffers (which are `Send + Sync`), so one model
//! behind an `Arc` serves any number of worker threads. The forward pass
//! computes the same function as the autograd eval path — same op order,
//! same layer-norm/softmax/GELU formulas — but through the shared
//! `em-kernels` crate: one register-blocked GEMM per projection with the
//! bias (and FC1's GELU) in the epilogue, the Q/K/V projections merged
//! into a single matrix product, K written pre-transposed, scale, bias,
//! mask and softmax in one pass over the scores, residual and layer norm
//! in one pass, and polynomial `exp`/`tanh` in softmax and GELU. Frozen
//! logits therefore reproduce autograd logits to within float-rounding —
//! the equivalence tests assert 1e-5 across all four architectures —
//! while running several times faster per example than the autograd
//! batch-1 path.
//!
//! There is one encoder forward ([`FrozenModel::forward_into`] and the
//! matcher methods all reach it). Its intermediates live in a grow-only
//! per-thread workspace, so a thread that keeps scoring batches no
//! larger than ones it has seen allocates nothing for them.

use std::sync::Arc;

use em_checkpoint::TensorBuf;
use em_core::EmMatcher;
use em_data::{Dataset, EntityPair};
use em_kernels::{
    attn_softmax_rows, dequantize_rows_i8, f16_dequantize, f16_quantize, gemm_nn, gemm_nn_act,
    gemm_nn_f16_act, gemm_nt_i8_dyn_act, layer_norm_rows, quantize_weights_i8,
    residual_layer_norm_rows, softmax_rows, Act,
};
use em_nn::Linear;
use em_tensor::Array;
use em_tokenizers::{encode_pair, AnyTokenizer, ClsPosition, Encoding};
use em_transformers::{
    Architecture, Batch, ClassificationHead, TransformerConfig, TransformerModel,
};

/// Numeric representation of a frozen model's linear weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Full-precision `f32` weights (the freezing default).
    F32,
    /// IEEE half-precision weights, widened to f32 inside the GEMM tile.
    F16,
    /// Symmetric per-output-row int8 weights with dynamic per-row
    /// activation quantization (integer dot, float epilogue).
    Int8,
}

impl QuantMode {
    /// Stable lowercase name (used in checkpoints, flags and metrics).
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::F32 => "f32",
            QuantMode::F16 => "f16",
            QuantMode::Int8 => "int8",
        }
    }

    /// Parse a [`QuantMode::name`] back.
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s {
            "f32" => Some(QuantMode::F32),
            "f16" => Some(QuantMode::F16),
            "int8" => Some(QuantMode::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for QuantMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The weight payload of one dense layer, in whichever representation
/// the model was quantized to. All variants hold [`TensorBuf`]s so a
/// checkpoint-loaded layer is a zero-copy view into the file mapping.
#[derive(Debug, Clone)]
pub(crate) enum Weights {
    /// `[in, out]` row-major f32 — the GEMM-ready layout.
    F32(TensorBuf),
    /// `[in, out]` row-major f16 bits; widened inside the kernel.
    F16(TensorBuf),
    /// Int8 with per-output-row scales. The codes are stored transposed
    /// (`[out, in]`, reduction-contiguous) so the integer dot product
    /// runs along cache lines, and because the scale is constant along
    /// the reduction axis the i32 accumulation is exact.
    Int8 {
        /// `[out, in]` int8 codes.
        qt: TensorBuf,
        /// `[out]` per-row dequantization scales.
        scales: TensorBuf,
    },
}

/// An inference-only dense layer: `y = x·W + b`, with `W` stored in any
/// [`QuantMode`] representation.
#[derive(Debug, Clone)]
pub struct FrozenLinear {
    pub(crate) w: Weights,
    pub(crate) b: Vec<f32>,
}

impl From<&Linear> for FrozenLinear {
    fn from(l: &Linear) -> Self {
        let w = l.w.value();
        FrozenLinear::from_f32(
            w.data().to_vec(),
            w.shape().to_vec(),
            l.b.value().into_vec(),
        )
    }
}

impl FrozenLinear {
    /// Build a full-precision layer from a `[in, out]` weight buffer.
    pub fn from_f32(w: Vec<f32>, shape: Vec<usize>, b: Vec<f32>) -> FrozenLinear {
        assert_eq!(shape.len(), 2, "linear weights must be 2-D");
        assert_eq!(b.len(), shape[1], "bias length must match out features");
        FrozenLinear {
            w: Weights::F32(TensorBuf::from_f32(w, shape)),
            b,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        match &self.w {
            Weights::F32(t) | Weights::F16(t) => t.shape()[0],
            Weights::Int8 { qt, .. } => qt.shape()[1],
        }
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        match &self.w {
            Weights::F32(t) | Weights::F16(t) => t.shape()[1],
            Weights::Int8 { qt, .. } => qt.shape()[0],
        }
    }

    /// Representation the weights are currently stored in.
    pub fn mode(&self) -> QuantMode {
        match &self.w {
            Weights::F32(_) => QuantMode::F32,
            Weights::F16(_) => QuantMode::F16,
            Weights::Int8 { .. } => QuantMode::Int8,
        }
    }

    /// Weight + bias + scale bytes actually resident for this layer.
    pub fn weight_bytes(&self) -> usize {
        let w = match &self.w {
            Weights::F32(t) | Weights::F16(t) => t.byte_len(),
            Weights::Int8 { qt, scales } => qt.byte_len() + scales.byte_len(),
        };
        w + self.b.len() * 4
    }

    /// The weights widened back to a dense `[in, out]` f32 buffer.
    fn dense(&self) -> Vec<f32> {
        let (k, n) = (self.in_features(), self.out_features());
        match &self.w {
            Weights::F32(t) => t.as_f32().to_vec(),
            Weights::F16(t) => f16_dequantize(t.as_u16()),
            Weights::Int8 { qt, scales } => {
                // Stored [n, k]; dequantize then transpose back to [k, n].
                let wt = dequantize_rows_i8(qt.as_i8(), k, scales.as_f32());
                let mut w = vec![0.0f32; k * n];
                for j in 0..n {
                    for p in 0..k {
                        w[p * n + j] = wt[j * k + p];
                    }
                }
                w
            }
        }
    }

    /// Re-encode the weights in `mode`. Quantization always restarts
    /// from the widened dense form, so converting f32 → int8 → f16
    /// never compounds int8 error into the f16 encoding.
    pub fn quantize(&self, mode: QuantMode) -> FrozenLinear {
        if mode == self.mode() {
            return self.clone();
        }
        let (k, n) = (self.in_features(), self.out_features());
        let dense = self.dense();
        let w = match mode {
            QuantMode::F32 => Weights::F32(TensorBuf::from_f32(dense, vec![k, n])),
            QuantMode::F16 => Weights::F16(TensorBuf::from_u16(f16_quantize(&dense), vec![k, n])),
            QuantMode::Int8 => {
                // Transpose to [n, k] so each output row is contiguous,
                // then quantize per output row.
                let mut wt = vec![0.0f32; n * k];
                for p in 0..k {
                    for j in 0..n {
                        wt[j * k + p] = dense[p * n + j];
                    }
                }
                let mut qt = vec![0i8; n * k];
                let mut scales = vec![0.0f32; n];
                // ±63 codes: the range the integer GEMM's i16 intermediate
                // is saturation-proof for (see em-kernels::quantize_weights_i8).
                quantize_weights_i8(&wt, k, &mut qt, &mut scales);
                Weights::Int8 {
                    qt: TensorBuf::from_i8(qt, vec![n, k]),
                    scales: TensorBuf::from_f32(scales, vec![n]),
                }
            }
        };
        FrozenLinear {
            w,
            b: self.b.clone(),
        }
    }

    /// Apply to `[.., in]` input, preserving the leading shape.
    pub fn forward(&self, x: &Array) -> Array {
        let (k, n) = (self.in_features(), self.out_features());
        assert_eq!(
            x.shape().last().copied(),
            Some(k),
            "input width must match in features"
        );
        let rows = x.len() / k;
        let mut out = vec![0.0f32; rows * n];
        self.forward_flat(x.data(), &mut out, rows);
        let mut shape = x.shape().to_vec();
        *shape.last_mut().unwrap() = n;
        Array::from_vec(out, shape)
    }

    /// Apply to `rows` flat row-major input rows through the kernel
    /// matching the stored representation.
    pub(crate) fn forward_flat(&self, x: &[f32], out: &mut [f32], rows: usize) {
        self.forward_flat_act(x, out, rows, Act::None);
    }

    /// [`FrozenLinear::forward_flat`] with an elementwise epilogue fused
    /// into the GEMM tile loop — every representation (f32, f16, int8)
    /// applies `act` per register block, so FC1's `Linear+GELU` stays
    /// quant-aware with no extra pass.
    pub(crate) fn forward_flat_act(&self, x: &[f32], out: &mut [f32], rows: usize, act: Act) {
        let (k, n) = (self.in_features(), self.out_features());
        match &self.w {
            Weights::F32(t) => gemm_nn_act(x, t.as_f32(), Some(&self.b), out, rows, k, n, act),
            Weights::F16(t) => gemm_nn_f16_act(x, t.as_u16(), Some(&self.b), out, rows, k, n, act),
            Weights::Int8 { qt, scales } => gemm_nt_i8_dyn_act(
                x,
                qt.as_i8(),
                scales.as_f32(),
                Some(&self.b),
                out,
                rows,
                k,
                n,
                act,
            ),
        }
    }
}

/// Inference-only layer norm parameters.
#[derive(Debug, Clone)]
pub(crate) struct FrozenNorm {
    pub(crate) gamma: Vec<f32>,
    pub(crate) beta: Vec<f32>,
    pub(crate) eps: f32,
}

impl FrozenNorm {
    fn from_norm(n: &em_nn::LayerNorm) -> Self {
        Self {
            gamma: n.gamma.value().into_vec(),
            beta: n.beta.value().into_vec(),
            eps: n.eps,
        }
    }

    fn forward_flat(&self, x: &mut [f32]) {
        layer_norm_rows(x, &self.gamma, &self.beta, self.eps);
    }

    /// `x = norm(x + add)`, row by row in one pass.
    fn residual_forward_flat(&self, x: &mut [f32], add: &[f32]) {
        residual_layer_norm_rows(x, add, &self.gamma, &self.beta, self.eps);
    }
}

/// Inference-only input embedding block (token + position + segment + norm).
/// Tables stay f32 in every quant mode — they are gathered row-by-row,
/// never multiplied, so shrinking them buys little and costs accuracy.
#[derive(Debug, Clone)]
pub(crate) struct FrozenEmbeddings {
    pub(crate) token: TensorBuf,
    pub(crate) position: Option<TensorBuf>,
    pub(crate) segment: Option<TensorBuf>,
    pub(crate) norm: FrozenNorm,
}

impl FrozenEmbeddings {
    /// Mirror of `InputEmbeddings::forward` in eval mode (no dropout, no
    /// blanking — blanking is a pre-training-only concern), into the
    /// flat `[b*t, d]` hidden-state buffer the encoder stack works in.
    /// The buffer is resized, not zeroed (the token gather overwrites
    /// every element), so a reused buffer makes this allocation-free.
    fn forward_into(&self, ids: &[Vec<usize>], segments: &[Vec<usize>], x: &mut Vec<f32>) {
        let b = ids.len();
        let t = ids.first().map_or(0, Vec::len);
        let d = self.norm.gamma.len();
        let vocab = self.token.shape()[0];
        let token = self.token.as_f32();
        x.resize(b * t * d, 0.0);
        let x = &mut x[..];
        for (bi, row) in ids.iter().enumerate() {
            for (ti, &id) in row.iter().enumerate() {
                assert!(id < vocab, "token id {id} out of range {vocab}");
                x[(bi * t + ti) * d..(bi * t + ti + 1) * d]
                    .copy_from_slice(&token[id * d..(id + 1) * d]);
            }
        }
        if let Some(pos) = &self.position {
            assert!(
                t <= pos.shape()[0],
                "sequence length {t} exceeds the position table ({})",
                pos.shape()[0]
            );
            let pd = pos.as_f32();
            for bi in 0..b {
                for ti in 0..t {
                    let dst = &mut x[(bi * t + ti) * d..(bi * t + ti + 1) * d];
                    for (v, &p) in dst.iter_mut().zip(&pd[ti * d..(ti + 1) * d]) {
                        *v += p;
                    }
                }
            }
        }
        if let Some(seg) = &self.segment {
            let max = seg.shape()[0] - 1;
            let sd = seg.as_f32();
            for (bi, row) in segments.iter().enumerate() {
                for (ti, &s) in row.iter().enumerate() {
                    let sid = s.min(max);
                    let dst = &mut x[(bi * t + ti) * d..(bi * t + ti + 1) * d];
                    for (v, &p) in dst.iter_mut().zip(&sd[sid * d..(sid + 1) * d]) {
                        *v += p;
                    }
                }
            }
        }
        self.norm.forward_flat(x);
    }
}

/// Elements of layer workspace one forward of `b` sequences of length
/// `t` needs: the largest of the attention stage's six `[b*t, d]` slots,
/// the split heads plus the score tensor, and the two FFN outputs. See
/// [`FrozenLayer::forward_flat`] for how the stages share it.
fn layer_workspace_len(b: usize, t: usize, d: usize, heads: usize, inner: usize) -> usize {
    let rd = b * t * d;
    (6 * rd)
        .max(3 * rd + b * heads * t * t)
        .max(b * t * (inner + d))
}

/// The per-thread buffers of the frozen forward. No buffer gives its
/// capacity back, so a thread converges on its largest batch and then
/// stops allocating. Nothing is zeroed: every element a stage reads was
/// written earlier in the same forward, and every kernel gets an exact
/// prefix slice.
#[derive(Default)]
struct Workspace {
    /// `[b*t]` additive key mask.
    mask: Vec<f32>,
    /// The layer intermediates, carved per stage.
    layer: Vec<f32>,
    /// `[b*t, d]` hidden states of the matcher path.
    hidden: Vec<f32>,
    /// `[b, d]` CLS states.
    cls: Vec<f32>,
    /// `[b, d]` pooled states.
    pooled: Vec<f32>,
    /// `[b, 2]` logits, then probabilities.
    logits: Vec<f32>,
}

thread_local! {
    /// One workspace per scoring thread: a serving worker, a bench
    /// thread or a direct caller each reuse their own, lock-free.
    static WORKSPACE: std::cell::RefCell<Workspace> = std::cell::RefCell::new(Workspace::default());
}

/// Inference-only multi-head attention + FFN encoder layer with the Q/K/V
/// projections fused into one `[d, 3d]` matrix.
#[derive(Debug, Clone)]
pub(crate) struct FrozenLayer {
    /// Fused `[d, 3d]` Q|K|V projection.
    pub(crate) qkv: FrozenLinear,
    pub(crate) o: FrozenLinear,
    pub(crate) heads: usize,
    pub(crate) norm1: FrozenNorm,
    pub(crate) fc1: FrozenLinear,
    pub(crate) fc2: FrozenLinear,
    pub(crate) norm2: FrozenNorm,
}

impl FrozenLayer {
    fn fuse_qkv(q: &Linear, k: &Linear, v: &Linear) -> FrozenLinear {
        let (qw, kw, vw) = (q.w.value(), k.w.value(), v.w.value());
        let d = qw.shape()[0];
        let n = qw.shape()[1];
        let mut w = Vec::with_capacity(d * 3 * n);
        for r in 0..d {
            w.extend_from_slice(&qw.data()[r * n..(r + 1) * n]);
            w.extend_from_slice(&kw.data()[r * n..(r + 1) * n]);
            w.extend_from_slice(&vw.data()[r * n..(r + 1) * n]);
        }
        let mut b = q.b.value().into_vec();
        b.extend(k.b.value().into_vec());
        b.extend(v.b.value().into_vec());
        FrozenLinear::from_f32(w, vec![d, 3 * n], b)
    }

    /// Mirror of `EncoderLayer::forward` in eval mode, in place on the
    /// flat `[b*t, d]` hidden states, through the fused kernels: ten
    /// kernel calls per layer.
    ///
    /// `ws` holds [`layer_workspace_len`] elements, shared by the stages
    /// as their buffers die (`rd` = `b*t*d`):
    ///
    /// ```text
    /// offset  0        rd       2rd      3rd               6rd
    /// QKV     q        kt       v        qkv
    /// scores  q        kt       v        scores [b*h, t, t]
    /// context merged   tmp      v        scores
    /// O       merged   attn
    /// FFN     ffn1 [b*t, inner]  ffn2
    /// ```
    fn forward_flat(
        &self,
        x: &mut [f32],
        mask: Option<&[f32]>,
        rel: Option<&[f32]>,
        b: usize,
        t: usize,
        ws: &mut [f32],
    ) {
        let d = self.norm1.gamma.len();
        let h = self.heads;
        let dh = d / h;
        let rows = b * t;
        let rd = rows * d;
        let inner = self.fc1.out_features();

        // Fused QKV projection, then the head split into q, kt (K stored
        // pre-transposed) and v. Only weight-times-activation products go
        // through the quantized kernels; the attention GEMMs stay f32.
        let (heads, tail) = ws.split_at_mut(3 * rd);
        self.qkv.forward_flat(x, &mut tail[..3 * rd], rows);
        let qkv = &tail[..3 * rd];
        let (q, rest) = heads.split_at_mut(rd);
        let (kt, v) = rest.split_at_mut(rd);
        for bi in 0..b {
            for ti in 0..t {
                let row = &qkv[(bi * t + ti) * 3 * d..(bi * t + ti + 1) * 3 * d];
                for hi in 0..h {
                    let g = bi * h + hi;
                    for ci in 0..dh {
                        q[(g * t + ti) * dh + ci] = row[hi * dh + ci];
                        kt[(g * dh + ci) * t + ti] = row[d + hi * dh + ci];
                        v[(g * t + ti) * dh + ci] = row[2 * d + hi * dh + ci];
                    }
                }
            }
        }
        // Scores per (sample, head) over the dead qkv (and past it when
        // the score tensor is the larger), then scale, relative bias,
        // padding mask and softmax in one pass.
        let scores = &mut tail[..b * h * t * t];
        for g in 0..b * h {
            gemm_nn(
                &q[g * t * dh..(g + 1) * t * dh],
                &kt[g * t * dh..(g + 1) * t * dh],
                None,
                &mut scores[g * t * t..(g + 1) * t * t],
                t,
                dh,
                t,
            );
        }
        attn_softmax_rows(scores, 1.0 / (dh as f32).sqrt(), rel, mask, b, h, t);
        // Context per (sample, head) into tmp, merged back to [b*t, d]
        // over the dead q.
        let merged = q;
        for bi in 0..b {
            for hi in 0..h {
                let g = bi * h + hi;
                let tmp = &mut kt[..t * dh];
                gemm_nn(
                    &scores[g * t * t..(g + 1) * t * t],
                    &v[g * t * dh..(g + 1) * t * dh],
                    None,
                    tmp,
                    t,
                    t,
                    dh,
                );
                for ti in 0..t {
                    merged[(bi * t + ti) * d + hi * dh..(bi * t + ti) * d + (hi + 1) * dh]
                        .copy_from_slice(&tmp[ti * dh..(ti + 1) * dh]);
                }
            }
        }
        let attn = kt;
        self.o.forward_flat(merged, attn, rows);
        self.norm1.residual_forward_flat(x, attn);

        // Feed-forward with bias+GELU in the GEMM epilogue, then the
        // second residual norm.
        let (ffn1, rest) = ws.split_at_mut(rows * inner);
        let ffn2 = &mut rest[..rd];
        self.fc1.forward_flat_act(x, ffn1, rows, Act::Gelu);
        self.fc2.forward_flat(ffn1, ffn2, rows);
        self.norm2.residual_forward_flat(x, ffn2);
    }
}

/// Inference-only relative-position bias table (XLNet).
#[derive(Debug)]
pub(crate) struct FrozenRelativeBias {
    /// `[heads, 2*clamp+1]` bias table.
    pub(crate) table: TensorBuf,
    pub(crate) clamp: usize,
    pub(crate) heads: usize,
    /// Expanded `[heads*t*t]` bias per sequence length, materialized on
    /// first use. The expansion is pure table lookup, identical every
    /// call; serving sees a handful of bucket lengths, so this is a tiny
    /// map. Living on the bias itself (not keyed by model pointer
    /// elsewhere) means a hot-swapped model can never observe a stale
    /// expansion.
    cache: std::sync::Mutex<std::collections::HashMap<usize, Arc<Vec<f32>>>>,
}

impl Clone for FrozenRelativeBias {
    fn clone(&self) -> Self {
        // A fresh, empty cache: clones (quantize, swap staging) re-expand
        // lazily rather than sharing a lock with the serving copy.
        FrozenRelativeBias::new(self.table.clone(), self.clamp, self.heads)
    }
}

impl FrozenRelativeBias {
    pub(crate) fn new(table: TensorBuf, clamp: usize, heads: usize) -> Self {
        FrozenRelativeBias {
            table,
            clamp,
            heads,
            cache: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// The `[heads*t*t]` expansion for sequence length `t`, shared and
    /// cached. An `Arc` clone on the hit path — no allocation, no copy.
    fn bias_flat_cached(&self, t: usize) -> Arc<Vec<f32>> {
        let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(
            cache
                .entry(t)
                .or_insert_with(|| Arc::new(self.bias_flat(t))),
        )
    }

    /// Mirror of `RelativeBias::bias_for`, flattened to `[heads*t*t]`.
    fn bias_flat(&self, t: usize) -> Vec<f32> {
        let clamp = self.clamp as isize;
        let width = 2 * self.clamp + 1;
        let data = self.table.as_f32();
        let mut out = Vec::with_capacity(self.heads * t * t);
        for h in 0..self.heads {
            for i in 0..t {
                for j in 0..t {
                    let d = (i as isize - j as isize).clamp(-clamp, clamp) + clamp;
                    out.push(data[h * width + d as usize]);
                }
            }
        }
        out
    }
}

/// A frozen transformer encoder: the weights of a [`TransformerModel`]
/// copied into `Send + Sync` buffers with an inference-only forward pass.
///
/// Build one with `FrozenModel::from(&model)`; share it across worker
/// threads via `Arc`.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    /// The configuration the source model was built from.
    pub config: TransformerConfig,
    pub(crate) quant: QuantMode,
    pub(crate) embeddings: FrozenEmbeddings,
    pub(crate) layers: Vec<FrozenLayer>,
    pub(crate) relative: Option<FrozenRelativeBias>,
    pub(crate) pooler: FrozenLinear,
}

fn table_buf(a: Array) -> TensorBuf {
    let shape = a.shape().to_vec();
    TensorBuf::from_f32(a.into_vec(), shape)
}

impl From<&TransformerModel> for FrozenModel {
    fn from(m: &TransformerModel) -> Self {
        let emb = &m.embeddings;
        Self {
            config: m.config.clone(),
            quant: QuantMode::F32,
            embeddings: FrozenEmbeddings {
                token: table_buf(emb.token().table.value()),
                position: emb.position().map(|p| table_buf(p.table.value())),
                segment: emb.segment().map(|s| table_buf(s.table.value())),
                norm: FrozenNorm::from_norm(emb.norm()),
            },
            layers: m
                .layers
                .iter()
                .map(|l| FrozenLayer {
                    qkv: FrozenLayer::fuse_qkv(&l.attention.q, &l.attention.k, &l.attention.v),
                    o: FrozenLinear::from(&l.attention.o),
                    heads: l.attention.heads,
                    norm1: FrozenNorm::from_norm(&l.norm1),
                    fc1: FrozenLinear::from(&l.ffn.fc1),
                    fc2: FrozenLinear::from(&l.ffn.fc2),
                    norm2: FrozenNorm::from_norm(&l.norm2),
                })
                .collect(),
            relative: m
                .relative
                .as_ref()
                .map(|r| FrozenRelativeBias::new(table_buf(r.table.value()), r.clamp(), r.heads())),
            pooler: FrozenLinear::from(&m.pooler),
        }
    }
}

impl FrozenModel {
    /// Encode a batch into hidden states `[batch, seq, hidden]` — the
    /// inference twin of `TransformerModel::forward` in eval mode.
    pub fn forward(&self, batch: &Batch) -> Array {
        let mut hidden = Vec::new();
        self.forward_into(batch, &mut hidden);
        Array::from_vec(
            hidden,
            vec![batch.len(), batch.seq_len(), self.config.hidden],
        )
    }

    /// [`FrozenModel::forward`] into a caller-owned flat `[batch*seq,
    /// hidden]` buffer, resized to the batch (its capacity is kept). The
    /// layer intermediates live in this thread's workspace, so once
    /// `hidden` and the workspace have held a batch this large, the
    /// forward performs no heap allocation. Returns whether the
    /// workspace was reused as is (`false`: it had to grow).
    pub fn forward_into(&self, batch: &Batch, hidden: &mut Vec<f32>) -> bool {
        WORKSPACE.with_borrow_mut(|ws| self.encode(batch, hidden, &mut ws.mask, &mut ws.layer))
    }

    /// Elements of layer workspace a forward of `batch` sequences of
    /// length `seq` uses — the per-thread footprint at that geometry.
    pub fn workspace_len(&self, batch: usize, seq: usize) -> usize {
        let inner = self.layers.first().map_or(0, |l| l.fc1.out_features());
        layer_workspace_len(batch, seq, self.config.hidden, self.config.heads, inner)
    }

    /// The one encoder forward: embeddings into `x`, then every layer in
    /// place through `layer_ws`, grown to this batch if needed. Returns
    /// whether `layer_ws` was already large enough.
    fn encode(
        &self,
        batch: &Batch,
        x: &mut Vec<f32>,
        mask: &mut Vec<f32>,
        layer_ws: &mut Vec<f32>,
    ) -> bool {
        let b = batch.len();
        let t = batch.seq_len();
        let n = b * t * self.config.hidden;
        self.embeddings.forward_into(&batch.ids, &batch.segments, x);
        // Additive key-position mask, 0.0 on real tokens and -1e9 on
        // padding (as additive_mask_from_padding). Dynamically padded
        // batches are often mask-free; `None` skips the mask add.
        let mask = fill_mask(batch, mask).then_some(&mask[..b * t]);
        let rel = self.relative.as_ref().map(|r| r.bias_flat_cached(t));
        let rel = rel.as_deref().map(Vec::as_slice);
        let need = self.workspace_len(b, t);
        let reused = layer_ws.len() >= need;
        if !reused {
            layer_ws.resize(need, 0.0);
        }
        for layer in &self.layers {
            layer.forward_flat(&mut x[..n], mask, rel, b, t, layer_ws);
        }
        reused
    }

    /// Hidden state of each sample's CLS position: `[batch, hidden]`.
    pub fn cls_states(&self, hidden: &Array, batch: &Batch) -> Array {
        let d = self.config.hidden;
        let t = batch.seq_len();
        let mut out = Vec::with_capacity(batch.len() * d);
        for (i, &c) in batch.cls_index.iter().enumerate() {
            let off = (i * t + c) * d;
            out.extend_from_slice(&hidden.data()[off..off + d]);
        }
        Array::from_vec(out, vec![batch.len(), d])
    }

    /// Pooled representation `tanh(W · cls + b)`: `[batch, hidden]`.
    pub fn pooled_states(&self, hidden: &Array, batch: &Batch) -> Array {
        self.pooler
            .forward(&self.cls_states(hidden, batch))
            .map(f32::tanh)
    }

    /// Total number of frozen scalar weights (independent of the stored
    /// representation — int8 quantization scales are derived values and
    /// not counted).
    pub fn num_parameters(&self) -> usize {
        let lin = |l: &FrozenLinear| l.in_features() * l.out_features() + l.b.len();
        let norm = |n: &FrozenNorm| n.gamma.len() + n.beta.len();
        let emb = self.embeddings.token.len()
            + self.embeddings.position.as_ref().map_or(0, TensorBuf::len)
            + self.embeddings.segment.as_ref().map_or(0, TensorBuf::len)
            + norm(&self.embeddings.norm);
        let layers: usize = self
            .layers
            .iter()
            .map(|l| {
                lin(&l.qkv)
                    + lin(&l.o)
                    + lin(&l.fc1)
                    + lin(&l.fc2)
                    + norm(&l.norm1)
                    + norm(&l.norm2)
            })
            .sum();
        emb + layers + self.relative.as_ref().map_or(0, |r| r.table.len()) + lin(&self.pooler)
    }

    /// Representation the encoder's linear weights are stored in.
    pub fn quant(&self) -> QuantMode {
        self.quant
    }

    /// Re-encode every linear weight in `mode`. Embeddings, norms and
    /// the relative-bias table stay f32; attention score/context GEMMs
    /// are activation-activation and unaffected. Conversion widens back
    /// to f32 first, so chained conversions never compound error.
    pub fn quantize(&self, mode: QuantMode) -> FrozenModel {
        FrozenModel {
            config: self.config.clone(),
            quant: mode,
            embeddings: self.embeddings.clone(),
            layers: self
                .layers
                .iter()
                .map(|l| FrozenLayer {
                    qkv: l.qkv.quantize(mode),
                    o: l.o.quantize(mode),
                    heads: l.heads,
                    norm1: l.norm1.clone(),
                    fc1: l.fc1.quantize(mode),
                    fc2: l.fc2.quantize(mode),
                    norm2: l.norm2.clone(),
                })
                .collect(),
            relative: self.relative.clone(),
            pooler: self.pooler.quantize(mode),
        }
    }

    /// Bytes of weight data the encoder touches per forward pass —
    /// the working-set number that quantization shrinks.
    pub fn weight_bytes(&self) -> usize {
        let norm = |n: &FrozenNorm| (n.gamma.len() + n.beta.len()) * 4;
        let emb = self.embeddings.token.byte_len()
            + self
                .embeddings
                .position
                .as_ref()
                .map_or(0, TensorBuf::byte_len)
            + self
                .embeddings
                .segment
                .as_ref()
                .map_or(0, TensorBuf::byte_len)
            + norm(&self.embeddings.norm);
        let layers: usize = self
            .layers
            .iter()
            .map(|l| {
                l.qkv.weight_bytes()
                    + l.o.weight_bytes()
                    + l.fc1.weight_bytes()
                    + l.fc2.weight_bytes()
                    + norm(&l.norm1)
                    + norm(&l.norm2)
            })
            .sum();
        emb + layers
            + self.relative.as_ref().map_or(0, |r| r.table.byte_len())
            + self.pooler.weight_bytes()
    }
}

/// A complete frozen entity matcher: encoder, classification head,
/// tokenizer and input length — everything inference needs, all
/// `Send + Sync`. The serving twin of [`EmMatcher`].
#[derive(Debug, Clone)]
pub struct FrozenMatcher {
    /// Frozen encoder.
    pub model: FrozenModel,
    /// Frozen two-class classifier layer.
    pub head: FrozenLinear,
    /// The tokenizer the encoder was pre-trained with.
    pub tokenizer: AnyTokenizer,
    /// Input length used at fine-tuning time — the model's position-table
    /// span. Encodings scored by this matcher may be any length up to it;
    /// batches pad dynamically to their own maximum.
    pub max_len: usize,
    /// Examples per forward pass on the bulk [`Predictor`](em_core::Predictor)
    /// path, copied from the source matcher's `eval_batch` so frozen
    /// prediction chunks exactly like the autograd eval path it replaces.
    pub eval_batch: usize,
}

impl From<&EmMatcher> for FrozenMatcher {
    fn from(m: &EmMatcher) -> Self {
        Self {
            model: FrozenModel::from(&m.model),
            head: FrozenLinear::from(m.head.classifier()),
            tokenizer: m.tokenizer.clone(),
            max_len: m.max_len,
            eval_batch: m.eval_batch,
        }
    }
}

impl FrozenMatcher {
    /// Representation the matcher's linear weights are stored in.
    pub fn quant(&self) -> QuantMode {
        self.model.quant()
    }

    /// Re-encode encoder and head weights in `mode`; tokenizer, lengths
    /// and batch sizing are unchanged, so a quantized matcher is a
    /// drop-in replacement wherever the f32 one was serving.
    pub fn quantize(&self, mode: QuantMode) -> FrozenMatcher {
        FrozenMatcher {
            model: self.model.quantize(mode),
            head: self.head.quantize(mode),
            tokenizer: self.tokenizer.clone(),
            max_len: self.max_len,
            eval_batch: self.eval_batch,
        }
    }

    /// Bytes of weight data touched per forward pass (encoder + head).
    pub fn weight_bytes(&self) -> usize {
        self.model.weight_bytes() + self.head.weight_bytes()
    }

    /// Where the CLS token sits for this matcher's architecture.
    pub fn cls_position(&self) -> ClsPosition {
        match self.model.config.arch {
            Architecture::Xlnet => ClsPosition::Last,
            _ => ClsPosition::First,
        }
    }

    /// Encode one entity pair to this matcher's input format.
    pub fn encode(&self, ds: &Dataset, pair: &EntityPair) -> Encoding {
        encode_pair(
            &self.tokenizer,
            &ds.serialize_record(&pair.a),
            &ds.serialize_record(&pair.b),
            self.max_len,
            self.cls_position(),
        )
    }

    /// Match logits `[batch, 2]` for one uniform-length batch.
    pub fn logits(&self, batch: &Batch) -> Array {
        let b = batch.len();
        WORKSPACE.with_borrow_mut(|ws| {
            self.logits_in(batch, ws);
            Array::from_vec(ws.logits[..b * 2].to_vec(), vec![b, 2])
        })
    }

    /// Positive-class match probability per encoding, as one batch padded
    /// dynamically to the batch maximum. Encodings may be ragged; none may
    /// exceed this matcher's `max_len`.
    pub fn score_encodings(&self, encodings: &[Encoding]) -> Vec<f32> {
        self.score_encodings_reusing(encodings).0
    }

    /// [`FrozenMatcher::score_encodings`], also reporting whether the
    /// thread's workspace was reused without growing (serving counts
    /// these as workspace hits).
    pub(crate) fn score_encodings_reusing(&self, encodings: &[Encoding]) -> (Vec<f32>, bool) {
        if encodings.is_empty() {
            return (Vec::new(), true);
        }
        for e in encodings {
            assert!(
                e.ids.len() <= self.max_len,
                "encoding length {} exceeds the frozen matcher's max_len {}",
                e.ids.len(),
                self.max_len
            );
        }
        let batch = Batch::from_encodings(encodings);
        let b = batch.len();
        WORKSPACE.with_borrow_mut(|ws| {
            let reused = self.logits_in(&batch, ws);
            softmax_rows(&mut ws.logits[..b * 2], 2);
            let scores = (0..b).map(|i| ws.logits[i * 2 + 1]).collect();
            (scores, reused)
        })
    }

    /// Logits `[b, 2]` into `ws.logits`: encoder forward, CLS gather,
    /// pooler with tanh, classifier. Returns whether the layer workspace
    /// was reused.
    fn logits_in(&self, batch: &Batch, ws: &mut Workspace) -> bool {
        let b = batch.len();
        let t = batch.seq_len();
        let d = self.model.config.hidden;
        let reused = self
            .model
            .encode(batch, &mut ws.hidden, &mut ws.mask, &mut ws.layer);
        ws.cls.resize(b * d, 0.0);
        for (i, &c) in batch.cls_index.iter().enumerate() {
            let off = (i * t + c) * d;
            ws.cls[i * d..(i + 1) * d].copy_from_slice(&ws.hidden[off..off + d]);
        }
        ws.pooled.resize(b * d, 0.0);
        self.model
            .pooler
            .forward_flat(&ws.cls[..b * d], &mut ws.pooled[..b * d], b);
        for v in &mut ws.pooled[..b * d] {
            *v = v.tanh();
        }
        ws.logits.resize(b * 2, 0.0);
        self.head
            .forward_flat(&ws.pooled[..b * d], &mut ws.logits[..b * 2], b);
        reused
    }
}

/// Fill `out` with the additive key mask for `batch` (`0.0` real,
/// `-1e9` padding) and report whether any padding exists.
fn fill_mask(batch: &Batch, out: &mut Vec<f32>) -> bool {
    let t = batch.seq_len();
    out.resize(batch.len() * t, 0.0);
    let mut masked = false;
    for (bi, row) in batch.padding.iter().enumerate() {
        for (ti, &m) in row.iter().enumerate() {
            masked |= m != 1;
            out[bi * t + ti] = if m == 1 { 0.0 } else { -1e9 };
        }
    }
    masked
}

impl em_core::Predictor for FrozenMatcher {
    fn predict_scores(&self, ds: &Dataset, pairs: &[EntityPair]) -> Vec<f32> {
        let encodings: Vec<Encoding> = pairs.iter().map(|p| self.encode(ds, p)).collect();
        // Chunked by `eval_batch` like the autograd eval path so peak
        // memory stays flat, and length-sorted so each chunk pads only to
        // its own (short) maximum; scores return in the original order.
        let mut by_len: Vec<usize> = (0..encodings.len()).collect();
        by_len.sort_by_key(|&i| encodings[i].real_span());
        let mut out = vec![0.0f32; encodings.len()];
        for chunk in by_len.chunks(self.eval_batch.max(1)) {
            let group: Vec<Encoding> = chunk.iter().map(|&i| encodings[i].clone()).collect();
            for (&orig, score) in chunk.iter().zip(self.score_encodings(&group)) {
                out[orig] = score;
            }
        }
        out
    }
}

/// Compile-time proof that frozen models cross threads: referenced by the
/// serve matcher, which shares one `Arc<FrozenMatcher>` across workers.
#[allow(dead_code)]
fn assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<FrozenModel>();
    check::<FrozenMatcher>();
}

/// Build a frozen matcher straight from model parts (used by tests and
/// the bench harness; production callers freeze a fine-tuned
/// [`EmMatcher`]).
pub fn freeze_parts(
    model: &TransformerModel,
    head: &ClassificationHead,
    tokenizer: AnyTokenizer,
    max_len: usize,
) -> FrozenMatcher {
    FrozenMatcher {
        model: FrozenModel::from(model),
        head: FrozenLinear::from(head.classifier()),
        tokenizer,
        max_len,
        eval_batch: 32,
    }
}
