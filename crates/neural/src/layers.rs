//! Neural network layers with explicit forward/backward passes.
//!
//! Every layer caches whatever it needs during `forward` to compute exact
//! gradients in `backward` (reverse-mode, hand-derived). Gradient
//! correctness is validated against central finite differences in the
//! tests at the bottom of this module — the single most important test in
//! the crate, since every downstream model depends on it.

use crate::tensor::Tensor;
use rand::Rng;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Wrap an initial value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Reset the gradient to zero (called by the trainer between steps).
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }
}

/// A differentiable layer.
pub trait Layer: Send {
    /// Compute the output for `input`. `train` toggles train-time behaviour
    /// (dropout masks). Implementations cache activations for `backward`.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Given ∂L/∂output, accumulate parameter gradients and return
    /// ∂L/∂input. Must be called after a matching `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable access to this layer's parameters (empty for stateless
    /// layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Parameter count (for model summaries / paradata).
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }
}

/// Fully connected layer: `y = xW + b`, `x: [batch, in]`, `W: [in, out]`.
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// He-initialized dense layer.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Dense {
            weight: Param::new(Tensor::randn(&[in_features, out_features], in_features, rng)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
        }
    }

    /// Construct from explicit weights (tests, serialization).
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.ndim(), 2);
        assert_eq!(bias.ndim(), 1);
        // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
        assert_eq!(weight.shape()[1], bias.len());
        Dense { weight: Param::new(weight), bias: Param::new(bias), cached_input: None }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
        self.weight.value.shape()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
        self.weight.value.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let out = input.matmul(&self.weight.value).add_row_bias(&self.bias.value);
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // itrust-lint: allow(panic-reachable) — Layer contract: backward follows a forward in the same training step
        let x = self.cached_input.as_ref().expect("backward before forward");
        // dW += x^T g ; db += Σ_rows g ; dx = g W^T
        let dw = x.transpose2().matmul(grad_out);
        self.weight.grad.axpy(1.0, &dw);
        self.bias.grad.axpy(1.0, &grad_out.sum_rows());
        grad_out.matmul(&self.weight.value.transpose2())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// New ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.mask = Some(input.data().iter().map(|&v| v > 0.0).collect());
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // itrust-lint: allow(panic-reachable) — Layer contract: backward follows a forward in the same training step
        let mask = self.mask.as_ref().expect("backward before forward");
        let data = grad_out
            .data()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape(), data)
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Logistic sigmoid (used by the YoloLite objectness head).
#[derive(Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// New sigmoid.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let out = input.map(|v| 1.0 / (1.0 + (-v).exp()));
        self.cached_output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // itrust-lint: allow(panic-reachable) — Layer contract: backward follows a forward in the same training step
        let y = self.cached_output.as_ref().expect("backward before forward");
        grad_out.zip(y, |g, y| g * y * (1.0 - y))
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

/// Hyperbolic tangent.
#[derive(Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// New tanh.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let out = input.map(|v| v.tanh());
        self.cached_output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // itrust-lint: allow(panic-reachable) — Layer contract: backward follows a forward in the same training step
        let y = self.cached_output.as_ref().expect("backward before forward");
        grad_out.zip(y, |g, y| g * (1.0 - y * y))
    }

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

/// Reference direct convolution — the pre-blocked implementation, retained
/// as the oracle for the serial-equivalence and property tests. Accumulates
/// over `(ic, ky, kx)` ascending starting from the bias, skipping
/// out-of-bounds (padding) taps.
pub fn conv2d_forward_naive(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    kernel: usize,
    padding: usize,
) -> Tensor {
    // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
    let [n, in_c, h, w] = [input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]];
    let out_c = weight.shape()[0];
    let k = kernel;
    let p = padding as isize;
    let (oh, ow) = (h + 2 * padding + 1 - k, w + 2 * padding + 1 - k);
    let mut out = Tensor::zeros(&[n, out_c, oh, ow]);
    for b in 0..n {
        for oc in 0..out_c {
            let bias_v = bias.data()[oc];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias_v;
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - p;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - p;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += input.at4(b, ic, iy as usize, ix as usize)
                                    * weight.at4(oc, ic, ky, kx);
                            }
                        }
                    }
                    *out.at4_mut(b, oc, oy, ox) = acc;
                }
            }
        }
    }
    out
}

/// Reference direct backward pass; returns `(grad_in, grad_weight,
/// grad_bias)` as fresh tensors (the `Layer` impl accumulates, so compare
/// against grads that started from zero).
pub fn conv2d_backward_naive(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    kernel: usize,
    padding: usize,
) -> (Tensor, Tensor, Tensor) {
    // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
    let [n, in_c, h, w] = [input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]];
    let out_c = weight.shape()[0];
    let k = kernel;
    let p = padding as isize;
    let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
    let mut grad_in = Tensor::zeros(input.shape());
    let mut grad_w = Tensor::zeros(weight.shape());
    let mut grad_b = Tensor::zeros(&[out_c]);
    for b in 0..n {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.at4(b, oc, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    grad_b.data_mut()[oc] += g;
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - p;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - p;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let x = input.at4(b, ic, iy as usize, ix as usize);
                                *grad_w.at4_mut(oc, ic, ky, kx) += g * x;
                                *grad_in.at4_mut(b, ic, iy as usize, ix as usize) +=
                                    g * weight.at4(oc, ic, ky, kx);
                            }
                        }
                    }
                }
            }
        }
    }
    (grad_in, grad_w, grad_b)
}

/// Transposed im2col for one batch item: a `[in_c·k·k, oh·ow]` row-major
/// matrix whose row `kk = (ic·k + ky)·k + kx` holds the input tap for every
/// output position (zero where the tap falls in the padding). Keeping `kk`
/// as the row index makes each output row a dot of a weight row with
/// contiguous patch rows, and makes the `kk`-ascending accumulation order
/// explicit — that order is what lets the blocked forward match the naive
/// one bit-for-bit.
/// The matrix is written into `patch`, a scratch buffer recycled across
/// forward calls: it is cleared and re-zeroed to the exact length first, so
/// the contents are bit-identical to a freshly allocated buffer.
fn im2col_t_into(
    input: &Tensor,
    b: usize,
    kernel: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    patch: &mut Vec<f32>,
) {
    // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
    let [in_c, h, w] = [input.shape()[1], input.shape()[2], input.shape()[3]];
    let p = padding as isize;
    let ohw = oh * ow;
    let data = input.data();
    patch.clear();
    patch.resize(in_c * kernel * kernel * ohw, 0.0);
    let mut kk = 0;
    for ic in 0..in_c {
        for ky in 0..kernel {
            for kx in 0..kernel {
                let dst = &mut patch[kk * ohw..(kk + 1) * ohw];
                // ox bounds keeping ix = ox + kx - p inside [0, w).
                let ox_lo = (p - kx as isize).max(0) as usize;
                let ox_hi = (w as isize + p - kx as isize).clamp(0, ow as isize) as usize;
                for oy in 0..oh {
                    let iy = oy as isize + ky as isize - p;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src = ((b * in_c + ic) * h + iy as usize) * w;
                    for ox in ox_lo..ox_hi {
                        let ix = (ox as isize + kx as isize - p) as usize;
                        dst[oy * ow + ox] = data[src + ix];
                    }
                }
                kk += 1;
            }
        }
    }
}

/// Forward-pass state kept for `backward`.
struct ConvCache {
    input_shape: Vec<usize>,
    /// Per-item transposed im2col matrices (see [`im2col_t`]).
    patches: Vec<Vec<f32>>,
    oh: usize,
    ow: usize,
}

/// 2-D convolution over `[N, C, H, W]` inputs, square kernel, stride 1,
/// symmetric zero padding. Blocked im2col implementation parallelized over
/// batch items with `itrust_par`: one task builds an item's patch matrix,
/// then each of its out-channel rows as a dot of a weight row with the
/// patch rows. A one-item batch (inference) therefore runs inline on the
/// caller. Accumulation runs `kk`-ascending from the bias, so forward
/// outputs equal the retained [`conv2d_forward_naive`] under `f32` equality
/// and are bit-identical for every thread count (padding taps contribute
/// exact `±0.0` adds, which cannot change a sum). Backward computes per-item
/// gradient partials in parallel and merges them serially in batch order —
/// bit-stable across thread counts, within rounding of the naive reference
/// (per-item merge reassociates the cross-batch sum).
pub struct Conv2d {
    /// Weights `[out_c, in_c, k, k]`.
    weight: Param,
    /// Bias `[out_c]`.
    bias: Param,
    kernel: usize,
    padding: usize,
    cache: Option<ConvCache>,
    /// Retired patch buffers, recycled by the next forward to avoid
    /// re-allocating `[kk_total, oh·ow]` matrices every call.
    patch_pool: Vec<Vec<f32>>,
}

impl Conv2d {
    /// He-initialized convolution.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Param::new(Tensor::randn(
                &[out_channels, in_channels, kernel, kernel],
                fan_in,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            kernel,
            padding,
            cache: None,
            patch_pool: Vec::new(),
        }
    }

    /// Output spatial size for an input of `h × w`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        (h + 2 * self.padding + 1 - self.kernel, w + 2 * self.padding + 1 - self.kernel)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.ndim(), 4, "Conv2d expects [N,C,H,W]");
        // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
        let [n, in_c, h, w] = [input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]];
        let out_c = self.weight.value.shape()[0];
        assert_eq!(self.weight.value.shape()[1], in_c, "channel mismatch");
        let (oh, ow) = self.out_size(h, w);
        let ohw = oh * ow;
        let kk_total = in_c * self.kernel * self.kernel;
        let (kernel, padding) = (self.kernel, self.padding);
        // Recycle the previous forward's patch buffers: each worker grabs
        // any retired buffer (the pool is value-agnostic — buffers are
        // re-zeroed to exact length, so outputs are bit-identical whichever
        // buffer an item gets).
        if let Some(cache) = self.cache.take() {
            let mut retired = cache.patches;
            self.patch_pool.append(&mut retired);
        }
        let pool = std::sync::Mutex::new(std::mem::take(&mut self.patch_pool));
        let wdata = self.weight.value.data();
        let bdata = self.bias.value.data();
        let (patches, rows): (Vec<Vec<f32>>, Vec<Vec<f32>>) = itrust_par::par_map_indices(n, |b| {
            // itrust-lint: allow(panic-reachable) — a poisoned pool means a worker already panicked; re-panicking just propagates it
            let mut patch = pool.lock().expect("patch pool poisoned").pop().unwrap_or_default();
            im2col_t_into(input, b, kernel, padding, oh, ow, &mut patch);
            let mut rows = Vec::with_capacity(out_c * ohw);
            for (oc, &bv) in bdata.iter().enumerate() {
                let start = rows.len();
                rows.resize(start + ohw, bv);
                let row = &mut rows[start..];
                for (kk, &wv) in wdata[oc * kk_total..(oc + 1) * kk_total].iter().enumerate() {
                    // A zero weight contributes exact ±0.0 to every position —
                    // skipping it cannot change any sum.
                    if wv == 0.0 {
                        continue;
                    }
                    for (o, &x) in row.iter_mut().zip(&patch[kk * ohw..(kk + 1) * ohw]) {
                        *o += wv * x;
                    }
                }
            }
            (patch, rows)
        })
        .into_iter()
        .unzip();
        // itrust-lint: allow(panic-reachable) — a poisoned pool means a worker already panicked; re-panicking just propagates it
        self.patch_pool = pool.into_inner().expect("patch pool poisoned");
        let out = rows.concat();
        self.cache = Some(ConvCache { input_shape: input.shape().to_vec(), patches, oh, ow });
        Tensor::from_vec(&[n, out_c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // itrust-lint: allow(panic-reachable) — Layer contract: backward follows a forward in the same training step
        let cache = self.cache.as_ref().expect("backward before forward");
        let [n, in_c, h, w] = [
            // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
            cache.input_shape[0],
            cache.input_shape[1],
            cache.input_shape[2],
            cache.input_shape[3],
        ];
        let out_c = self.weight.value.shape()[0];
        let (oh, ow) = (cache.oh, cache.ow);
        assert_eq!(grad_out.shape(), &[n, out_c, oh, ow], "grad_out shape mismatch");
        let ohw = oh * ow;
        let kk_total = in_c * self.kernel * self.kernel;
        let (kernel, padding) = (self.kernel, self.padding);
        let go = grad_out.data();
        let wdata = self.weight.value.data();
        // Per-item partials (dW, db, dx) computed independently; each is a
        // pure function of that item's patch matrix and gradient slice.
        let parts: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = itrust_par::par_map_indices(n, |b| {
            let patch = &cache.patches[b];
            let mut dw = vec![0.0f32; out_c * kk_total];
            let mut db = vec![0.0f32; out_c];
            let mut dpatch = vec![0.0f32; kk_total * ohw];
            for oc in 0..out_c {
                let g = &go[(b * out_c + oc) * ohw..(b * out_c + oc + 1) * ohw];
                let mut s = 0.0f32;
                for &gv in g {
                    s += gv;
                }
                db[oc] = s;
                for kk in 0..kk_total {
                    let prow = &patch[kk * ohw..(kk + 1) * ohw];
                    let mut acc = 0.0f32;
                    for (&gv, &pv) in g.iter().zip(prow) {
                        acc += gv * pv;
                    }
                    dw[oc * kk_total + kk] = acc;
                    let wv = wdata[oc * kk_total + kk];
                    if wv == 0.0 {
                        continue;
                    }
                    for (d, &gv) in dpatch[kk * ohw..(kk + 1) * ohw].iter_mut().zip(g) {
                        *d += wv * gv;
                    }
                }
            }
            // col2im: scatter ∂L/∂patch back onto the overlapping input taps.
            let mut dx = vec![0.0f32; in_c * h * w];
            let p = padding as isize;
            let mut kk = 0;
            for ic in 0..in_c {
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let src = &dpatch[kk * ohw..(kk + 1) * ohw];
                        let ox_lo = (p - kx as isize).max(0) as usize;
                        let ox_hi = (w as isize + p - kx as isize).clamp(0, ow as isize) as usize;
                        for oy in 0..oh {
                            let iy = oy as isize + ky as isize - p;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let dst = (ic * h + iy as usize) * w;
                            for ox in ox_lo..ox_hi {
                                let ix = (ox as isize + kx as isize - p) as usize;
                                dx[dst + ix] += src[oy * ow + ox];
                            }
                        }
                        kk += 1;
                    }
                }
            }
            (dw, db, dx)
        });
        // Serial merge in batch order: f32 addition is non-associative, so
        // the merge order must be fixed for thread-count invariance.
        let wg = self.weight.grad.data_mut();
        for (dw, _, _) in &parts {
            for (a, &v) in wg.iter_mut().zip(dw) {
                *a += v;
            }
        }
        let bg = self.bias.grad.data_mut();
        for (_, db, _) in &parts {
            for (a, &v) in bg.iter_mut().zip(db) {
                *a += v;
            }
        }
        let mut gi = Vec::with_capacity(n * in_c * h * w);
        for (_, _, dx) in &parts {
            gi.extend_from_slice(dx);
        }
        Tensor::from_vec(&cache.input_shape, gi)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// 2×2 max pooling with stride 2 over `[N, C, H, W]`. Odd trailing
/// rows/columns are dropped (floor semantics).
#[derive(Default)]
pub struct MaxPool2d {
    /// Flat input index of each selected maximum, per output element.
    argmax: Option<Vec<usize>>,
    input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// New 2×2/stride-2 max pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.ndim(), 4);
        // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
        let [n, c, h, w] = [input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]];
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0usize; n * c * oh * ow];
        let mut oi = 0;
        for b in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let iy = oy * 2 + dy;
                                let ix = ox * 2 + dx;
                                let v = input.at4(b, ch, iy, ix);
                                if v > best {
                                    best = v;
                                    best_idx = ((b * c + ch) * h + iy) * w + ix;
                                }
                            }
                        }
                        *out.at4_mut(b, ch, oy, ox) = best;
                        argmax[oi] = best_idx;
                        oi += 1;
                    }
                }
            }
        }
        self.argmax = Some(argmax);
        self.input_shape = input.shape().to_vec();
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // itrust-lint: allow(panic-reachable) — Layer contract: backward follows a forward in the same training step
        let argmax = self.argmax.as_ref().expect("backward before forward");
        let mut grad_in = Tensor::zeros(&self.input_shape);
        for (g, &idx) in grad_out.data().iter().zip(argmax) {
            // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
            grad_in.data_mut()[idx] += g;
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Flatten `[N, C, H, W] → [N, C·H·W]`.
#[derive(Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.input_shape = input.shape().to_vec();
        // itrust-lint: allow(panic-reachable) — kernel loops run over dims the shape contract at entry already validated
        let n = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        input.reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.reshape(&self.input_shape)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

/// Inverted dropout: active only when `train == true`; scales kept units by
/// `1/(1-rate)` so evaluation needs no rescaling.
pub struct Dropout {
    rate: f32,
    mask: Option<Vec<f32>>,
    rng: rand::rngs::StdRng,
}

impl Dropout {
    /// `rate` in `[0, 1)`: fraction of units dropped at train time.
    pub fn new(rate: f32, seed: u64) -> Self {
        use rand::SeedableRng;
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0,1)");
        Dropout { rate, mask: None, rng: rand::rngs::StdRng::seed_from_u64(seed) }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train || self.rate == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.rate;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| if self.rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
            .collect();
        let data = input.data().iter().zip(&mask).map(|(&v, &m)| v * m).collect();
        self.mask = Some(mask);
        Tensor::from_vec(input.shape(), data)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_out.clone(),
            Some(mask) => {
                let data = grad_out.data().iter().zip(mask).map(|(&g, &m)| g * m).collect();
                Tensor::from_vec(grad_out.shape(), data)
            }
        }
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_known_values() {
        let w = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2], vec![0.5, -0.5]);
        let mut layer = Dense::from_parts(w, b);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[4.5, 5.5]);
        assert_eq!(layer.in_features(), 2);
        assert_eq!(layer.out_features(), 2);
    }

    #[test]
    fn relu_clamps_and_gates_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = relu.backward(&Tensor::full(&[1, 4], 1.0));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_range_and_gradient() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(&[1, 3], vec![-10.0, 0.0, 10.0]);
        let y = s.forward(&x, false);
        assert!(y.data()[0] < 0.001);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 0.999);
        let g = s.backward(&Tensor::full(&[1, 3], 1.0));
        // σ'(0) = 0.25
        assert!((g.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn maxpool_selects_max_and_routes_gradient() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let mut pool = MaxPool2d::new();
        let y = pool.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[5.0]);
        let g = pool.backward(&Tensor::full(&[1, 1, 1, 1], 7.0));
        assert_eq!(g.data(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_drops_odd_edges() {
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let mut pool = MaxPool2d::new();
        let y = pool.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn flatten_round_trip() {
        let x = Tensor::from_vec(&[2, 1, 2, 2], (0..8).map(|v| v as f32).collect());
        let mut f = Flatten::new();
        let y = f.forward(&x, false);
        assert_eq!(y.shape(), &[2, 4]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn conv_recycled_patch_buffers_are_byte_identical() {
        // The second and later forward calls reuse retired patch buffers;
        // outputs must be bit-identical to the first (fresh-allocation)
        // call and to the naive reference, whatever buffer each item gets.
        let mut rng = StdRng::seed_from_u64(11);
        let mut conv = Conv2d::new(3, 4, 3, 1, &mut rng);
        let x = Tensor::randn(&[4, 3, 9, 9], 27, &mut rng);
        let first = conv.forward(&x, true);
        let naive = conv2d_forward_naive(&x, &conv.weight.value, &conv.bias.value, 3, 1);
        assert_eq!(first.data(), naive.data(), "blocked forward must match naive");
        for round in 0..3 {
            let again = conv.forward(&x, true);
            assert_eq!(
                first.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                again.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "recycled-buffer forward diverged on round {round}"
            );
        }
        // A different input shape forces re-zeroed buffers of a new length.
        let y = Tensor::randn(&[2, 3, 5, 5], 27, &mut rng);
        let small = conv.forward(&y, true);
        let small_naive = conv2d_forward_naive(&y, &conv.weight.value, &conv.bias.value, 3, 1);
        assert_eq!(small.data(), small_naive.data());
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng);
        // Set kernel to the delta function, bias 0.
        {
            let params = conv.params_mut();
            let [w, b] = <[_; 2]>::try_from(params).ok().unwrap();
            w.value.data_mut().fill(0.0);
            *w.value.at4_mut(0, 0, 1, 1) = 1.0;
            b.value.data_mut().fill(0.0);
        }
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), x.shape());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_known_sum_kernel() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 1, 2, 0, &mut rng);
        {
            let params = conv.params_mut();
            let [w, b] = <[_; 2]>::try_from(params).ok().unwrap();
            w.value.data_mut().fill(1.0);
            b.value.data_mut().fill(0.5);
        }
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[10.5]);
    }

    #[test]
    fn dropout_eval_is_identity_train_scales() {
        let x = Tensor::full(&[1, 1000], 1.0);
        let mut d = Dropout::new(0.5, 42);
        let eval = d.forward(&x, false);
        assert_eq!(eval.data(), x.data());
        let train = d.forward(&x, true);
        // Kept units are scaled to 2.0; expectation of the mean stays ≈ 1.
        let mean = train.mean();
        assert!((mean - 1.0).abs() < 0.1, "dropout mean {mean}");
        let kept = train.data().iter().filter(|&&v| v != 0.0).count();
        assert!((400..600).contains(&kept));
    }

    /// Central-difference gradient check for a Dense layer, the backbone
    /// correctness test for the whole training stack.
    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng);
        // Scalar loss: sum of outputs (so dL/dy = 1 everywhere).
        let loss = |layer: &mut Dense, x: &Tensor| layer.forward(x, false).sum();

        let _ = layer.forward(&x, false);
        let ones = Tensor::full(&[4, 2], 1.0);
        let grad_in = layer.backward(&ones);

        let eps = 1e-3;
        // Check weight gradients.
        for idx in 0..6 {
            let analytic = layer.params_mut()[0].grad.data()[idx];
            layer.params_mut()[0].value.data_mut()[idx] += eps;
            let up = loss(&mut layer, &x);
            layer.params_mut()[0].value.data_mut()[idx] -= 2.0 * eps;
            let down = loss(&mut layer, &x);
            layer.params_mut()[0].value.data_mut()[idx] += eps;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "weight[{idx}] analytic {analytic} vs numeric {numeric}"
            );
        }
        // Check input gradients.
        let mut x_pert = x.clone();
        for idx in 0..x.len() {
            x_pert.data_mut()[idx] += eps;
            let up = loss(&mut layer, &x_pert);
            x_pert.data_mut()[idx] -= 2.0 * eps;
            let down = loss(&mut layer, &x_pert);
            x_pert.data_mut()[idx] += eps;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "input[{idx}] analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    /// Finite-difference check for Conv2d weights — exercises padding.
    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut conv = Conv2d::new(2, 2, 3, 1, &mut rng);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let loss = |conv: &mut Conv2d, x: &Tensor| conv.forward(x, false).sum();

        let out = conv.forward(&x, false);
        let ones = Tensor::full(out.shape(), 1.0);
        let grad_in = conv.backward(&ones);

        let eps = 1e-2;
        let n_weights = conv.params_mut()[0].value.len();
        for idx in (0..n_weights).step_by(7) {
            let analytic = conv.params_mut()[0].grad.data()[idx];
            conv.params_mut()[0].value.data_mut()[idx] += eps;
            let up = loss(&mut conv, &x);
            conv.params_mut()[0].value.data_mut()[idx] -= 2.0 * eps;
            let down = loss(&mut conv, &x);
            conv.params_mut()[0].value.data_mut()[idx] += eps;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 0.05,
                "conv weight[{idx}] analytic {analytic} vs numeric {numeric}"
            );
        }
        let mut x_pert = x.clone();
        for idx in (0..x.len()).step_by(5) {
            x_pert.data_mut()[idx] += eps;
            let up = loss(&mut conv, &x_pert);
            x_pert.data_mut()[idx] -= 2.0 * eps;
            let down = loss(&mut conv, &x_pert);
            x_pert.data_mut()[idx] += eps;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (analytic - numeric).abs() < 0.05,
                "conv input[{idx}] analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    /// The blocked forward must equal the retained naive reference under
    /// `f32` equality — the accumulation order is identical by construction.
    #[test]
    fn conv_blocked_forward_matches_naive_exactly() {
        let mut rng = StdRng::seed_from_u64(77);
        for &(in_c, out_c, k, pad, h, w, n) in &[
            (1, 1, 1, 0, 3, 3, 1),
            (2, 3, 3, 1, 5, 4, 2),
            (3, 2, 2, 0, 4, 6, 3),
            (1, 4, 5, 2, 7, 7, 2),
            // PergaNet's inference (one image) and training (16) batches.
            (1, 6, 3, 1, 32, 32, 1),
            (6, 12, 3, 1, 16, 16, 16),
        ] {
            let mut conv = Conv2d::new(in_c, out_c, k, pad, &mut rng);
            let x = Tensor::rand_uniform(&[n, in_c, h, w], -1.0, 1.0, &mut rng);
            let got = conv.forward(&x, false);
            let (wt, bt) = {
                let params = conv.params_mut();
                (params[0].value.clone(), params[1].value.clone())
            };
            let want = conv2d_forward_naive(&x, &wt, &bt, k, pad);
            assert_eq!(got.shape(), want.shape());
            for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                assert!(a == b, "shape {in_c}x{out_c} k{k} p{pad}: elem {i}: {a} != {b}");
            }
        }
    }

    /// Backward merges per-item partials, which reassociates the cross-batch
    /// sum — equal to the naive reference within rounding.
    #[test]
    fn conv_blocked_backward_matches_naive_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(78);
        let (in_c, out_c, k, pad) = (2, 3, 3, 1);
        let mut conv = Conv2d::new(in_c, out_c, k, pad, &mut rng);
        let x = Tensor::rand_uniform(&[3, in_c, 5, 5], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
        let grad_in = conv.backward(&g);
        let weight = conv.params_mut()[0].value.clone();
        let (want_in, want_w, want_b) = conv2d_backward_naive(&x, &weight, &g, k, pad);
        let close = |a: &[f32], b: &[f32], what: &str| {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert!((x - y).abs() < 1e-4, "{what}[{i}]: {x} vs {y}");
            }
        };
        close(grad_in.data(), want_in.data(), "grad_in");
        close(conv.params_mut()[0].grad.data(), want_w.data(), "grad_w");
        close(conv.params_mut()[1].grad.data(), want_b.data(), "grad_b");
    }

    /// Forward and backward outputs must be bit-identical for every thread
    /// count — the substrate's core guarantee on this hot path.
    #[test]
    fn conv_forward_backward_bit_identical_across_thread_counts() {
        let run = |threads: usize, n: usize| {
            itrust_par::with_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(79);
                let mut conv = Conv2d::new(2, 4, 3, 1, &mut rng);
                let x = Tensor::rand_uniform(&[n, 2, 6, 6], -1.0, 1.0, &mut rng);
                let y = conv.forward(&x, false);
                let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
                let gi = conv.backward(&g);
                let (wg, bg) = {
                    let params = conv.params_mut();
                    (params[0].grad.clone(), params[1].grad.clone())
                };
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                (bits(&y), bits(&gi), bits(&wg), bits(&bg))
            })
        };
        // Batches of 1 (inference) and 16 (training) as well as 3.
        for n in [1, 3, 16] {
            let serial = run(1, n);
            for threads in [2, 4, 8] {
                assert_eq!(run(threads, n), serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn param_count_reports_all() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(10, 5, &mut rng);
        assert_eq!(d.param_count(), 55);
        let mut c = Conv2d::new(3, 8, 3, 1, &mut rng);
        assert_eq!(c.param_count(), 8 * 3 * 9 + 8);
    }
}
