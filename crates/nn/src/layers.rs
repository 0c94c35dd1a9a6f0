//! Neural-network layers with explicit forward/backward passes.
//!
//! Everything is `f32` and runs on lane-major tiles of [`LANES`]
//! samples: the forward kernels write into caller-owned tiles the
//! backward kernels read, and gradients accumulate into caller-owned
//! buffers so minibatch shards can be processed in parallel and
//! reduced. The one-sample passes survive only as the test-only
//! scalar references every lane kernel is pinned to (`reference`).

use crate::isa::{Isa, Kernel};
use rand::rngs::StdRng;
use rand::Rng;

fn xavier(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> f32 {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    rng.gen_range(-bound..bound)
}

/// 1-D convolution over a `[channels][length]` input with kernel size
/// `k`, stride 1 and symmetric zero padding of `k/2` (length
/// preserving for odd `k`).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv1d {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Kernel width (odd).
    pub k: usize,
    /// Weights, laid out `[out][in][k]`.
    pub w: Vec<f32>,
    /// Per-output-channel bias.
    pub b: Vec<f32>,
}

impl Conv1d {
    /// Xavier-initialized convolution.
    pub fn new(in_ch: usize, out_ch: usize, k: usize, rng: &mut StdRng) -> Conv1d {
        assert!(k % 2 == 1, "kernel must be odd");
        let w = (0..out_ch * in_ch * k)
            .map(|_| xavier(in_ch * k, out_ch * k, rng))
            .collect();
        Conv1d {
            in_ch,
            out_ch,
            k,
            w,
            b: vec![0.0; out_ch],
        }
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Lane-major forward over [`LANES`] samples at once: `xt` is
    /// `[in_ch][len][LANES]` (lane `j` = sample `j`), `yt` receives
    /// `[out_ch][len][LANES]` in the same layout.
    ///
    /// With samples as the innermost contiguous dimension, one
    /// broadcast weight feeds 8 independent lanes, and the kernel is
    /// register-blocked: a block of output channels × output columns
    /// keeps its accumulators in registers across every `(i, dk)` tap
    /// and stores them once. Each lane's
    /// per-element chain is bias-seeded then ascending `(i, dk)` over
    /// every in-bounds tap, zero weights included (`0 · ∞` is NaN here
    /// as in the backward pass) — the scalar reference's chain, which
    /// the tests pin each lane to bitwise. Runs the AVX2 build of the
    /// kernel on CPUs that have it (same bits; see the `isa` module).
    pub fn forward_lanes(&self, xt: &[f32], len: usize, yt: &mut Vec<f32>) {
        self.forward_lanes_on(Isa::detected(), xt, len, yt);
    }

    /// [`Conv1d::forward_lanes`] compiled for `isa`.
    pub(crate) fn forward_lanes_on(&self, isa: Isa, xt: &[f32], len: usize, yt: &mut Vec<f32>) {
        assert_eq!(xt.len(), self.in_ch * len * LANES, "conv input tile shape");
        yt.clear();
        yt.resize(self.out_ch * len * LANES, 0.0);
        isa.run(ConvTile::<false> {
            w: &self.w,
            seed: Some(&self.b),
            out_stride: self.in_ch * self.k,
            red_stride: self.k,
            red_ch: self.in_ch,
            out_ch: self.out_ch,
            k: self.k,
            len,
            xt: xt.as_chunks().0,
            yt: yt.as_chunks_mut().0,
        });
    }

    /// Input gradient over a lane-major tile: `gyt` is the output
    /// gradient `[out_ch][len][LANES]`, `gxt` receives the input
    /// gradient `[in_ch][len][LANES]`.
    ///
    /// This is the transposed convolution, run by the same
    /// register-blocked kernel as [`Conv1d::forward_lanes`] with the
    /// roles of the channels swapped and the taps mirrored. Each lane's
    /// per-element chain is zero-seeded then ascending `(o, dk)` over
    /// in-bounds taps — the one-sample backward pass's chain, which
    /// zero-fills the input gradient and adds `gy · w` tap by tap.
    pub(crate) fn input_grad_lanes(&self, gyt: &[f32], len: usize, gxt: &mut Vec<f32>) {
        self.input_grad_lanes_on(Isa::detected(), gyt, len, gxt);
    }

    /// [`Conv1d::input_grad_lanes`] compiled for `isa`.
    pub(crate) fn input_grad_lanes_on(
        &self,
        isa: Isa,
        gyt: &[f32],
        len: usize,
        gxt: &mut Vec<f32>,
    ) {
        assert_eq!(
            gyt.len(),
            self.out_ch * len * LANES,
            "conv gradient tile shape"
        );
        gxt.clear();
        gxt.resize(self.in_ch * len * LANES, 0.0);
        isa.run(ConvTile::<true> {
            w: &self.w,
            seed: None,
            out_stride: self.k,
            red_stride: self.in_ch * self.k,
            red_ch: self.out_ch,
            out_ch: self.in_ch,
            k: self.k,
            len,
            xt: gyt.as_chunks().0,
            yt: gxt.as_chunks_mut().0,
        });
    }

    /// Weight and bias gradients over a lane-major tile: `xt` is the
    /// input `[in_ch][len][LANES]`, `gyt` the output gradient
    /// `[out_ch][len][LANES]`; lanes `0..live` hold samples and the
    /// rest are padding, left out of every sum.
    ///
    /// Each lane computes the one-sample backward pass's chains — for
    /// a weight, zero-seeded then ascending `t` over the tap's
    /// in-bounds columns; for a bias, `Iterator::sum`'s seed then
    /// ascending `t` — and the live lanes are then added into `gw` /
    /// `gb` in lane order, as the one-sample pass adds sample after
    /// sample. Register-blocked over 4 output × 3 input channels.
    pub(crate) fn weight_grads_lanes(
        &self,
        xt: &[f32],
        len: usize,
        gyt: &[f32],
        live: usize,
        gw: &mut [f32],
        gb: &mut [f32],
    ) {
        self.weight_grads_lanes_on(Isa::detected(), xt, len, gyt, live, gw, gb);
    }

    /// [`Conv1d::weight_grads_lanes`] compiled for `isa`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn weight_grads_lanes_on(
        &self,
        isa: Isa,
        xt: &[f32],
        len: usize,
        gyt: &[f32],
        live: usize,
        gw: &mut [f32],
        gb: &mut [f32],
    ) {
        assert_eq!(xt.len(), self.in_ch * len * LANES, "conv input tile shape");
        assert_eq!(
            gyt.len(),
            self.out_ch * len * LANES,
            "conv gradient tile shape"
        );
        assert_eq!(
            (gw.len(), gb.len()),
            (self.w.len(), self.b.len()),
            "conv gradient shape"
        );
        assert!(live <= LANES, "at most {LANES} live lanes");
        isa.run(ConvWeightTile {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            k: self.k,
            len,
            live,
            xt: xt.as_chunks().0,
            gyt: gyt.as_chunks().0,
            gw,
            gb,
        });
    }
}

/// The operands of one lane-major convolution pass, with the tiles
/// viewed as 8-lane columns: [`Conv1d::forward_lanes`]
/// (`TRANSPOSED = false`) or [`Conv1d::input_grad_lanes`]
/// (`TRANSPOSED = true`). Output channel `o` at column `t` sums
/// `w[o · out_stride + r · red_stride + dk] · xt[r][s]` over reduction
/// channels `r` and taps `dk`, where `s = t + dk - pad` forward and
/// `s = t + pad - dk` transposed.
struct ConvTile<'a, const TRANSPOSED: bool> {
    w: &'a [f32],
    /// Per-output-channel accumulator seed (the bias); `None` seeds
    /// `0.0`.
    seed: Option<&'a [f32]>,
    /// Weight index step of one output channel.
    out_stride: usize,
    /// Weight index step of one reduction channel.
    red_stride: usize,
    red_ch: usize,
    out_ch: usize,
    k: usize,
    len: usize,
    /// `[red_ch][len]` input lane columns.
    xt: &'a [[f32; LANES]],
    /// `[out_ch][len]` output lane columns.
    yt: &'a mut [[f32; LANES]],
}

impl<const TRANSPOSED: bool> Kernel for ConvTile<'_, TRANSPOSED> {
    #[inline(always)]
    fn run(mut self) {
        if self.len == 0 {
            return;
        }
        let o = self.channels::<4>(0);
        self.channels::<1>(o);
    }
}

impl<const TRANSPOSED: bool> ConvTile<'_, TRANSPOSED> {
    /// Output channels from `o` on in blocks of `OB` while a whole
    /// block fits, over every column; returns the first
    /// channel left over. Interior columns, where every tap lands in
    /// `[0, len)`, go in blocks of 3 (then 2, 1): 4 channels × 3
    /// columns is 12 accumulators, as many as the 16 ymm registers
    /// hold beside the operands. Edge columns run one at a time over
    /// their in-bounds taps.
    #[inline(always)]
    fn channels<const OB: usize>(&mut self, mut o: usize) -> usize {
        let (k, len, pad) = (self.k, self.len, self.k / 2);
        // The interior `[pad, len + pad - k + 1)`, clamped for inputs
        // shorter than the kernel.
        let lo = pad.min(len);
        let hi = (len + pad + 1).saturating_sub(k).clamp(lo, len);
        while o + OB <= self.out_ch {
            for t in (0..lo).chain(hi..len) {
                let taps = if TRANSPOSED {
                    (t + pad + 1).saturating_sub(len)..(t + pad + 1).min(k)
                } else {
                    pad.saturating_sub(t)..(len + pad - t).min(k)
                };
                self.block::<OB, 1>(o, t, taps);
            }
            let t = self.columns::<OB, 3>(o, lo, hi);
            let t = self.columns::<OB, 2>(o, t, hi);
            self.columns::<OB, 1>(o, t, hi);
            o += OB;
        }
        o
    }

    /// Interior columns from `t` on in blocks of `TB` while a whole
    /// block fits below `hi`; returns the first column left over.
    #[inline(always)]
    fn columns<const OB: usize, const TB: usize>(
        &mut self,
        o: usize,
        mut t: usize,
        hi: usize,
    ) -> usize {
        while t + TB <= hi {
            self.block::<OB, TB>(o, t, 0..self.k);
            t += TB;
        }
        t
    }

    /// One register block: output channels `o0..o0 + OB` × columns
    /// `t0..t0 + TB`, accumulating taps `taps` (in bounds for every
    /// column of the block). The `OB × TB` 8-lane accumulators are
    /// seeded, updated across every `(r, dk)` in ascending order, and
    /// stored once.
    #[inline(always)]
    fn block<const OB: usize, const TB: usize>(
        &mut self,
        o0: usize,
        t0: usize,
        taps: std::ops::Range<usize>,
    ) {
        let (len, pad) = (self.len, self.k / 2);
        let mut acc = [[[0.0f32; LANES]; TB]; OB];
        if let Some(seed) = self.seed {
            for (a, &b) in acc.iter_mut().zip(&seed[o0..o0 + OB]) {
                *a = [[b; LANES]; TB];
            }
        }
        for r in 0..self.red_ch {
            let xr = &self.xt[r * len..(r + 1) * len];
            for dk in taps.clone() {
                let s = if TRANSPOSED {
                    t0 + pad - dk
                } else {
                    t0 + dk - pad
                };
                let xs: &[[f32; LANES]; TB] =
                    xr[s..s + TB].try_into().expect("a block reads TB columns");
                for (ob, a) in acc.iter_mut().enumerate() {
                    let wv = self.w[(o0 + ob) * self.out_stride + r * self.red_stride + dk];
                    for (a, x) in a.iter_mut().zip(xs) {
                        for (a, &x) in a.iter_mut().zip(x) {
                            *a += wv * x;
                        }
                    }
                }
            }
        }
        for (ob, a) in acc.iter().enumerate() {
            self.yt[(o0 + ob) * len + t0..][..TB].copy_from_slice(a);
        }
    }
}

/// The operands of one [`Conv1d::weight_grads_lanes`] call, with the
/// tiles viewed as 8-lane columns.
struct ConvWeightTile<'a> {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    len: usize,
    live: usize,
    /// `[in_ch][len]` input lane columns.
    xt: &'a [[f32; LANES]],
    /// `[out_ch][len]` output-gradient lane columns.
    gyt: &'a [[f32; LANES]],
    gw: &'a mut [f32],
    gb: &'a mut [f32],
}

impl Kernel for ConvWeightTile<'_> {
    #[inline(always)]
    fn run(mut self) {
        let len = self.len;
        // The seed `Iterator::sum` starts a float chain from, which
        // the one-sample bias gradient (`gy.iter().sum()`) inherits.
        let seed: f32 = std::iter::empty::<f32>().sum();
        for (o, gb) in self.gb.iter_mut().enumerate() {
            let mut acc = [seed; LANES];
            for g in &self.gyt[o * len..(o + 1) * len] {
                for (a, &g) in acc.iter_mut().zip(g) {
                    *a += g;
                }
            }
            fold_lanes(gb, &acc, self.live);
        }
        let o = self.channels::<4>(0);
        self.channels::<1>(o);
    }
}

impl ConvWeightTile<'_> {
    /// Output channels from `o` on in blocks of `OB` while a whole
    /// block fits, against input channels in blocks of 3 (then 2, 1);
    /// returns the first output channel left over.
    #[inline(always)]
    fn channels<const OB: usize>(&mut self, mut o: usize) -> usize {
        while o + OB <= self.out_ch {
            let i = self.inputs::<OB, 3>(o, 0);
            let i = self.inputs::<OB, 2>(o, i);
            self.inputs::<OB, 1>(o, i);
            o += OB;
        }
        o
    }

    /// Input channels from `i` on in blocks of `IB` while a whole
    /// block fits, every tap; returns the first input channel left
    /// over.
    #[inline(always)]
    fn inputs<const OB: usize, const IB: usize>(&mut self, o: usize, mut i: usize) -> usize {
        while i + IB <= self.in_ch {
            for dk in 0..self.k {
                self.block::<OB, IB>(o, i, dk);
            }
            i += IB;
        }
        i
    }

    /// One register block: the tap-`dk` weights of output channels
    /// `o0..o0 + OB` × input channels `i0..i0 + IB`. Each of the
    /// `OB × IB` 8-lane accumulators is zero-seeded and runs over the
    /// tap's in-bounds columns in ascending `t`; the live lanes are
    /// then added into `gw` in lane order. A tap with no in-bounds
    /// column (inputs shorter than the kernel) adds nothing.
    #[inline(always)]
    fn block<const OB: usize, const IB: usize>(&mut self, o0: usize, i0: usize, dk: usize) {
        let (len, pad, k) = (self.len, self.k / 2, self.k);
        let t0 = pad.saturating_sub(dk);
        let t1 = (len + pad).saturating_sub(dk).min(len);
        if t0 >= t1 {
            return;
        }
        let mut acc = [[[0.0f32; LANES]; IB]; OB];
        for t in t0..t1 {
            let s = t + dk - pad;
            // Copy the operand columns out first: indexing the tiles
            // inside the accumulator loops keeps the accumulators in
            // memory, several times slower.
            let gs: [[f32; LANES]; OB] = std::array::from_fn(|ob| self.gyt[(o0 + ob) * len + t]);
            let xs: [[f32; LANES]; IB] = std::array::from_fn(|ib| self.xt[(i0 + ib) * len + s]);
            for (a, g) in acc.iter_mut().zip(&gs) {
                for (a, x) in a.iter_mut().zip(&xs) {
                    for ((a, &g), &x) in a.iter_mut().zip(g).zip(x) {
                        *a += g * x;
                    }
                }
            }
        }
        for (ob, a) in acc.iter().enumerate() {
            for (ib, a) in a.iter().enumerate() {
                let w = ((o0 + ob) * self.in_ch + i0 + ib) * k + dk;
                fold_lanes(&mut self.gw[w], a, self.live);
            }
        }
    }
}

/// Adds lanes `0..live` of `acc` into `dst`, in lane order: the
/// sample-after-sample accumulation of the one-sample backward pass.
#[inline(always)]
fn fold_lanes(dst: &mut f32, acc: &[f32; LANES], live: usize) {
    let mut sum = *dst;
    for &a in &acc[..live] {
        sum += a;
    }
    *dst = sum;
}

/// `p` where the output gradient `g` is nonzero, else `-0.0` — the
/// exact additive identity (`x + -0.0` is `x` for every `x`, `-0.0`
/// and NaN included). Adding the result is the per-lane form of the
/// one-sample dense backward's `if g == 0.0 { continue }`: a select
/// rather than a branch, so it vectorizes, and it leaves the
/// accumulator's bits untouched even where `p` would be `0 · ∞ = NaN`.
#[inline(always)]
fn skip_zero(g: f32, p: f32) -> f32 {
    if g == 0.0 {
        -0.0
    } else {
        p
    }
}

/// Sample lanes per batched-inference tile ([`Dense::forward_batch`],
/// [`Conv1d::forward_lanes`], [`maxpool2_lanes`]): 8 floats is one
/// AVX register (or two SSE ones), and small enough that accumulator
/// blocks stay in registers. Tiles are *lane-major*: element `e` of
/// samples `0..8` sits at `[e * LANES .. e * LANES + 8]`, so every
/// per-element op is a contiguous 8-wide SIMD op.
pub const LANES: usize = 8;

/// Fully connected layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Input features.
    pub in_dim: usize,
    /// Output features.
    pub out_dim: usize,
    /// Weights `[out][in]`.
    pub w: Vec<f32>,
    /// Bias `[out]`.
    pub b: Vec<f32>,
}

impl Dense {
    /// Xavier-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Dense {
        let w = (0..out_dim * in_dim)
            .map(|_| xavier(in_dim, out_dim, rng))
            .collect();
        Dense {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
        }
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Tiled batch-GEMM over [`LANES`] samples at once: `xt` is
    /// the input tile *transposed* to `[in_dim][LANES]` (lane `j` =
    /// sample `j`), `out` receives `[out_dim][LANES]` in the same
    /// lane-major layout.
    ///
    /// Each lane's accumulation chain is the scalar reference's —
    /// zero-seeded, ascending `i`, bias added last — which the tests
    /// pin each lane to bitwise. Outputs are register-blocked 4 at a
    /// time (then 2, 1): each input column `xt[i]` is loaded once per
    /// block and feeds 4 independent accumulator chains, and the
    /// weight matrix streams through once per *tile* instead of once
    /// per sample. Runs the AVX2 build of the kernel on CPUs that have it
    /// (same bits; see the `isa` module).
    pub fn forward_batch(&self, xt: &[f32], out: &mut Vec<f32>) {
        self.forward_batch_on(Isa::detected(), xt, out);
    }

    /// [`Dense::forward_batch`] compiled for `isa`.
    pub(crate) fn forward_batch_on(&self, isa: Isa, xt: &[f32], out: &mut Vec<f32>) {
        assert_eq!(xt.len(), self.in_dim * LANES, "dense input tile shape");
        out.clear();
        out.resize(self.out_dim * LANES, 0.0);
        isa.run(DenseTile {
            w: &self.w,
            b: &self.b,
            in_dim: self.in_dim,
            xt: xt.as_chunks().0,
            out: out.as_chunks_mut().0,
        });
    }

    /// Weight and bias gradients over a lane-major tile: `xt` is the
    /// input `[in_dim][LANES]`, `gyt` the output gradient
    /// `[out_dim][LANES]`; lanes `0..live` hold samples and the rest
    /// are padding, left out of every sum.
    ///
    /// Every element adds the live lanes' terms in lane order — the
    /// one-sample backward pass run sample after sample: `gb[o] += g`,
    /// and `gw[o][i] += g · x[i]` except where `g == 0.0`, whose term
    /// the one-sample pass skips (here a per-lane mask, see
    /// [`skip_zero`]). Blocks of 32 (then 8, 1) inputs are transposed
    /// to sample-major once and kept in registers across every lane of
    /// every output row.
    pub(crate) fn weight_grads_batch(
        &self,
        xt: &[f32],
        gyt: &[f32],
        live: usize,
        gw: &mut [f32],
        gb: &mut [f32],
    ) {
        self.weight_grads_batch_on(Isa::detected(), xt, gyt, live, gw, gb);
    }

    /// [`Dense::weight_grads_batch`] compiled for `isa`.
    pub(crate) fn weight_grads_batch_on(
        &self,
        isa: Isa,
        xt: &[f32],
        gyt: &[f32],
        live: usize,
        gw: &mut [f32],
        gb: &mut [f32],
    ) {
        assert_eq!(xt.len(), self.in_dim * LANES, "dense input tile shape");
        assert_eq!(gyt.len(), self.out_dim * LANES, "dense gradient tile shape");
        assert_eq!(
            (gw.len(), gb.len()),
            (self.w.len(), self.b.len()),
            "dense gradient shape"
        );
        assert!(live <= LANES, "at most {LANES} live lanes");
        isa.run(DenseWeightTile {
            in_dim: self.in_dim,
            live,
            xt: xt.as_chunks().0,
            gyt: gyt.as_chunks().0,
            gw,
            gb,
        });
    }

    /// Input gradient over a lane-major tile: `gyt` is the output
    /// gradient `[out_dim][LANES]`, `gxt` receives `[in_dim][LANES]`.
    ///
    /// Each lane's chain is the one-sample backward pass's: zero-seeded,
    /// ascending `o`, adding `g · w[o][i]` except where `g == 0.0`
    /// (masked per lane, see [`skip_zero`]). Inputs are
    /// register-blocked 4 at a time (then 2, 1).
    pub(crate) fn input_grad_batch(&self, gyt: &[f32], gxt: &mut Vec<f32>) {
        self.input_grad_batch_on(Isa::detected(), gyt, gxt);
    }

    /// [`Dense::input_grad_batch`] compiled for `isa`.
    pub(crate) fn input_grad_batch_on(&self, isa: Isa, gyt: &[f32], gxt: &mut Vec<f32>) {
        assert_eq!(gyt.len(), self.out_dim * LANES, "dense gradient tile shape");
        gxt.clear();
        gxt.resize(self.in_dim * LANES, 0.0);
        isa.run(DenseGradTile {
            w: &self.w,
            in_dim: self.in_dim,
            gyt: gyt.as_chunks().0,
            gxt: gxt.as_chunks_mut().0,
        });
    }
}

/// The operands of one [`Dense::forward_batch`] call, with the weights
/// dereferenced once and the tiles viewed as 8-lane columns.
struct DenseTile<'a> {
    w: &'a [f32],
    b: &'a [f32],
    in_dim: usize,
    /// `[in_dim]` input lane columns.
    xt: &'a [[f32; LANES]],
    /// `[out_dim]` output lane columns.
    out: &'a mut [[f32; LANES]],
}

impl Kernel for DenseTile<'_> {
    #[inline(always)]
    fn run(mut self) {
        let o = self.blocks::<4>(0);
        let o = self.blocks::<2>(o);
        self.blocks::<1>(o);
    }
}

impl DenseTile<'_> {
    /// Computes outputs from `o` on in blocks of `OB` while a whole
    /// block fits; returns the first output left over.
    #[inline(always)]
    fn blocks<const OB: usize>(&mut self, mut o: usize) -> usize {
        let n = self.in_dim;
        while o + OB <= self.out.len() {
            let w = &self.w[o * n..][..OB * n];
            let mut acc = [[0.0f32; LANES]; OB];
            for (i, x) in self.xt[..n].iter().enumerate() {
                for (ob, a) in acc.iter_mut().enumerate() {
                    let wv = w[ob * n + i];
                    for (a, &x) in a.iter_mut().zip(x) {
                        *a += wv * x;
                    }
                }
            }
            let outs = self.out[o..o + OB].iter_mut();
            for ((dst, a), &b) in outs.zip(&acc).zip(&self.b[o..o + OB]) {
                for (d, &a) in dst.iter_mut().zip(a) {
                    *d = a + b;
                }
            }
            o += OB;
        }
        o
    }
}

/// The operands of one [`Dense::weight_grads_batch`] call, with the
/// tiles viewed as 8-lane columns.
struct DenseWeightTile<'a> {
    in_dim: usize,
    live: usize,
    /// `[in_dim]` input lane columns.
    xt: &'a [[f32; LANES]],
    /// `[out_dim]` output-gradient lane columns.
    gyt: &'a [[f32; LANES]],
    gw: &'a mut [f32],
    gb: &'a mut [f32],
}

impl Kernel for DenseWeightTile<'_> {
    #[inline(always)]
    fn run(mut self) {
        for (gb, g) in self.gb.iter_mut().zip(self.gyt) {
            fold_lanes(gb, g, self.live);
        }
        let i = self.columns::<32>(0);
        let i = self.columns::<8>(i);
        self.columns::<1>(i);
    }
}

impl DenseWeightTile<'_> {
    /// Input columns from `i` on in blocks of `IB` while a whole block
    /// fits; returns the first column left over. The block's inputs are
    /// transposed to `[LANES][IB]` once; then for every output row the
    /// `IB` weight gradients stay in registers while each live lane
    /// adds its masked terms.
    #[inline(always)]
    fn columns<const IB: usize>(&mut self, mut i: usize) -> usize {
        let n = self.in_dim;
        while i + IB <= n {
            let mut xs = [[0.0f32; IB]; LANES];
            for (c, x) in self.xt[i..i + IB].iter().enumerate() {
                for (xs, &x) in xs.iter_mut().zip(x) {
                    xs[c] = x;
                }
            }
            for (o, g) in self.gyt.iter().enumerate() {
                let row: &mut [f32; IB] = (&mut self.gw[o * n + i..][..IB])
                    .try_into()
                    .expect("a block spans IB columns");
                let mut acc = *row;
                for (&g, xs) in g[..self.live].iter().zip(&xs) {
                    for (a, &x) in acc.iter_mut().zip(xs) {
                        *a += skip_zero(g, g * x);
                    }
                }
                *row = acc;
            }
            i += IB;
        }
        i
    }
}

/// The operands of one [`Dense::input_grad_batch`] call, with the
/// tiles viewed as 8-lane columns.
struct DenseGradTile<'a> {
    w: &'a [f32],
    in_dim: usize,
    /// `[out_dim]` output-gradient lane columns.
    gyt: &'a [[f32; LANES]],
    /// `[in_dim]` input-gradient lane columns.
    gxt: &'a mut [[f32; LANES]],
}

impl Kernel for DenseGradTile<'_> {
    #[inline(always)]
    fn run(mut self) {
        let i = self.blocks::<4>(0);
        let i = self.blocks::<2>(i);
        self.blocks::<1>(i);
    }
}

impl DenseGradTile<'_> {
    /// Computes input gradients from `i` on in blocks of `IB` while a
    /// whole block fits; returns the first input left over.
    #[inline(always)]
    fn blocks<const IB: usize>(&mut self, mut i: usize) -> usize {
        let n = self.in_dim;
        while i + IB <= n {
            let mut acc = [[0.0f32; LANES]; IB];
            for (o, g) in self.gyt.iter().enumerate() {
                let w = &self.w[o * n + i..][..IB];
                for (a, &wv) in acc.iter_mut().zip(w) {
                    for (a, &g) in a.iter_mut().zip(g) {
                        *a += skip_zero(g, g * wv);
                    }
                }
            }
            self.gxt[i..i + IB].copy_from_slice(&acc);
            i += IB;
        }
        i
    }
}

/// In-place ReLU; returns nothing, the mask is recoverable from the
/// output (`y > 0`).
pub fn relu(y: &mut [f32]) {
    for v in y {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// Backward ReLU: zero the gradient where the forward output was zero.
/// (Written as a select rather than a conditional store, so it
/// vectorizes.)
pub fn relu_backward(y: &[f32], gy: &mut [f32]) {
    for (g, &v) in gy.iter_mut().zip(y) {
        *g = if v <= 0.0 { 0.0 } else { *g };
    }
}

/// Lane-major max-pool over [`LANES`] samples at once: `xt` is
/// `[channels][len][LANES]`, `yt` receives
/// `[channels][len/2][LANES]`. Each lane's select is `a >= b ? a : b`,
/// NaN polarity included. Runs the AVX2 build of the kernel on CPUs
/// that have it.
pub fn maxpool2_lanes(xt: &[f32], channels: usize, len: usize, yt: &mut Vec<f32>) {
    maxpool2_lanes_on(Isa::detected(), xt, channels, len, yt, None);
}

/// [`maxpool2_lanes`] for training: also records each lane's choice in
/// `left` (`[channels][len/2]` lane columns, `true` where the pair's
/// first element won), which [`maxpool2_lanes_backward`] routes the
/// gradient by.
pub(crate) fn maxpool2_lanes_train(
    xt: &[f32],
    channels: usize,
    len: usize,
    yt: &mut Vec<f32>,
    left: &mut Vec<[bool; LANES]>,
) {
    left.clear();
    left.resize(channels * (len / 2), [false; LANES]);
    maxpool2_lanes_on(Isa::detected(), xt, channels, len, yt, Some(left));
}

/// [`maxpool2_lanes`] compiled for `isa`, recording the choices into
/// `left` when given.
pub(crate) fn maxpool2_lanes_on(
    isa: Isa,
    xt: &[f32],
    channels: usize,
    len: usize,
    yt: &mut Vec<f32>,
    left: Option<&mut [[bool; LANES]]>,
) {
    assert_eq!(
        xt.len(),
        channels * len * LANES,
        "max-pool input tile shape"
    );
    yt.clear();
    yt.resize(channels * (len / 2) * LANES, 0.0);
    isa.run(PoolTile {
        len,
        xt: xt.as_chunks().0,
        yt: yt.as_chunks_mut().0,
        left,
    });
}

/// The operands of one [`maxpool2_lanes`] call, viewed as 8-lane
/// columns.
struct PoolTile<'a> {
    len: usize,
    /// `[channels][len]` input lane columns.
    xt: &'a [[f32; LANES]],
    /// `[channels][len / 2]` output lane columns.
    yt: &'a mut [[f32; LANES]],
    /// `[channels][len / 2]` choice lane columns, when recorded.
    left: Option<&'a mut [[bool; LANES]]>,
}

impl Kernel for PoolTile<'_> {
    #[inline(always)]
    fn run(self) {
        let out_len = self.len / 2;
        if out_len == 0 {
            return;
        }
        let pairs = self
            .xt
            .chunks_exact(self.len)
            .flat_map(|xc| xc.as_chunks::<2>().0);
        let outs = self.yt.chunks_exact_mut(out_len).flatten();
        match self.left {
            None => {
                for (pair, dst) in pairs.zip(outs) {
                    for ((d, &a), &b) in dst.iter_mut().zip(&pair[0]).zip(&pair[1]) {
                        *d = if a >= b { a } else { b };
                    }
                }
            }
            Some(left) => {
                for ((pair, dst), left) in pairs.zip(outs).zip(left) {
                    let lanes = dst.iter_mut().zip(left).zip(&pair[0]).zip(&pair[1]);
                    for (((d, l), &a), &b) in lanes {
                        *l = a >= b;
                        *d = if a >= b { a } else { b };
                    }
                }
            }
        }
    }
}

/// Backward of [`maxpool2_lanes_train`]: `gyt` is the pooled gradient
/// `[channels][len/2][LANES]`, `gxt` receives `[channels][len][LANES]`
/// with `0.0 + g` at each lane's recorded winner and `0.0` everywhere
/// else (a trailing odd column included) — the bits of the one-sample
/// backward pass, which zero-fills and then adds each gradient.
pub(crate) fn maxpool2_lanes_backward(
    gyt: &[f32],
    left: &[[bool; LANES]],
    channels: usize,
    len: usize,
    gxt: &mut Vec<f32>,
) {
    let out_len = len / 2;
    assert_eq!(
        gyt.len(),
        channels * out_len * LANES,
        "max-pool gradient tile shape"
    );
    assert_eq!(left.len(), channels * out_len, "max-pool choice shape");
    gxt.clear();
    gxt.resize(channels * len * LANES, 0.0);
    if out_len == 0 {
        return;
    }
    let pairs = gxt
        .as_chunks_mut::<LANES>()
        .0
        .chunks_exact_mut(len)
        .flat_map(|gc| gc.as_chunks_mut::<2>().0);
    for ((pair, g), left) in pairs.zip(gyt.as_chunks::<LANES>().0).zip(left) {
        let [a, b] = pair;
        for ((j, &g), &l) in g.iter().enumerate().zip(left) {
            let dst = if l { &mut a[j] } else { &mut b[j] };
            *dst = 0.0 + g;
        }
    }
}

/// Numerically stable softmax in place.
pub fn softmax(z: &mut [f32]) {
    let max = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in z.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in z.iter_mut() {
        *v /= sum;
    }
}

/// Cross-entropy loss of a softmax distribution against a label, and
/// the logit gradient (`p - onehot`), written into `probs` in place.
pub fn cross_entropy_backward(probs: &mut [f32], label: usize) -> f32 {
    let loss = -(probs[label].max(1e-12)).ln();
    probs[label] -= 1.0;
    loss
}

/// The one-sample passes the layers ran before they moved onto
/// lane-major tiles, kept as the bit-parity oracles of the lane kernels,
/// of the fused inference pass and of the tile trainer.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Conv1d, Dense};

    /// One-sample convolution forward: `x` is `[in_ch][len]`, `y`
    /// receives `[out_ch][len]`. Each output is bias-seeded, then adds
    /// `w · x` over every in-bounds tap in ascending `(i, dk)` order.
    pub(crate) fn conv_forward_oracle(c: &Conv1d, x: &[f32], len: usize, y: &mut Vec<f32>) {
        let pad = c.k / 2;
        y.clear();
        y.resize(c.out_ch * len, 0.0);
        for o in 0..c.out_ch {
            let yo = &mut y[o * len..(o + 1) * len];
            yo.fill(c.b[o]);
            for i in 0..c.in_ch {
                let xi = &x[i * len..(i + 1) * len];
                let wbase = (o * c.in_ch + i) * c.k;
                for dk in 0..c.k {
                    let wv = c.w[wbase + dk];
                    let t0 = pad.saturating_sub(dk);
                    let t1 = (len + pad).saturating_sub(dk).min(len);
                    for t in t0..t1 {
                        yo[t] += wv * xi[t + dk - pad];
                    }
                }
            }
        }
    }

    /// One-sample dense forward, `y = W x + b`: each output a
    /// zero-seeded dot product in ascending `i`, the bias added last.
    pub(crate) fn dense_forward_oracle(d: &Dense, x: &[f32], y: &mut Vec<f32>) {
        y.clear();
        for o in 0..d.out_dim {
            let row = &d.w[o * d.in_dim..(o + 1) * d.in_dim];
            let mut dot = 0.0f32;
            for (&w, &x) in row.iter().zip(x) {
                dot += w * x;
            }
            y.push(dot + d.b[o]);
        }
    }

    impl Conv1d {
        /// One-sample backward pass. `gy` is the output gradient
        /// `[out_ch][len]`; fills `gx` (same shape as `x`) and accumulates
        /// into `gw`/`gb`.
        pub(crate) fn backward(
            &self,
            x: &[f32],
            len: usize,
            gy: &[f32],
            gx: &mut Vec<f32>,
            gw: &mut [f32],
            gb: &mut [f32],
        ) {
            let pad = self.k / 2;
            gx.clear();
            gx.resize(self.in_ch * len, 0.0);
            for o in 0..self.out_ch {
                let gyo = &gy[o * len..(o + 1) * len];
                gb[o] += gyo.iter().sum::<f32>();
                for i in 0..self.in_ch {
                    let xi = &x[i * len..(i + 1) * len];
                    let gxi = &mut gx[i * len..(i + 1) * len];
                    let wbase = (o * self.in_ch + i) * self.k;
                    for dk in 0..self.k {
                        // t + dk - pad must be in [0, len)
                        let t0 = pad.saturating_sub(dk);
                        let t1 = (len + pad).saturating_sub(dk).min(len);
                        if t0 >= t1 {
                            continue; // tap entirely out of bounds (len < k)
                        }
                        let (s0, s1) = (t0 + dk - pad, t1 + dk - pad);
                        let wv = self.w[wbase + dk];
                        for (d, &g) in gxi[s0..s1].iter_mut().zip(&gyo[t0..t1]) {
                            *d += g * wv;
                        }
                        let mut gwv = 0.0f32;
                        for (&g, &xv) in gyo[t0..t1].iter().zip(&xi[s0..s1]) {
                            gwv += g * xv;
                        }
                        gw[wbase + dk] += gwv;
                    }
                }
            }
        }
    }

    impl Dense {
        /// One-sample backward pass; fills `gx`, accumulates `gw`/`gb`.
        pub(crate) fn backward(
            &self,
            x: &[f32],
            gy: &[f32],
            gx: &mut Vec<f32>,
            gw: &mut [f32],
            gb: &mut [f32],
        ) {
            gx.clear();
            gx.resize(self.in_dim, 0.0);
            for o in 0..self.out_dim {
                let g = gy[o];
                gb[o] += g;
                if g == 0.0 {
                    continue;
                }
                let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
                let grow = &mut gw[o * self.in_dim..(o + 1) * self.in_dim];
                for i in 0..self.in_dim {
                    grow[i] += g * x[i];
                    gx[i] += g * row[i];
                }
            }
        }
    }

    /// Max-pool by 2 that also returns each output's argmax index.
    pub(crate) fn maxpool2_argmax(x: &[f32], channels: usize, len: usize) -> (Vec<f32>, Vec<u32>) {
        let out_len = len / 2;
        let mut y = Vec::with_capacity(channels * out_len);
        let mut arg = Vec::with_capacity(channels * out_len);
        for c in 0..channels {
            let xc = &x[c * len..(c + 1) * len];
            for t in 0..out_len {
                let (a, b) = (xc[2 * t], xc[2 * t + 1]);
                if a >= b {
                    y.push(a);
                    arg.push((c * len + 2 * t) as u32);
                } else {
                    y.push(b);
                    arg.push((c * len + 2 * t + 1) as u32);
                }
            }
        }
        (y, arg)
    }

    /// Backward max-pool: route gradients to the argmax positions.
    pub(crate) fn maxpool2_backward(gy: &[f32], arg: &[u32], input_len_total: usize) -> Vec<f32> {
        let mut gx = vec![0.0; input_len_total];
        for (g, &a) in gy.iter().zip(arg) {
            gx[a as usize] += g;
        }
        gx
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{conv_forward_oracle, dense_forward_oracle};
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The pre-blocking scalar backward loop, kept verbatim as the
    /// bit-parity oracle.
    fn conv_backward_oracle(
        c: &Conv1d,
        x: &[f32],
        len: usize,
        gy: &[f32],
        gx: &mut Vec<f32>,
        gw: &mut [f32],
        gb: &mut [f32],
    ) {
        let pad = c.k / 2;
        gx.clear();
        gx.resize(c.in_ch * len, 0.0);
        for o in 0..c.out_ch {
            let gyo = &gy[o * len..(o + 1) * len];
            gb[o] += gyo.iter().sum::<f32>();
            for i in 0..c.in_ch {
                let xi = &x[i * len..(i + 1) * len];
                let gxi = &mut gx[i * len..(i + 1) * len];
                let wbase = (o * c.in_ch + i) * c.k;
                for dk in 0..c.k {
                    let t0 = pad.saturating_sub(dk);
                    let t1 = (len + pad).saturating_sub(dk).min(len);
                    let mut gwv = 0.0f32;
                    let wv = c.w[wbase + dk];
                    for t in t0..t1 {
                        let xv = xi[t + dk - pad];
                        gwv += gyo[t] * xv;
                        gxi[t + dk - pad] += gyo[t] * wv;
                    }
                    gw[wbase + dk] += gwv;
                }
            }
        }
    }

    /// Every instruction set this CPU runs the lane kernels under.
    fn isas() -> Vec<Isa> {
        let mut isas = vec![Isa::BASELINE, Isa::detected()];
        isas.dedup();
        isas
    }

    /// Interleaves [`LANES`] equally long samples lane-major: element
    /// `e` of sample `j` lands at `e * LANES + j`.
    fn lane_major(samples: &[Vec<f32>]) -> Vec<f32> {
        let mut xt = vec![0.0f32; samples[0].len() * LANES];
        for (j, s) in samples.iter().enumerate() {
            for (e, &v) in s.iter().enumerate() {
                xt[e * LANES + j] = v;
            }
        }
        xt
    }

    /// Lane `j` of a lane-major tile.
    fn lane(tile: &[f32], j: usize) -> Vec<f32> {
        tile.iter().skip(j).step_by(LANES).copied().collect()
    }

    /// A value from `-2..2`; `mode` 1 makes a quarter of them ±0.0
    /// (signed-zero sums, the dense zero-gradient skip) and `mode` 2
    /// adds a few NaN and ±∞ on top.
    fn value(r: &mut StdRng, mode: usize) -> f32 {
        match (mode, r.gen_range(0..64)) {
            (1.., 0..8) => 0.0,
            (1.., 8..16) => -0.0,
            (2, 16) => f32::NAN,
            (2, 17) => f32::INFINITY,
            (2, 18) => f32::NEG_INFINITY,
            _ => r.gen_range(-2.0f32..2.0),
        }
    }

    /// What a padded lane holds in the backward proptests: values that
    /// would show in any sum they entered.
    fn poison(r: &mut StdRng) -> f32 {
        [f32::NAN, f32::INFINITY, -1e30][r.gen_range(0..3)]
    }

    /// [`LANES`] samples of `n` values each: lanes `0..live` drawn with
    /// [`value`], the rest [`poison`].
    fn samples(r: &mut StdRng, n: usize, live: usize, mode: usize) -> Vec<Vec<f32>> {
        (0..LANES)
            .map(|j| {
                (0..n)
                    .map(|_| if j < live { value(r, mode) } else { poison(r) })
                    .collect()
            })
            .collect()
    }

    /// Bits, with every NaN mapped to one pattern: which payload a
    /// product of two NaNs keeps depends on operand order, and the
    /// compiler may commute a multiply.
    fn nan_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    fn conv_with_weights(in_ch: usize, out_ch: usize, k: usize, ws: &[f32], bs: &[f32]) -> Conv1d {
        let mut rng = StdRng::seed_from_u64(99);
        let mut c = Conv1d::new(in_ch, out_ch, k, &mut rng);
        c.w = ws.to_vec();
        c.b = bs.to_vec();
        c
    }

    proptest! {
        /// The restructured backward (split saxpy/reduction loops) is
        /// bitwise equal to the old fused scalar loop on finite
        /// inputs.
        #[test]
        fn restructured_backward_is_bitwise_equal_to_scalar_oracle(
            seed in 0u64..1000,
            len in 1usize..40,
            in_ch in 1usize..4,
            out_ch in 1usize..4,
            kk in 0usize..3,
        ) {
            let k = 2 * kk + 1;
            let mut rng = StdRng::seed_from_u64(seed);
            use rand::Rng;
            let nz = |r: &mut StdRng| {
                let v: f32 = r.gen_range(0.05f32..2.0);
                if r.gen_range(0..2) == 0 { v } else { -v }
            };
            let ws: Vec<f32> = (0..out_ch * in_ch * k).map(|_| nz(&mut rng)).collect();
            let bs: Vec<f32> = (0..out_ch).map(|_| nz(&mut rng)).collect();
            let conv = conv_with_weights(in_ch, out_ch, k, &ws, &bs);
            let x: Vec<f32> = (0..in_ch * len).map(|_| nz(&mut rng)).collect();
            let gy: Vec<f32> = (0..out_ch * len).map(|_| nz(&mut rng)).collect();
            let (mut gx, mut gx_ref) = (Vec::new(), Vec::new());
            let mut gw = vec![0.1f32; conv.w.len()];
            let mut gw_ref = gw.clone();
            let mut gb = vec![0.2f32; conv.b.len()];
            let mut gb_ref = gb.clone();
            conv.backward(&x, len, &gy, &mut gx, &mut gw, &mut gb);
            conv_backward_oracle(&conv, &x, len, &gy, &mut gx_ref, &mut gw_ref, &mut gb_ref);
            let b = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(b(&gx), b(&gx_ref));
            prop_assert_eq!(b(&gw), b(&gw_ref));
            prop_assert_eq!(b(&gb), b(&gb_ref));
        }

        /// The register-blocked forward kernel is bitwise equal to the
        /// scalar reference on every lane, on every instruction set
        /// this CPU runs, with ±0.0, NaN and ±∞ in the weights, biases
        /// and inputs — zero taps included, whose `0 · ∞` is NaN.
        #[test]
        fn blocked_forward_is_bitwise_equal_to_scalar_oracle(
            seed in 0u64..1000,
            len in 1usize..40,
            in_ch in 1usize..9,
            out_ch in 1usize..9,
            kk in 0usize..3,
            mode in 1usize..3,
        ) {
            let k = 2 * kk + 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut conv = Conv1d::new(in_ch, out_ch, k, &mut rng);
            conv.w = (0..conv.w.len()).map(|_| value(&mut rng, mode)).collect();
            conv.b = (0..out_ch).map(|_| value(&mut rng, mode)).collect();
            let xs = samples(&mut rng, in_ch * len, LANES, mode);
            let xt = lane_major(&xs);
            for isa in isas() {
                let mut yt = Vec::new();
                conv.forward_lanes_on(isa, &xt, len, &mut yt);
                for (j, x) in xs.iter().enumerate() {
                    let mut y = Vec::new();
                    conv_forward_oracle(&conv, x, len, &mut y);
                    prop_assert_eq!(nan_bits(&lane(&yt, j)), nan_bits(&y), "{:?} lane {}", isa, j);
                }
            }
        }

        /// Lane `j` of `Conv1d::forward_lanes` is bitwise equal to
        /// the scalar reference on sample `j`, on every instruction
        /// set this CPU runs, across channel counts that leave every
        /// register-block remainder and lengths shorter than, equal to
        /// and longer than the kernel.
        #[test]
        fn conv_forward_lanes_match_single_sample_path(
            seed in 0u64..1000,
            len in 1usize..40,
            in_ch in 1usize..9,
            out_ch in 1usize..9,
            kk in 0usize..3,
        ) {
            let k = 2 * kk + 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut conv = Conv1d::new(in_ch, out_ch, k, &mut rng);
            conv.b = (0..out_ch).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let samples: Vec<Vec<f32>> = (0..LANES)
                .map(|_| (0..in_ch * len).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
                .collect();
            let xt = lane_major(&samples);
            for isa in isas() {
                let mut yt = Vec::new();
                conv.forward_lanes_on(isa, &xt, len, &mut yt);
                prop_assert_eq!(yt.len(), out_ch * len * LANES);
                for (j, s) in samples.iter().enumerate() {
                    let mut y = Vec::new();
                    conv_forward_oracle(&conv, s, len, &mut y);
                    for (e, v) in y.iter().enumerate() {
                        prop_assert_eq!(yt[e * LANES + j].to_bits(), v.to_bits(), "{:?} lane {} element {}", isa, j, e);
                    }
                }
            }
        }

        /// The baseline and AVX2 builds of every lane kernel give
        /// identical bits, zeros and signed values included. (On a CPU
        /// without AVX2 both runs take the baseline build.)
        #[test]
        fn lane_kernel_builds_give_identical_bits(
            seed in 0u64..1000,
            len in 1usize..30,
            in_ch in 1usize..9,
            out_ch in 1usize..13,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let value = |r: &mut StdRng| match r.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => r.gen_range(-3.0f32..3.0),
            };
            let mut conv = Conv1d::new(in_ch, out_ch, 3, &mut rng);
            conv.w = (0..conv.w.len()).map(|_| value(&mut rng)).collect();
            let mut dense = Dense::new(in_ch * len, out_ch, &mut rng);
            dense.w = (0..dense.w.len()).map(|_| value(&mut rng)).collect();
            let xt: Vec<f32> = (0..in_ch * len * LANES).map(|_| value(&mut rng)).collect();
            let gyt: Vec<f32> = (0..out_ch * len * LANES).map(|_| value(&mut rng)).collect();
            let dgyt = &gyt[..out_ch * LANES];
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            let run = |isa: Isa| {
                let (mut c, mut d, mut p) = (Vec::new(), Vec::new(), Vec::new());
                conv.forward_lanes_on(isa, &xt, len, &mut c);
                dense.forward_batch_on(isa, &xt, &mut d);
                maxpool2_lanes_on(isa, &xt, in_ch, len, &mut p, None);
                let (mut cg, mut dg) = (Vec::new(), Vec::new());
                conv.input_grad_lanes_on(isa, &gyt, len, &mut cg);
                dense.input_grad_batch_on(isa, dgyt, &mut dg);
                let (mut cw, mut cb) = (vec![0.5; conv.w.len()], vec![0.5; out_ch]);
                conv.weight_grads_lanes_on(isa, &xt, len, &gyt, LANES, &mut cw, &mut cb);
                let (mut dw, mut db) = (vec![0.5; dense.w.len()], vec![0.5; out_ch]);
                dense.weight_grads_batch_on(isa, &xt, dgyt, LANES, &mut dw, &mut db);
                [c, d, p, cg, dg, cw, cb, dw, db].map(|v| bits(&v))
            };
            prop_assert_eq!(run(Isa::BASELINE), run(Isa::detected()));
        }

        /// `Dense::forward_batch` lanes are bitwise equal to 8
        /// independent scalar reference passes, on every instruction
        /// set this CPU runs, with ±0.0, NaN and ±∞ in the weights,
        /// biases and inputs.
        #[test]
        fn dense_forward_batch_lanes_match_single_sample_path(
            seed in 0u64..1000,
            in_dim in 1usize..24,
            out_dim in 1usize..20,
            mode in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dense = Dense::new(in_dim, out_dim, &mut rng);
            dense.w = (0..dense.w.len()).map(|_| value(&mut rng, mode)).collect();
            dense.b = (0..out_dim).map(|_| value(&mut rng, mode)).collect();
            let xs = samples(&mut rng, in_dim, LANES, mode);
            let xt = lane_major(&xs);
            for isa in isas() {
                let mut out = Vec::new();
                dense.forward_batch_on(isa, &xt, &mut out);
                for (j, x) in xs.iter().enumerate() {
                    let mut y = Vec::new();
                    dense_forward_oracle(&dense, x, &mut y);
                    prop_assert_eq!(nan_bits(&lane(&out, j)), nan_bits(&y), "{:?} lane {}", isa, j);
                }
            }
        }

        /// The conv backward lane kernels are bitwise equal to the
        /// one-sample backward pass, on every instruction set this CPU
        /// runs: lane `j` of `Conv1d::input_grad_lanes` is sample `j`'s
        /// input gradient, and `Conv1d::weight_grads_lanes` adds the
        /// live lanes to the weight and bias gradients exactly as the
        /// one-sample pass adds sample after sample. The padded lanes
        /// hold NaN, ∞ and huge values, which would show in any sum
        /// they entered.
        #[test]
        fn conv_backward_lanes_match_single_sample_path(
            seed in 0u64..1000,
            len in 1usize..40,
            in_ch in 1usize..10,
            out_ch in 1usize..10,
            (kk, live) in (0usize..3, 1usize..=LANES),
            mode in 0usize..3,
        ) {
            let k = 2 * kk + 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let conv = Conv1d::new(in_ch, out_ch, k, &mut rng);
            let xs = samples(&mut rng, in_ch * len, live, mode);
            let gys = samples(&mut rng, out_ch * len, live, mode);
            let gw0: Vec<f32> = (0..conv.w.len()).map(|_| value(&mut rng, 1)).collect();
            let gb0: Vec<f32> = (0..out_ch).map(|_| value(&mut rng, 1)).collect();
            let (mut gw_ref, mut gb_ref) = (gw0.clone(), gb0.clone());
            let mut gx_ref = Vec::new();
            for (j, (x, gy)) in xs.iter().zip(&gys).enumerate() {
                let mut gx = Vec::new();
                if j < live {
                    conv.backward(x, len, gy, &mut gx, &mut gw_ref, &mut gb_ref);
                } else {
                    let (mut w, mut b) = (gw0.clone(), gb0.clone());
                    conv.backward(x, len, gy, &mut gx, &mut w, &mut b);
                }
                gx_ref.push(gx);
            }
            let (xt, gyt) = (lane_major(&xs), lane_major(&gys));
            for isa in isas() {
                let mut gxt = Vec::new();
                conv.input_grad_lanes_on(isa, &gyt, len, &mut gxt);
                for (j, gx) in gx_ref.iter().enumerate() {
                    prop_assert_eq!(nan_bits(&lane(&gxt, j)), nan_bits(gx), "{:?} lane {} gx", isa, j);
                }
                let (mut gw, mut gb) = (gw0.clone(), gb0.clone());
                conv.weight_grads_lanes_on(isa, &xt, len, &gyt, live, &mut gw, &mut gb);
                prop_assert_eq!(nan_bits(&gw), nan_bits(&gw_ref), "{:?} gw", isa);
                prop_assert_eq!(nan_bits(&gb), nan_bits(&gb_ref), "{:?} gb", isa);
            }
        }

        /// The dense backward lane kernels are bitwise equal to the
        /// one-sample backward pass, on every instruction set this CPU
        /// runs — zero output gradients included, whose terms the
        /// one-sample pass skips even where the product would be
        /// `0 · ∞ = NaN`. Input widths cover every column block.
        #[test]
        fn dense_backward_lanes_match_single_sample_path(
            seed in 0u64..1000,
            in_dim in 1usize..80,
            out_dim in 1usize..20,
            live in 1usize..=LANES,
            mode in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dense = Dense::new(in_dim, out_dim, &mut rng);
            let xs = samples(&mut rng, in_dim, live, mode);
            let gys = samples(&mut rng, out_dim, live, mode);
            let gw0: Vec<f32> = (0..dense.w.len()).map(|_| value(&mut rng, 1)).collect();
            let gb0: Vec<f32> = (0..out_dim).map(|_| value(&mut rng, 1)).collect();
            let (mut gw_ref, mut gb_ref) = (gw0.clone(), gb0.clone());
            let mut gx_ref = Vec::new();
            for (j, (x, gy)) in xs.iter().zip(&gys).enumerate() {
                let mut gx = Vec::new();
                if j < live {
                    dense.backward(x, gy, &mut gx, &mut gw_ref, &mut gb_ref);
                } else {
                    let (mut w, mut b) = (gw0.clone(), gb0.clone());
                    dense.backward(x, gy, &mut gx, &mut w, &mut b);
                }
                gx_ref.push(gx);
            }
            let (xt, gyt) = (lane_major(&xs), lane_major(&gys));
            for isa in isas() {
                let mut gxt = Vec::new();
                dense.input_grad_batch_on(isa, &gyt, &mut gxt);
                for (j, gx) in gx_ref.iter().enumerate() {
                    prop_assert_eq!(nan_bits(&lane(&gxt, j)), nan_bits(gx), "{:?} lane {} gx", isa, j);
                }
                let (mut gw, mut gb) = (gw0.clone(), gb0.clone());
                dense.weight_grads_batch_on(isa, &xt, &gyt, live, &mut gw, &mut gb);
                prop_assert_eq!(nan_bits(&gw), nan_bits(&gw_ref), "{:?} gw", isa);
                prop_assert_eq!(nan_bits(&gb), nan_bits(&gb_ref), "{:?} gb", isa);
            }
        }

        /// Lane `j` of the inference and training max-pools and of
        /// the backward is bitwise equal to the one-sample argmax pool
        /// and its gradient routing, ties, signed zeros and NaN
        /// included, the inference pool on every instruction set this
        /// CPU runs.
        #[test]
        fn maxpool_lanes_backward_matches_single_sample_path(
            seed in 0u64..1000,
            len in 1usize..40,
            channels in 1usize..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xs = samples(&mut rng, channels * len, LANES, 2);
            let gys = samples(&mut rng, channels * (len / 2), LANES, 2);
            let xt = lane_major(&xs);
            for isa in isas() {
                let mut yt = Vec::new();
                maxpool2_lanes_on(isa, &xt, channels, len, &mut yt, None);
                for (j, x) in xs.iter().enumerate() {
                    let (y, _) = reference::maxpool2_argmax(x, channels, len);
                    prop_assert_eq!(nan_bits(&lane(&yt, j)), nan_bits(&y), "{:?} lane {} y", isa, j);
                }
            }
            let (mut yt, mut left, mut gxt) = (Vec::new(), Vec::new(), Vec::new());
            maxpool2_lanes_train(&xt, channels, len, &mut yt, &mut left);
            if len >= 2 {
                maxpool2_lanes_backward(&lane_major(&gys), &left, channels, len, &mut gxt);
            } else {
                maxpool2_lanes_backward(&[], &left, channels, len, &mut gxt);
            }
            for (j, (x, gy)) in xs.iter().zip(&gys).enumerate() {
                let (y, arg) = reference::maxpool2_argmax(x, channels, len);
                let gx = reference::maxpool2_backward(gy, &arg, channels * len);
                prop_assert_eq!(nan_bits(&lane(&yt, j)), nan_bits(&y), "lane {} y", j);
                prop_assert_eq!(nan_bits(&lane(&gxt, j)), nan_bits(&gx), "lane {} gx", j);
            }
        }
    }

    /// Forward passes whose every term is `-0.0`, with `-0.0` biases:
    /// the dense chain is zero-seeded and the conv chain bias-seeded,
    /// so the zero signs come out as the scalar references give them
    /// (random inputs almost never reach this case).
    #[test]
    fn negative_zero_forwards_match_single_sample_path() {
        let mut rng = StdRng::seed_from_u64(8);
        let len = 6;
        let x: Vec<f32> = (0..2 * len).map(|_| rng.gen_range(0.5f32..1.0)).collect();
        let mut conv = Conv1d::new(2, 3, 3, &mut rng);
        conv.w = vec![-0.0; conv.w.len()];
        conv.b = vec![-0.0; 3];
        let mut dense = Dense::new(2 * len, 3, &mut rng);
        dense.w = vec![-0.0; dense.w.len()];
        dense.b = vec![-0.0; 3];
        let (mut y, mut yt) = (Vec::new(), Vec::new());
        conv_forward_oracle(&conv, &x, len, &mut y);
        conv.forward_lanes(&lane0_tile(&x), len, &mut yt);
        assert_eq!(nan_bits(&lane(&yt, 0)), nan_bits(&y), "conv");
        dense_forward_oracle(&dense, &x, &mut y);
        dense.forward_batch(&lane0_tile(&x), &mut yt);
        assert_eq!(nan_bits(&lane(&yt, 0)), nan_bits(&y), "dense");
    }

    /// All-`-0.0` output gradients into `-0.0` accumulators: the
    /// one-sample pass keeps every sign (its bias sum starts from
    /// `Iterator::sum`'s seed, and a zero dense gradient skips its
    /// terms), and so must the lane kernels.
    #[test]
    fn negative_zero_gradients_match_single_sample_path() {
        let mut rng = StdRng::seed_from_u64(5);
        let (len, live) = (6, 3);
        let conv = Conv1d::new(2, 3, 3, &mut rng);
        let dense = Dense::new(4, 3, &mut rng);
        let x: Vec<f32> = (0..2 * len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let gy = vec![-0.0f32; 3 * len];
        let (mut gw, mut gb) = (vec![-0.0f32; conv.w.len()], vec![-0.0f32; 3]);
        let (mut gw_ref, mut gb_ref) = (gw.clone(), gb.clone());
        for _ in 0..live {
            conv.backward(&x, len, &gy, &mut Vec::new(), &mut gw_ref, &mut gb_ref);
        }
        let tile = |v: &[f32]| lane_major(&vec![v.to_vec(); LANES]);
        conv.weight_grads_lanes(&tile(&x), len, &tile(&gy), live, &mut gw, &mut gb);
        assert_eq!(nan_bits(&gw), nan_bits(&gw_ref), "conv gw");
        assert_eq!(nan_bits(&gb), nan_bits(&gb_ref), "conv gb");

        let (x, gy) = (&x[..4], &gy[..3]);
        let (mut gw, mut gb) = (vec![-0.0f32; dense.w.len()], vec![-0.0f32; 3]);
        let (mut gw_ref, mut gb_ref) = (gw.clone(), gb.clone());
        let mut gx_ref = Vec::new();
        for _ in 0..live {
            dense.backward(x, gy, &mut gx_ref, &mut gw_ref, &mut gb_ref);
        }
        let mut gxt = Vec::new();
        dense.weight_grads_batch(&tile(x), &tile(gy), live, &mut gw, &mut gb);
        dense.input_grad_batch(&tile(gy), &mut gxt);
        assert_eq!(nan_bits(&gw), nan_bits(&gw_ref), "dense gw");
        assert_eq!(nan_bits(&gb), nan_bits(&gb_ref), "dense gb");
        assert_eq!(nan_bits(&lane(&gxt, 0)), nan_bits(&gx_ref), "dense gx");
    }

    /// With the zero-weight skip removed, a hostile window containing
    /// ±∞/NaN takes the *same* numeric path in forward and backward: a
    /// zero tap over an infinite input yields NaN in both (0·∞ = NaN),
    /// where the old forward silently skipped it while backward
    /// propagated it.
    #[test]
    fn forward_and_backward_agree_on_non_finite_inputs() {
        // One channel, identity-ish kernel with an explicit 0.0 tap.
        let conv = conv_with_weights(1, 1, 3, &[0.0, 1.0, 0.0], &[0.0]);
        let len = 5;
        let x = vec![1.0, f32::INFINITY, 2.0, 3.0, 4.0];
        let mut y = Vec::new();
        conv_forward_oracle(&conv, &x, len, &mut y);
        // The ∞ column reaches outputs through all three taps; the
        // zero taps contribute 0·∞ = NaN to the neighbours instead of
        // being skipped.
        assert!(
            y[0].is_nan(),
            "left neighbour sees 0.0·∞ = NaN, got {}",
            y[0]
        );
        assert!(
            y[1].is_infinite(),
            "centre tap passes ∞ through, got {}",
            y[1]
        );
        assert!(
            y[2].is_nan(),
            "right neighbour sees 0.0·∞ = NaN, got {}",
            y[2]
        );
        assert_eq!(&y[3..], &[3.0, 4.0], "columns away from ∞ are untouched");

        // Backward with gy = ∞ at one column: the zero taps produce
        // NaN input-gradients at the neighbours — the same arithmetic
        // forward now performs, rather than a silently different path.
        let gy = vec![0.0, f32::INFINITY, 0.0, 0.0, 0.0];
        let mut gx = Vec::new();
        let mut gw = vec![0.0; 3];
        let mut gb = vec![0.0; 1];
        conv.backward(&x, len, &gy, &mut gx, &mut gw, &mut gb);
        assert!(
            gx[0].is_nan(),
            "gx left neighbour: 0.0·∞ = NaN, got {}",
            gx[0]
        );
        assert!(gx[1].is_infinite(), "gx centre: 1.0·∞ = ∞, got {}", gx[1]);
        assert!(
            gx[2].is_nan(),
            "gx right neighbour: 0.0·∞ = NaN, got {}",
            gx[2]
        );
        for (t, (f, b)) in y[..3].iter().zip(&gx[..3]).enumerate() {
            assert_eq!(
                f.is_nan(),
                b.is_nan(),
                "forward/backward disagree on non-finite handling at column {t}"
            );
        }
        // The lane kernels compute the same output and input gradient.
        let (mut yt, mut gxt) = (Vec::new(), Vec::new());
        conv.forward_lanes(&lane0_tile(&x), len, &mut yt);
        assert_eq!(nan_bits(&lane(&yt, 0)), nan_bits(&y));
        conv.input_grad_lanes(&lane0_tile(&gy), len, &mut gxt);
        assert_eq!(nan_bits(&lane(&gxt, 0)), nan_bits(&gx));
    }

    #[test]
    fn conv_identity_kernel_preserves_signal() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv1d::new(1, 1, 3, &mut rng);
        conv.w = vec![0.0, 1.0, 0.0];
        conv.b = vec![0.0];
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = Vec::new();
        conv_forward_oracle(&conv, &x, 4, &mut y);
        assert_eq!(y, x);
        let mut yt = Vec::new();
        conv.forward_lanes(&lane0_tile(&x), 4, &mut yt);
        assert_eq!(lane(&yt, 0), x);
    }

    #[test]
    fn conv_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv1d::new(2, 3, 3, &mut rng);
        let len = 5;
        let x: Vec<f32> = (0..2 * len).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut y = Vec::new();
        conv_forward_oracle(&conv, &x, len, &mut y);
        // Loss = sum(y^2)/2, so gy = y.
        let gy = y.clone();
        let mut gx = Vec::new();
        let mut gw = vec![0.0; conv.w.len()];
        let mut gb = vec![0.0; conv.b.len()];
        conv.backward(&x, len, &gy, &mut gx, &mut gw, &mut gb);
        // The lane kernels on a tile holding the sample in lane 0 and
        // NaN in the padded lanes.
        let mut gxt = Vec::new();
        let mut gw_t = vec![0.0; conv.w.len()];
        let mut gb_t = vec![0.0; conv.b.len()];
        conv.weight_grads_lanes(
            &lane0_tile(&x),
            len,
            &lane0_tile(&gy),
            1,
            &mut gw_t,
            &mut gb_t,
        );
        conv.input_grad_lanes(&lane0_tile(&gy), len, &mut gxt);

        let eps = 1e-3f32;
        let loss = |c: &Conv1d, x: &[f32]| {
            let mut yy = Vec::new();
            conv_forward_oracle(c, x, len, &mut yy);
            yy.iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for (gw, gx) in [(gw, gx), (gw_t, lane(&gxt, 0))] {
            // Check a few weight gradients.
            for idx in [0usize, 3, 7, conv.w.len() - 1] {
                let mut c2 = conv.clone();
                c2.w[idx] += eps;
                let num = (loss(&c2, &x) - loss(&conv, &x)) / eps;
                assert!(
                    (num - gw[idx]).abs() < 0.05 * (1.0 + num.abs()),
                    "dw[{idx}]: numeric {num} vs analytic {}",
                    gw[idx]
                );
            }
            // And a few input gradients.
            for idx in [0usize, 4, 9] {
                let mut x2 = x.clone();
                x2[idx] += eps;
                let num = (loss(&conv, &x2) - loss(&conv, &x)) / eps;
                assert!(
                    (num - gx[idx]).abs() < 0.05 * (1.0 + num.abs()),
                    "dx[{idx}]: numeric {num} vs analytic {}",
                    gx[idx]
                );
            }
        }
    }

    /// A tile holding `v` in lane 0 and NaN in every other lane.
    fn lane0_tile(v: &[f32]) -> Vec<f32> {
        let mut t = vec![f32::NAN; v.len() * LANES];
        for (dst, &x) in t.iter_mut().step_by(LANES).zip(v) {
            *dst = x;
        }
        t
    }

    #[test]
    fn dense_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let dense = Dense::new(4, 3, &mut rng);
        let x = vec![0.5, -0.2, 0.8, 0.1];
        let mut y = Vec::new();
        dense_forward_oracle(&dense, &x, &mut y);
        let gy = y.clone();
        let mut gx = Vec::new();
        let mut gw = vec![0.0; dense.w.len()];
        let mut gb = vec![0.0; dense.b.len()];
        dense.backward(&x, &gy, &mut gx, &mut gw, &mut gb);
        // The lane kernels on a tile holding the sample in lane 0.
        let mut gxt = Vec::new();
        let mut gw_t = vec![0.0; dense.w.len()];
        let mut gb_t = vec![0.0; dense.b.len()];
        dense.weight_grads_batch(&lane0_tile(&x), &lane0_tile(&gy), 1, &mut gw_t, &mut gb_t);
        dense.input_grad_batch(&lane0_tile(&gy), &mut gxt);
        let loss = |d: &Dense, x: &[f32]| {
            let mut yy = Vec::new();
            dense_forward_oracle(d, x, &mut yy);
            yy.iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let eps = 1e-3f32;
        for (gw, gx) in [(gw, gx), (gw_t, lane(&gxt, 0))] {
            for (idx, &g) in gw.iter().enumerate() {
                let mut d2 = dense.clone();
                d2.w[idx] += eps;
                let num = (loss(&d2, &x) - loss(&dense, &x)) / eps;
                assert!((num - g).abs() < 0.02 * (1.0 + num.abs()));
            }
            for (idx, &g) in gx.iter().enumerate() {
                let mut x2 = x.clone();
                x2[idx] += eps;
                let num = (loss(&dense, &x2) - loss(&dense, &x)) / eps;
                assert!((num - g).abs() < 0.02 * (1.0 + num.abs()));
            }
        }
    }

    #[test]
    fn relu_and_backward() {
        let mut y = vec![-1.0, 0.0, 2.0];
        relu(&mut y);
        assert_eq!(y, vec![0.0, 0.0, 2.0]);
        let mut gy = vec![5.0, 5.0, 5.0];
        relu_backward(&y, &mut gy);
        assert_eq!(gy, vec![0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_and_backward() {
        let x = vec![1.0, 3.0, 2.0, 0.0, /* ch2 */ 5.0, 4.0, 7.0, 8.0];
        let (y, _) = reference::maxpool2_argmax(&x, 2, 4);
        assert_eq!(y, vec![3.0, 2.0, 5.0, 8.0]);
        let mut yt = Vec::new();
        maxpool2_lanes(&lane0_tile(&x), 2, 4, &mut yt);
        assert_eq!(lane(&yt, 0), vec![3.0, 2.0, 5.0, 8.0]);
        let (mut yt, mut left, mut gxt) = (Vec::new(), Vec::new(), Vec::new());
        maxpool2_lanes_train(&lane0_tile(&x), 2, 4, &mut yt, &mut left);
        assert_eq!(lane(&yt, 0), vec![3.0, 2.0, 5.0, 8.0]);
        maxpool2_lanes_backward(&[1.0; 4 * LANES], &left, 2, 4, &mut gxt);
        assert_eq!(lane(&gxt, 0), vec![0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut z = vec![1.0, 2.0, 3.0];
        softmax(&mut z);
        let sum: f32 = z.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(z[2] > z[1] && z[1] > z[0]);
    }

    #[test]
    fn cross_entropy_gradient_shape() {
        let mut z = vec![0.1, 0.2, 0.7f32];
        let loss = cross_entropy_backward(&mut z, 2);
        assert!((loss - (-0.7f32.ln())).abs() < 1e-6);
        assert!((z[2] - (0.7 - 1.0)).abs() < 1e-6);
        let sum: f32 = z.iter().sum();
        assert!(sum.abs() < 1e-6, "softmax-CE gradient sums to zero");
    }
}
