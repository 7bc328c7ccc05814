//! The one prefill walk every CPU attention kernel runs.
//!
//! For one (batch, head) group the walk takes key chunks outermost and
//! row tiles inside. Each step computes an `R × C` logit tile, masks and
//! scales it, folds each row into that row's softmax state, and adds the
//! tile's product with the value chunk into the output rows. FLAT's
//! row-granularity execution is the case `C = seq_kv` with the two-pass
//! softmax; the streaming and division-free kernels take a narrower chunk
//! and a fold that carries across chunks. Keeping chunks outermost means
//! a chunk is loaded (for packed storage: widened) once per group.
//!
//! The walk is generic over three compile-time axes:
//!
//! * [`Scores`] — how Q/K/V are held and how a logit tile and its PV
//!   product are computed: f32 [`Mat`] ([`F32Scores`]), packed 16-bit
//!   [`HalfMat`] ([`HalfScores`]), or int8
//!   [`QuantizedMat`](crate::QuantizedMat)
//!   ([`Int8Scores`](crate::quantized::Int8Scores));
//! * [`Fold`] — the softmax: [`TwoPass`] over a whole row,
//!   [`OnlineSoftmax`] (normalized once at the end), [`FlashDSoftmax`] or
//!   [`LogLutSoftmax`] (normalized at every step);
//! * [`Observer`] — `()`, which compiles away, or
//!   [`ExecutionStats`](crate::ExecutionStats).

use crate::mat::{wide_attend_acc, wide_logits_into};
use crate::softmax_family::{FlashDSoftmax, LogLutSoftmax};
use crate::{softmax_row, ComputePrecision, HalfMat, Mask, Mat, MultiHeadInput, OnlineSoftmax};
use flat_tensor::SoftmaxKind;

/// One group's operands: how a logit tile and its PV product are computed.
pub(crate) trait Scores {
    /// Makes key/value rows `lo..hi` the current chunk.
    fn load(&mut self, lo: usize, hi: usize);

    /// Writes the unscaled logits of query rows `row_lo..row_hi` against
    /// the current chunk into the top-left corner of `tile`.
    fn logits(&self, row_lo: usize, row_hi: usize, tile: &mut Mat);

    /// Adjusts one masked, scaled logit row before it is folded.
    fn snap(&self, _row: &mut [f32]) {}

    /// Adds `P · V` for the first `nrows` rows of `p` and the current
    /// chunk into output rows `row_lo..`.
    fn attend(&mut self, p: &Mat, nrows: usize, out: &mut Mat, row_lo: usize);
}

/// A per-row softmax state, fed one chunk of the row at a time. The
/// decode kernel feeds it chunks of one logit.
pub(crate) trait Fold: Clone + Default {
    /// Whether the fold needs each row whole, in one chunk.
    const WHOLE_ROW: bool = false;

    /// Turns a chunk of masked, scaled logits into PV weights in place and
    /// returns the factor for the output accumulated from earlier chunks.
    fn fold(&mut self, chunk: &mut [f32]) -> f32;

    /// Last step on the row's output once every chunk is folded.
    fn finish(&self, _out: &mut [f32]) {}
}

/// Counts what the walk touches; `()` counts nothing.
pub(crate) trait Observer {
    /// One group starts with `seq_kv` key/value rows of width `dk`.
    fn group(&mut self, _seq_kv: usize, _dk: usize) {}

    /// One `rows × width` logit tile is produced and consumed.
    fn tile(&mut self, _rows: usize, _width: usize, _dk: usize) {}
}

impl Observer for () {}

/// The exact two-pass softmax.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TwoPass;

impl Fold for TwoPass {
    const WHOLE_ROW: bool = true;

    fn fold(&mut self, chunk: &mut [f32]) -> f32 {
        softmax_row(chunk);
        1.0
    }
}

impl Fold for OnlineSoftmax {
    #[inline]
    fn fold(&mut self, chunk: &mut [f32]) -> f32 {
        self.absorb_weights(chunk)
    }

    #[inline]
    fn finish(&self, out: &mut [f32]) {
        let inv = 1.0 / self.normalizer();
        for o in out {
            *o *= inv;
        }
    }
}

impl Fold for FlashDSoftmax {
    #[inline]
    fn fold(&mut self, chunk: &mut [f32]) -> f32 {
        self.absorb(chunk)
    }
}

impl Fold for LogLutSoftmax {
    #[inline]
    fn fold(&mut self, chunk: &mut [f32]) -> f32 {
        self.absorb(chunk)
    }
}

/// Q/K/V borrowed as f32 matrices.
pub(crate) struct F32Scores<'a> {
    q: &'a Mat,
    k: &'a Mat,
    v: &'a Mat,
    lo: usize,
    hi: usize,
}

impl<'a> F32Scores<'a> {
    pub(crate) fn new(input: &'a MultiHeadInput, g: usize) -> Self {
        F32Scores {
            q: &input.q[g],
            k: &input.k[g],
            v: &input.v[g],
            lo: 0,
            hi: 0,
        }
    }
}

impl Scores for F32Scores<'_> {
    fn load(&mut self, lo: usize, hi: usize) {
        (self.lo, self.hi) = (lo, hi);
    }

    fn logits(&self, row_lo: usize, row_hi: usize, tile: &mut Mat) {
        wide_logits_into(self.q, row_lo, row_hi, self.k, self.lo, self.hi, tile);
    }

    fn attend(&mut self, p: &Mat, nrows: usize, out: &mut Mat, row_lo: usize) {
        wide_attend_acc(p, nrows, self.v, self.lo, self.hi, out, row_lo);
    }
}

/// K/V packed at 16 bits; each chunk is widened into f32 scratch once
/// and then runs the f32 microkernels. Q is rounded through the same
/// storage and decoded once.
pub(crate) struct HalfScores {
    q: Mat,
    k: HalfMat,
    v: HalfMat,
    k_chunk: Mat,
    v_chunk: Mat,
    width: usize,
}

impl HalfScores {
    /// Packs group `g` at `precision` (bf16 or f16), with scratch for
    /// chunks of up to `chunk` keys.
    pub(crate) fn new(
        input: &MultiHeadInput,
        g: usize,
        precision: ComputePrecision,
        chunk: usize,
    ) -> Self {
        let dtype = precision.dtype();
        let chunk = chunk.min(input.seq_kv);
        HalfScores {
            q: HalfMat::from_mat(&input.q[g], dtype).to_mat(),
            k: HalfMat::from_mat(&input.k[g], dtype),
            v: HalfMat::from_mat(&input.v[g], dtype),
            k_chunk: Mat::zeros(chunk, input.dk),
            v_chunk: Mat::zeros(chunk, input.dk),
            width: 0,
        }
    }
}

impl Scores for HalfScores {
    fn load(&mut self, lo: usize, hi: usize) {
        self.width = hi - lo;
        for j in 0..self.width {
            self.k.decode_row_into(lo + j, self.k_chunk.row_mut(j));
            self.v.decode_row_into(lo + j, self.v_chunk.row_mut(j));
        }
    }

    fn logits(&self, row_lo: usize, row_hi: usize, tile: &mut Mat) {
        wide_logits_into(&self.q, row_lo, row_hi, &self.k_chunk, 0, self.width, tile);
    }

    fn attend(&mut self, p: &Mat, nrows: usize, out: &mut Mat, row_lo: usize) {
        wide_attend_acc(p, nrows, &self.v_chunk, 0, self.width, out, row_lo);
    }
}

/// The walk over one group, in chunks of `chunk` keys (clamped to
/// `seq_kv`).
pub(crate) fn walk_group<S: Scores, F: Fold>(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    chunk: usize,
    mask: Mask,
    mut scores: S,
    obs: &mut impl Observer,
) -> Mat {
    let (seq_q, seq_kv, dk) = (input.seq_q, input.seq_kv, input.dk);
    let scale = input.scale();
    assert!(!F::WHOLE_ROW || chunk >= seq_kv, "fold needs whole rows");
    let chunk = chunk.min(seq_kv);
    let mut out = Mat::zeros(seq_q, dk);
    let mut folds = vec![F::default(); seq_q];
    // The live logit slice: at most R × chunk, reused by every tile.
    let mut tile = Mat::zeros(rows_per_tile.min(seq_q), chunk);
    obs.group(seq_kv, dk);
    for col_lo in (0..seq_kv).step_by(chunk) {
        let col_hi = (col_lo + chunk).min(seq_kv);
        scores.load(col_lo, col_hi);
        for row_lo in (0..seq_q).step_by(rows_per_tile) {
            let row_hi = (row_lo + rows_per_tile).min(seq_q);
            obs.tile(row_hi - row_lo, col_hi - col_lo, dk);
            scores.logits(row_lo, row_hi, &mut tile);
            for (qi, fold) in (row_lo..row_hi).zip(&mut folds[row_lo..row_hi]) {
                let row = &mut tile.row_mut(qi - row_lo)[..col_hi - col_lo];
                for (kj, x) in (col_lo..).zip(row.iter_mut()) {
                    *x = if mask.allows(qi, kj) {
                        *x * scale
                    } else {
                        f32::NEG_INFINITY
                    };
                }
                scores.snap(row);
                let carry = fold.fold(row);
                if carry != 1.0 {
                    for o in out.row_mut(qi) {
                        *o *= carry;
                    }
                }
            }
            scores.attend(&tile, row_hi - row_lo, &mut out, row_lo);
        }
    }
    for (qi, fold) in folds.iter().enumerate() {
        fold.finish(out.row_mut(qi));
    }
    out
}

/// [`walk_group`] over every group of `input`; `scores(g)` prepares
/// group `g`'s operands.
pub(crate) fn walk<S: Scores, F: Fold>(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    chunk: usize,
    mask: Mask,
    scores: impl Fn(usize) -> S,
    obs: &mut impl Observer,
) -> Vec<Mat> {
    (0..input.groups())
        .map(|g| walk_group::<S, F>(input, rows_per_tile, chunk, mask, scores(g), obs))
        .collect()
}

/// [`walk`] with the fold `kind` names, where [`SoftmaxKind::Exact`]
/// runs the fold `E`.
pub(crate) fn walk_kind<S: Scores, E: Fold>(
    kind: SoftmaxKind,
    input: &MultiHeadInput,
    rows_per_tile: usize,
    chunk: usize,
    mask: Mask,
    scores: impl Fn(usize) -> S,
) -> Vec<Mat> {
    match kind {
        SoftmaxKind::Exact => walk::<S, E>(input, rows_per_tile, chunk, mask, scores, &mut ()),
        SoftmaxKind::FlashD => {
            walk::<S, FlashDSoftmax>(input, rows_per_tile, chunk, mask, scores, &mut ())
        }
        SoftmaxKind::LogLut => {
            walk::<S, LogLutSoftmax>(input, rows_per_tile, chunk, mask, scores, &mut ())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Q and K (or V) of group 0 rounded through `p`'s storage.
    fn rounded(input: &MultiHeadInput, p: ComputePrecision) -> (Mat, Mat, Mat) {
        let r = |m: &Mat| HalfMat::from_mat(m, p.dtype()).to_mat();
        (r(&input.q[0]), r(&input.k[0]), r(&input.v[0]))
    }

    #[test]
    fn packed_chunk_logits_equal_the_f32_product_of_decoded_values() {
        let input = MultiHeadInput::random(1, 1, 11, 10, 16, 7);
        for p in [ComputePrecision::Bf16, ComputePrecision::F16] {
            let (q, k, _) = rounded(&input, p);
            let full = q.matmul_transposed(&k);
            let mut scores = HalfScores::new(&input, 0, p, 4);
            scores.load(3, 7);
            let mut tile = Mat::zeros(11, 4);
            scores.logits(0, 11, &mut tile);
            for r in 0..11 {
                for j in 0..4 {
                    assert_eq!(tile.at(r, j), full.at(r, 3 + j), "{p} ({r}, {j})");
                }
            }
        }
    }

    #[test]
    fn packed_chunk_attend_equals_the_f32_product_of_decoded_values() {
        let input = MultiHeadInput::random(1, 1, 6, 10, 20, 8);
        let w = Mat::from_fn(6, 4, |i, j| (i * 4 + j) as f32 / 24.0 - 0.5);
        for p in [ComputePrecision::Bf16, ComputePrecision::F16] {
            let (_, _, v) = rounded(&input, p);
            let expect = w.matmul(&v.row_slice(2, 6));
            let mut scores = HalfScores::new(&input, 0, p, 4);
            scores.load(2, 6);
            let mut out = Mat::zeros(6, 20);
            scores.attend(&w, 6, &mut out, 0);
            assert_eq!(out.max_abs_diff(&expect), 0.0, "{p}");
        }
    }
}
