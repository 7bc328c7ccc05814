//! Int8-quantized attention: the §7 orthogonality claim at the numerical
//! level. FLAT is a dataflow; quantization is a model-level compression —
//! this module runs the *same fused row-tiled execution* over int8 tensors
//! (per-tensor symmetric scales, integer GEMMs, fp32 softmax) and
//! measures what the precision costs, proving the two techniques compose
//! without interfering.

use crate::walk::{walk, walk_kind, Scores, TwoPass};
use crate::{Mask, Mat, MultiHeadInput};
use flat_tensor::SoftmaxKind;

/// A symmetric per-tensor int8 quantization of a matrix.
#[derive(Debug, Clone)]
pub struct QuantizedMat {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    /// Dequantization scale: `real ≈ q · scale`.
    pub scale: f32,
}

/// The symmetric scale that maps the largest magnitude `max` onto ±127.
fn symmetric_scale(max: f32) -> f32 {
    if max == 0.0 {
        1.0
    } else {
        max / 127.0
    }
}

fn to_i8(x: f32, scale: f32) -> i8 {
    (x / scale).round().clamp(-127.0, 127.0) as i8
}

fn abs_max<'a>(xs: impl IntoIterator<Item = &'a f32>) -> f32 {
    xs.into_iter().fold(0.0f32, |a, &v| a.max(v.abs()))
}

/// `a · b` with i32 accumulation.
fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| i32::from(x) * i32::from(y))
        .sum()
}

impl QuantizedMat {
    /// Quantizes `m` symmetrically to int8.
    #[must_use]
    pub fn quantize(m: &Mat) -> Self {
        let scale = symmetric_scale(abs_max(m.as_slice()));
        QuantizedMat {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&v| to_i8(v, scale)).collect(),
            scale,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Quantized element at `(i, j)`.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> i8 {
        self.data[i * self.cols + j]
    }

    fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Dequantizes back to an f32 matrix — the values an int8-stored
    /// tensor actually contributes to downstream arithmetic.
    #[must_use]
    pub fn dequantize(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| {
            f32::from(self.at(i, j)) * self.scale
        })
    }

    /// Integer GEMM `self · otherᵀ` with i32 accumulation, dequantized to
    /// f32 via the product of the two scales.
    ///
    /// # Panics
    ///
    /// Panics when the contraction dimensions differ.
    #[must_use]
    pub fn matmul_transposed_dequant(&self, other: &QuantizedMat) -> Mat {
        assert_eq!(self.cols, other.cols, "contraction dimensions must agree");
        let s = self.scale * other.scale;
        Mat::from_fn(self.rows, other.rows, |i, j| {
            dot_i8(self.row(i), other.row(j)) as f32 * s
        })
    }
}

/// Q/K/V quantized to int8: the logit tile is an i32 GEMM, optionally
/// snapped onto an int8 grid after masking, and each tile's softmaxed
/// probabilities are requantized to int8 for an integer PV GEMM.
pub(crate) struct Int8Scores {
    q: QuantizedMat,
    k: QuantizedMat,
    v: QuantizedMat,
    snap_logits: bool,
    lo: usize,
    hi: usize,
}

impl Int8Scores {
    pub(crate) fn new(input: &MultiHeadInput, g: usize, snap_logits: bool) -> Self {
        Int8Scores {
            q: QuantizedMat::quantize(&input.q[g]),
            k: QuantizedMat::quantize(&input.k[g]),
            v: QuantizedMat::quantize(&input.v[g]),
            snap_logits,
            lo: 0,
            hi: 0,
        }
    }
}

impl Scores for Int8Scores {
    fn load(&mut self, lo: usize, hi: usize) {
        (self.lo, self.hi) = (lo, hi);
    }

    fn logits(&self, row_lo: usize, row_hi: usize, tile: &mut Mat) {
        let s = self.q.scale * self.k.scale;
        for i in row_lo..row_hi {
            let q = self.q.row(i);
            for (x, j) in tile.row_mut(i - row_lo).iter_mut().zip(self.lo..self.hi) {
                *x = dot_i8(q, self.k.row(j)) as f32 * s;
            }
        }
    }

    fn snap(&self, row: &mut [f32]) {
        if self.snap_logits {
            snap_logits_int8(row);
        }
    }

    fn attend(&mut self, p: &Mat, nrows: usize, out: &mut Mat, row_lo: usize) {
        let width = self.hi - self.lo;
        // One requantization scale for the whole tile of probabilities.
        let p_scale = symmetric_scale(abs_max((0..nrows).flat_map(|r| &p.row(r)[..width])));
        // i64: a row's sum reaches 127·127·seq_kv, past i32 at 133,145 keys.
        let mut acc = vec![0i64; out.cols()];
        for r in 0..nrows {
            acc.fill(0);
            for (&w, j) in p.row(r)[..width].iter().zip(self.lo..) {
                let pj = i32::from(to_i8(w, p_scale));
                if pj != 0 {
                    for (a, &v) in acc.iter_mut().zip(self.v.row(j)) {
                        *a += i64::from(pj * i32::from(v));
                    }
                }
            }
            for (o, &a) in out.row_mut(row_lo + r).iter_mut().zip(&acc) {
                *o += a as f32 * p_scale * self.v.scale;
            }
        }
    }
}

/// FLAT row-tiled attention over int8-quantized Q/K/V: integer logit
/// GEMM, fp32 softmax in the slice, integer attend GEMM (with the
/// softmaxed probabilities requantized to int8), fp32 output.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{naive_attention, quantized_flat_attention, Mask, MultiHeadInput};
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 5);
/// let q8 = quantized_flat_attention(&input, 8, Mask::None);
/// let f32 = naive_attention(&input, Mask::None);
/// // Int8 attention tracks fp32 to a few percent of the value range.
/// assert!(q8[0].max_abs_diff(&f32[0]) < 0.1);
/// ```
#[must_use]
pub fn quantized_flat_attention(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
) -> Vec<Mat> {
    assert!(rows_per_tile > 0, "row tile must be positive");
    let scores = |g| Int8Scores::new(input, g, false);
    walk::<_, TwoPass>(input, rows_per_tile, input.seq_kv, mask, scores, &mut ())
}

/// Snaps the *finite* logits of a row onto a symmetric 127-level int8
/// grid, in place — the score-matrix half of the int8 path. Masked
/// (`−∞`) entries pass through untouched.
#[inline]
pub(crate) fn snap_logits_int8(row: &mut [f32]) {
    let max = row
        .iter()
        .filter(|x| x.is_finite())
        .fold(0.0f32, |a, &v| a.max(v.abs()));
    if max == 0.0 {
        return;
    }
    let scale = max / 127.0;
    for x in row.iter_mut() {
        if x.is_finite() {
            *x = (*x / scale).round() * scale;
        }
    }
}

/// FLAT row-tiled int8 attention with the score matrix **also** held at
/// int8: the logit tile is snapped to a symmetric 127-level grid before
/// the softmax (the pre-softmax scores now live on the int8 grid, not
/// just the weights), and the softmax itself runs as the selected
/// [`SoftmaxKind`]. Stage A requantizes the probabilities as in
/// [`quantized_flat_attention`].
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{naive_attention, quantized_flat_attention_with, Mask, MultiHeadInput};
/// use flat_tensor::SoftmaxKind;
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 5);
/// let q8 = quantized_flat_attention_with(&input, 8, Mask::None, SoftmaxKind::FlashD);
/// let f32 = naive_attention(&input, Mask::None);
/// assert!(q8[0].max_abs_diff(&f32[0]) < 0.1);
/// ```
#[must_use]
pub fn quantized_flat_attention_with(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
    kind: SoftmaxKind,
) -> Vec<Mat> {
    assert!(rows_per_tile > 0, "row tile must be positive");
    // Requantizing P per tile needs each tile's rows whole.
    walk_kind::<_, TwoPass>(kind, input, rows_per_tile, input.seq_kv, mask, |g| {
        Int8Scores::new(input, g, true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_attention;

    #[test]
    fn quantization_round_trips_within_scale() {
        let m = Mat::from_fn(8, 8, |i, j| ((i * 8 + j) as f32 - 32.0) / 7.0);
        let q = QuantizedMat::quantize(&m);
        for i in 0..8 {
            for j in 0..8 {
                let deq = f32::from(q.at(i, j)) * q.scale;
                assert!((deq - m.at(i, j)).abs() <= q.scale, "({i},{j})");
            }
        }
    }

    #[test]
    fn int8_attention_tracks_fp32() {
        let input = MultiHeadInput::random(2, 2, 48, 48, 8, 17);
        let exact = naive_attention(&input, Mask::None);
        let q8 = quantized_flat_attention(&input, 16, Mask::None);
        for (e, q) in exact.iter().zip(&q8) {
            let d = e.max_abs_diff(q);
            assert!(d < 0.08, "int8 deviation {d}");
        }
    }

    #[test]
    fn tile_size_does_not_change_quantized_result_much() {
        let input = MultiHeadInput::random(1, 1, 32, 32, 4, 19);
        let a = quantized_flat_attention(&input, 4, Mask::None);
        let b = quantized_flat_attention(&input, 32, Mask::None);
        // Per-slice requantization makes tiles differ slightly, bounded by
        // a couple of quantization steps.
        assert!(a[0].max_abs_diff(&b[0]) < 0.1);
    }

    #[test]
    fn causal_masking_survives_quantization() {
        let input = MultiHeadInput::random(1, 1, 12, 12, 4, 23);
        let exact = naive_attention(&input, Mask::Causal);
        let q8 = quantized_flat_attention(&input, 4, Mask::Causal);
        assert!(exact[0].max_abs_diff(&q8[0]) < 0.1);
        // Row 0 attends only to key 0 in both.
        for d in 0..4 {
            assert!((q8[0].at(0, d) - input.v[0].at(0, d)).abs() < 0.05);
        }
    }

    #[test]
    fn int8_score_matrix_tracks_fp32_for_every_kind() {
        let input = MultiHeadInput::random(1, 2, 32, 32, 8, 29);
        let exact = naive_attention(&input, Mask::None);
        for kind in [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
            let q8 = quantized_flat_attention_with(&input, 8, Mask::None, kind);
            for (e, q) in exact.iter().zip(&q8) {
                let d = e.max_abs_diff(q);
                assert!(d < 0.12, "{kind}: deviation {d}");
            }
        }
    }

    #[test]
    fn dequantize_round_trips_within_one_step() {
        let m = Mat::from_fn(6, 5, |i, j| (i as f32 - j as f32) * 0.3);
        let q = QuantizedMat::quantize(&m);
        let deq = q.dequantize();
        assert!(deq.max_abs_diff(&m) <= q.scale);
    }

    #[test]
    fn logit_snap_preserves_masks_and_zero_rows() {
        let mut row = [f32::NEG_INFINITY, 1.0, -0.5, f32::NEG_INFINITY];
        snap_logits_int8(&mut row);
        assert_eq!(row[0], f32::NEG_INFINITY);
        assert_eq!(row[3], f32::NEG_INFINITY);
        assert!((row[1] - 1.0).abs() <= 1.0 / 127.0);
        let mut zeros = [0.0f32, f32::NEG_INFINITY];
        snap_logits_int8(&mut zeros);
        assert_eq!(zeros, [0.0, f32::NEG_INFINITY]);
    }

    #[test]
    fn pv_sum_past_the_i32_range_stays_exact() {
        // 127 · 127 · 140,000 > 2³¹: the PV accumulator must be wider than
        // i32, or this uniform row comes back wrapped (or panics in debug).
        let seq_kv = 140_000;
        let ones = |rows| Mat::from_fn(rows, 1, |_, _| 1.0);
        let input = MultiHeadInput {
            batch: 1,
            heads: 1,
            seq_q: 1,
            seq_kv,
            dk: 1,
            q: vec![ones(1)],
            k: vec![ones(seq_kv)],
            v: vec![ones(seq_kv)],
        };
        let plain = quantized_flat_attention(&input, 1, Mask::None);
        let flash = crate::flat_attention_with(
            &input,
            1,
            Mask::None,
            crate::ComputePrecision::Int8,
            SoftmaxKind::FlashD,
        );
        for out in [&plain[0], &flash[0]] {
            assert!((out.at(0, 0) - 1.0).abs() < 1e-3, "{}", out.at(0, 0));
        }
    }

    #[test]
    fn zero_matrix_quantizes_safely() {
        let z = Mat::zeros(4, 4);
        let q = QuantizedMat::quantize(&z);
        assert_eq!(q.scale, 1.0);
        assert!(q.data.iter().all(|&v| v == 0));
    }
}
