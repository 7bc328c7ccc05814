//! Softmax variants: the two-pass reference and the online (streaming)
//! update used to tile along the key dimension.

/// Numerically stable two-pass softmax over one row, in place.
///
/// Pass 1 finds the max, pass 2 exponentiates and normalizes. This is the
/// computation the ATTACC SFU applies to each completed FLAT-tile row.
///
/// # Example
///
/// ```
/// use flat_kernels::softmax_row;
///
/// let mut row = [1.0f32, 2.0, 3.0];
/// softmax_row(&mut row);
/// let sum: f32 = row.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-6);
/// assert!(row[2] > row[1] && row[1] > row[0]);
/// ```
pub fn softmax_row(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = lane_max(row);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Row maximum via 8 independent lanes so the reduction vectorizes.
/// `f32::max` is exactly associative and commutative (no NaNs in logit
/// rows), so this is bit-identical to the serial fold.
#[inline]
pub(crate) fn lane_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    for chunk in row.chunks_exact(8) {
        for (acc, &x) in lanes.iter_mut().zip(chunk) {
            *acc = acc.max(x);
        }
    }
    let tail = row
        .chunks_exact(8)
        .remainder()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    lanes.iter().copied().fold(tail, f32::max)
}

/// Row sum via 8 independent lanes so the reduction vectorizes. Unlike
/// `max`, FP addition is not associative, so this is *not* bit-identical
/// to a serial fold — callers tolerate the reordering.
#[inline]
pub(crate) fn lane_sum(row: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for chunk in row.chunks_exact(8) {
        for (acc, &x) in lanes.iter_mut().zip(chunk) {
            *acc += x;
        }
    }
    let tail: f32 = row.chunks_exact(8).remainder().iter().sum();
    lanes.iter().sum::<f32>() + tail
}

/// Running state of an *online* softmax over one row, processed in chunks.
///
/// This is the streaming rescaling trick (Milakov–Gimelshein, later the
/// heart of FlashAttention): chunks of the row arrive one at a time; the
/// state keeps the running max `m`, the running normalizer `s`, and the
/// running weighted output accumulator, rescaling them whenever a later
/// chunk raises the max. FLAT itself never needs this — its row-granularity
/// slices always hold complete rows — but it is the natural extension for
/// key-dimension tiling, so the kernels crate provides it and the tests
/// prove it equivalent.
///
/// # Example
///
/// ```
/// use flat_kernels::{softmax_row, OnlineSoftmax};
///
/// let row = [0.3f32, -1.0, 2.5, 0.0, 1.1, -0.4];
/// let mut reference = row;
/// softmax_row(&mut reference);
///
/// let mut online = OnlineSoftmax::new();
/// let mut weights = Vec::new();
/// for chunk in row.chunks(2) {
///     let scale = online.absorb(chunk);
///     for w in weights.iter_mut() { *w *= scale; }
///     weights.extend(chunk.iter().map(|&x| online.weight(x)));
/// }
/// let norm = online.normalizer();
/// for (w, r) in weights.iter().zip(&reference) {
///     assert!((w / norm - r).abs() < 1e-6);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineSoftmax {
    max: f32,
    sum: f32,
}

impl OnlineSoftmax {
    /// Fresh state: no elements absorbed yet.
    #[must_use]
    pub fn new() -> Self {
        OnlineSoftmax {
            max: f32::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Absorbs a chunk of logits and returns the factor by which all
    /// *previously produced* weights (and weighted accumulators) must be
    /// rescaled: `exp(old_max − new_max)`, 1.0 when the max is unchanged.
    #[must_use]
    pub fn absorb(&mut self, chunk: &[f32]) -> f32 {
        let Some(scale) = self.raise_max(chunk) else {
            return 1.0;
        };
        for &x in chunk {
            self.sum += (x - self.max).exp();
        }
        scale
    }

    /// [`absorb`](Self::absorb) that also replaces each logit with its
    /// [`weight`](Self::weight), computing each `exp` once. Bit-identical
    /// to `absorb` followed by `weight` on every element, including an
    /// all-`−∞` chunk before any finite logit (whose weights are NaN).
    #[inline]
    pub(crate) fn absorb_weights(&mut self, chunk: &mut [f32]) -> f32 {
        let Some(scale) = self.raise_max(chunk) else {
            for x in chunk.iter_mut() {
                *x = self.weight(*x);
            }
            return 1.0;
        };
        for x in chunk.iter_mut() {
            *x = (*x - self.max).exp();
            self.sum += *x;
        }
        scale
    }

    /// Raises the running max to cover `chunk` and rescales the sum to
    /// it; returns the rescale factor, or `None` (changing nothing) while
    /// every logit seen is `−∞`.
    #[inline]
    fn raise_max(&mut self, chunk: &[f32]) -> Option<f32> {
        let chunk_max = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let new_max = self.max.max(chunk_max);
        if new_max == f32::NEG_INFINITY {
            return None;
        }
        let scale = if self.max == f32::NEG_INFINITY {
            1.0
        } else {
            (self.max - new_max).exp()
        };
        self.sum *= scale;
        self.max = new_max;
        Some(scale)
    }

    /// Unnormalized weight of a logit under the current max.
    #[must_use]
    pub fn weight(&self, x: f32) -> f32 {
        (x - self.max).exp()
    }

    /// Current normalizer (sum of unnormalized weights absorbed so far).
    #[must_use]
    pub fn normalizer(&self) -> f32 {
        self.sum
    }

    /// Current running maximum.
    #[must_use]
    pub fn running_max(&self) -> f32 {
        self.max
    }
}

impl Default for OnlineSoftmax {
    fn default() -> Self {
        OnlineSoftmax::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let mut row = vec![5.0f32, -3.0, 0.2, 9.9, -7.7];
        softmax_row(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn handles_extreme_magnitudes() {
        let mut row = vec![1000.0f32, 999.0, -1000.0];
        softmax_row(&mut row);
        assert!(row.iter().all(|v| v.is_finite()));
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_input_gives_uniform_output() {
        let mut row = vec![2.5f32; 8];
        softmax_row(&mut row);
        for &v in &row {
            assert!((v - 0.125).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_row_is_noop() {
        let mut row: Vec<f32> = vec![];
        softmax_row(&mut row);
        assert!(row.is_empty());
    }

    #[test]
    fn online_matches_two_pass_for_any_chunking() {
        let row: Vec<f32> = (0..17).map(|i| ((i * 37 % 11) as f32) - 5.0).collect();
        let mut reference = row.clone();
        softmax_row(&mut reference);
        for chunk_size in [1, 2, 3, 5, 17] {
            let mut st = OnlineSoftmax::new();
            let mut weights: Vec<f32> = Vec::new();
            for chunk in row.chunks(chunk_size) {
                let scale = st.absorb(chunk);
                for w in &mut weights {
                    *w *= scale;
                }
                weights.extend(chunk.iter().map(|&x| st.weight(x)));
            }
            for (w, r) in weights.iter().zip(&reference) {
                assert!((w / st.normalizer() - r).abs() < 1e-5, "chunk {chunk_size}");
            }
        }
    }

    #[test]
    fn absorb_weights_is_bit_identical_to_absorb_then_weight() {
        let ninf = f32::NEG_INFINITY;
        let chunks: [&[f32]; 7] = [
            &[ninf, ninf],
            &[0.5, -3.0, 2.25],
            &[ninf, 1.0],
            &[7.5],
            &[-90.0, 120.0, ninf],
            &[ninf],
            &[],
        ];
        // Every chunk as the first one (fresh state, including the
        // all-−∞ branch) and as one of a running sequence.
        for start in 0..chunks.len() {
            let (mut a, mut b) = (OnlineSoftmax::new(), OnlineSoftmax::new());
            for chunk in &chunks[start..] {
                let ra = a.absorb(chunk);
                let wa: Vec<u32> = chunk.iter().map(|&x| a.weight(x).to_bits()).collect();
                let mut wb = chunk.to_vec();
                let rb = b.absorb_weights(&mut wb);
                let wb: Vec<u32> = wb.iter().map(|w| w.to_bits()).collect();
                assert_eq!(ra.to_bits(), rb.to_bits(), "rescale from {start}");
                assert_eq!(wa, wb, "weights from {start}");
                assert_eq!(a.max.to_bits(), b.max.to_bits());
                assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            }
        }
    }

    #[test]
    fn absorb_returns_rescale_factor_on_new_max() {
        let mut st = OnlineSoftmax::new();
        assert_eq!(st.absorb(&[0.0]), 1.0);
        let scale = st.absorb(&[2.0]);
        assert!((scale - (-2.0f32).exp()).abs() < 1e-7);
        // No rescale when max unchanged.
        assert_eq!(st.absorb(&[1.0]), 1.0);
    }
}
