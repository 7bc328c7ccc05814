//! Key-dimension streaming attention (online softmax) — the extension
//! beyond FLAT's row granularity.
//!
//! FLAT's finest slice is a complete logit row, because exact softmax
//! reduces along the key dimension (§4.2.1). The online-softmax rescaling
//! trick relaxes even that: logit *columns* can be produced in chunks and
//! consumed immediately, shrinking the live slice from `R × N` to
//! `R × C`. This module implements that execution as the natural
//! future-work direction (it is the algorithmic core FlashAttention later
//! built on), and the tests prove it equivalent to the exact computation.

use crate::softmax_family::storage_snap;
use crate::walk::{walk, walk_kind, F32Scores};
use crate::{ComputePrecision, Mask, Mat, MultiHeadInput, OnlineSoftmax};
use flat_tensor::SoftmaxKind;

/// Streaming attention: tiles of `rows_per_tile × kv_tile` logits are
/// produced and folded into a running output with online-softmax
/// rescaling. No logit row is ever complete in memory.
///
/// # Panics
///
/// Panics if either tile extent is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{naive_attention, streaming_attention, Mask, MultiHeadInput};
///
/// let input = MultiHeadInput::random(1, 1, 16, 16, 8, 5);
/// let streamed = streaming_attention(&input, 4, 4, Mask::None);
/// let exact = naive_attention(&input, Mask::None);
/// assert!(streamed[0].max_abs_diff(&exact[0]) < 1e-4);
/// ```
#[must_use]
pub fn streaming_attention(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    kv_tile: usize,
    mask: Mask,
) -> Vec<Mat> {
    assert!(
        rows_per_tile > 0 && kv_tile > 0,
        "tile extents must be positive"
    );
    let scores = |g| F32Scores::new(input, g);
    walk::<_, OnlineSoftmax>(input, rows_per_tile, kv_tile, mask, scores, &mut ())
}

/// Streaming attention with an explicit precision and softmax kind.
///
/// `F32` + `Exact` is exactly [`streaming_attention`]. Other
/// precisions first snap Q/K/V through the storage grid (bf16/f16
/// rounding, or the int8 quantization grid). The FLASH-D and log-LUT
/// kinds replace the online-softmax fold with the division-free
/// recurrence: the output rows stay normalized after every chunk and the
/// final per-row divide pass disappears.
///
/// # Panics
///
/// Panics if either tile extent is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{naive_attention, streaming_attention_with, ComputePrecision, Mask, MultiHeadInput};
/// use flat_tensor::SoftmaxKind;
///
/// let input = MultiHeadInput::random(1, 1, 16, 16, 8, 5);
/// let out = streaming_attention_with(
///     &input, 4, 4, Mask::None, ComputePrecision::Bf16, SoftmaxKind::FlashD);
/// let exact = naive_attention(&input, Mask::None);
/// assert!(out[0].max_abs_diff(&exact[0]) < 2e-2);
/// ```
#[must_use]
pub fn streaming_attention_with(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    kv_tile: usize,
    mask: Mask,
    precision: ComputePrecision,
    kind: SoftmaxKind,
) -> Vec<Mat> {
    assert!(
        rows_per_tile > 0 && kv_tile > 0,
        "tile extents must be positive"
    );
    let snapped;
    let input = if precision == ComputePrecision::F32 {
        input
    } else {
        snapped = MultiHeadInput {
            batch: input.batch,
            heads: input.heads,
            seq_q: input.seq_q,
            seq_kv: input.seq_kv,
            dk: input.dk,
            q: input.q.iter().map(|m| storage_snap(m, precision)).collect(),
            k: input.k.iter().map(|m| storage_snap(m, precision)).collect(),
            v: input.v.iter().map(|m| storage_snap(m, precision)).collect(),
        };
        &snapped
    };
    walk_kind::<_, OnlineSoftmax>(kind, input, rows_per_tile, kv_tile, mask, |g| {
        F32Scores::new(input, g)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_attention;

    fn assert_matches_naive(input: &MultiHeadInput, rows: usize, cols: usize, mask: Mask) {
        let streamed = streaming_attention(input, rows, cols, mask);
        let exact = naive_attention(input, mask);
        for (g, (s, e)) in streamed.iter().zip(&exact).enumerate() {
            let d = s.max_abs_diff(e);
            assert!(d < 1e-4, "group {g}, tile {rows}x{cols}: diff {d}");
        }
    }

    #[test]
    fn equivalent_across_kv_tilings() {
        let input = MultiHeadInput::random(1, 2, 12, 20, 8, 31);
        for cols in [1, 3, 7, 20, 64] {
            assert_matches_naive(&input, 4, cols, Mask::None);
        }
    }

    #[test]
    fn equivalent_under_causal_mask() {
        let input = MultiHeadInput::random(1, 1, 10, 10, 4, 37);
        assert_matches_naive(&input, 3, 4, Mask::Causal);
    }

    #[test]
    fn single_element_tiles_still_exact() {
        let input = MultiHeadInput::random(1, 1, 6, 6, 2, 41);
        assert_matches_naive(&input, 1, 1, Mask::None);
    }

    #[test]
    fn matches_flat_execution_too() {
        let input = MultiHeadInput::random(2, 2, 16, 16, 4, 43);
        let streamed = streaming_attention(&input, 4, 8, Mask::None);
        let flat = crate::flat_attention(&input, 4, Mask::None);
        for (s, f) in streamed.iter().zip(&flat) {
            assert!(s.max_abs_diff(f) < 1e-4);
        }
    }
}
