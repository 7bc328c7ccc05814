//! The FLAT fused execution, numerically: row-granularity tiles of the
//! logit tensor are computed, softmaxed, and consumed without ever
//! materializing the full `[N, N]` matrix.

use crate::walk::{walk, walk_kind, F32Scores, HalfScores, TwoPass};
use crate::{ComputePrecision, Mask, Mat, MultiHeadInput};
use flat_tensor::SoftmaxKind;

/// Key-dimension chunk of the packed FLASH-D/LogLut walk: one `R × C`
/// logit slice plus the packed K/V chunk rows stay cache-resident while
/// the division-free recurrence folds them into the output.
const KV_CHUNK: usize = 512;

/// FLAT row-granularity fused attention.
///
/// For each (batch, head) group, iterate over row groups of `rows_per_tile`
/// query rows (one FLAT-tile per iteration, exactly the §4.3 walk-through):
///
/// 1. **Stage L** — compute the tile's logit slice `S = Q_r · Kᵀ` (shape
///    `[R, seq_kv]`; the slice holds *complete* rows, which is what makes
///    the softmax exact — this is FLAT's row-granularity invariant),
/// 2. **SFU** — softmax each row of the slice in place,
/// 3. **Stage A** — accumulate `O_r = S · V` into the output rows.
///
/// Peak live intermediate footprint is `R × seq_kv` instead of
/// `seq_q × seq_kv`: the `O(N²) → O(N)` reduction of Table 2, realized in
/// actual arithmetic. The result is bit-for-bit comparable to
/// [`naive_attention`](crate::naive_attention) up to f32 rounding.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{flat_attention, naive_attention, Mask, MultiHeadInput};
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 3);
/// let fused = flat_attention(&input, 4, Mask::None);
/// let naive = naive_attention(&input, Mask::None);
/// for (f, n) in fused.iter().zip(&naive) {
///     assert!(f.max_abs_diff(n) < 1e-5);
/// }
/// ```
#[must_use]
pub fn flat_attention(input: &MultiHeadInput, rows_per_tile: usize, mask: Mask) -> Vec<Mat> {
    assert!(rows_per_tile > 0, "row tile must be positive");
    let scores = |g| F32Scores::new(input, g);
    walk::<_, TwoPass>(input, rows_per_tile, input.seq_kv, mask, scores, &mut ())
}

/// FLAT fused attention with an explicit precision and softmax-kind
/// selection — the mixed-precision kernel family entry point.
///
/// * [`ComputePrecision::F32`] + [`SoftmaxKind::Exact`] is bit-identical
///   to [`flat_attention`].
/// * `Bf16`/`F16` pack Q/K/V at 16 bits ([`HalfMat`](crate::HalfMat));
///   each packed K/V chunk is widened once per group and then runs the
///   f32 microkernels.
/// * [`ComputePrecision::Int8`] routes to the quantized path with an int8
///   score matrix
///   ([`quantized_flat_attention_with`](crate::quantized_flat_attention_with)).
/// * [`SoftmaxKind::FlashD`]/[`SoftmaxKind::LogLut`] replace the two-pass
///   softmax with the division-free recurrence: the output rows stay
///   normalized at every step and no per-row normalize pass ever runs.
///   Over packed storage they fold the key dimension in chunks of 512
///   keys; over f32 and int8 each row is folded whole.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{flat_attention_with, naive_attention, ComputePrecision, Mask, MultiHeadInput};
/// use flat_tensor::SoftmaxKind;
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 3);
/// let fast = flat_attention_with(
///     &input, 8, Mask::None, ComputePrecision::Bf16, SoftmaxKind::FlashD);
/// let exact = naive_attention(&input, Mask::None);
/// for (f, n) in fast.iter().zip(&exact) {
///     assert!(f.max_abs_diff(n) < 2e-2); // bf16 storage noise, not bugs
/// }
/// ```
#[must_use]
pub fn flat_attention_with(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
    precision: ComputePrecision,
    kind: SoftmaxKind,
) -> Vec<Mat> {
    assert!(rows_per_tile > 0, "row tile must be positive");
    let whole_row = input.seq_kv;
    match precision {
        ComputePrecision::F32 => {
            walk_kind::<_, TwoPass>(kind, input, rows_per_tile, whole_row, mask, |g| {
                F32Scores::new(input, g)
            })
        }
        ComputePrecision::Bf16 | ComputePrecision::F16 => {
            // The division-free kinds fold the row in chunks, so a packed
            // K/V chunk and its logit slice stay cache-resident.
            let chunk = if kind == SoftmaxKind::Exact {
                whole_row
            } else {
                KV_CHUNK
            };
            walk_kind::<_, TwoPass>(kind, input, rows_per_tile, chunk, mask, |g| {
                HalfScores::new(input, g, precision, chunk)
            })
        }
        ComputePrecision::Int8 => {
            crate::quantized::quantized_flat_attention_with(input, rows_per_tile, mask, kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_attention;

    fn assert_matches_naive(input: &MultiHeadInput, rows: usize, mask: Mask) {
        let fused = flat_attention(input, rows, mask);
        let naive = naive_attention(input, mask);
        for (g, (f, n)) in fused.iter().zip(&naive).enumerate() {
            let d = f.max_abs_diff(n);
            assert!(d < 1e-5, "group {g}, R={rows}: diff {d}");
        }
    }

    #[test]
    fn equivalent_across_tile_sizes() {
        let input = MultiHeadInput::random(2, 2, 24, 24, 8, 17);
        for rows in [1, 2, 3, 8, 24, 100] {
            assert_matches_naive(&input, rows, Mask::None);
        }
    }

    #[test]
    fn equivalent_under_causal_mask() {
        let input = MultiHeadInput::random(1, 3, 16, 16, 4, 19);
        for rows in [1, 5, 16] {
            assert_matches_naive(&input, rows, Mask::Causal);
        }
    }

    #[test]
    fn equivalent_for_cross_attention() {
        let input = MultiHeadInput::random(2, 1, 6, 40, 8, 23);
        for rows in [1, 4, 6] {
            assert_matches_naive(&input, rows, Mask::None);
        }
    }

    #[test]
    fn non_dividing_tile_sizes_handle_the_tail() {
        let input = MultiHeadInput::random(1, 1, 17, 17, 4, 29);
        assert_matches_naive(&input, 5, Mask::None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_rejected() {
        let input = MultiHeadInput::random(1, 1, 4, 4, 2, 1);
        let _ = flat_attention(&input, 0, Mask::None);
    }

    #[test]
    fn f32_exact_with_variant_is_byte_identical() {
        let input = MultiHeadInput::random(2, 2, 24, 24, 8, 17);
        let reference = flat_attention(&input, 8, Mask::Causal);
        let with = flat_attention_with(
            &input,
            8,
            Mask::Causal,
            ComputePrecision::F32,
            SoftmaxKind::Exact,
        );
        for (a, b) in reference.iter().zip(&with) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    fn every_precision_and_kind_tracks_naive() {
        let input = MultiHeadInput::random(1, 2, 40, 40, 8, 41);
        let exact = naive_attention(&input, Mask::None);
        for &p in ComputePrecision::all() {
            let precision_bound = match p {
                ComputePrecision::F32 => 1e-4,
                ComputePrecision::Bf16 => 2e-2,
                ComputePrecision::F16 => 5e-3,
                ComputePrecision::Int8 => 0.12,
            };
            for kind in [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
                // Precision (storage) error and softmax-kind (algorithm)
                // error are independent contributions.
                let kind_bound = match kind {
                    SoftmaxKind::LogLut => 5e-3,
                    _ => 2e-4,
                };
                let bound = precision_bound + kind_bound;
                let out = flat_attention_with(&input, 8, Mask::None, p, kind);
                for (g, (o, e)) in out.iter().zip(&exact).enumerate() {
                    let d = o.max_abs_diff(e);
                    assert!(d < bound, "{p}/{kind} group {g}: diff {d}");
                }
            }
        }
    }

    #[test]
    fn half_paths_handle_causal_masks_and_ragged_tiles() {
        // The second input spans three key chunks: under the causal mask
        // the early rows meet chunks that are wholly masked.
        for (seq, rows) in [(17, 5), (2 * KV_CHUNK + 76, 64)] {
            let input = MultiHeadInput::random(1, 1, seq, seq, 4, 43);
            let exact = naive_attention(&input, Mask::Causal);
            for p in [ComputePrecision::Bf16, ComputePrecision::F16] {
                for kind in [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
                    let out = flat_attention_with(&input, rows, Mask::Causal, p, kind);
                    let d = out[0].max_abs_diff(&exact[0]);
                    assert!(d < 2e-2, "seq {seq} {p}/{kind}: diff {d}");
                }
            }
        }
    }

    #[test]
    fn chunked_walk_crosses_kv_chunk_boundaries() {
        // seq_kv > KV_CHUNK so the FLASH-D walk carries across chunks.
        let input = MultiHeadInput::random(1, 1, 4, KV_CHUNK + 37, 8, 47);
        let exact = naive_attention(&input, Mask::None);
        let out = flat_attention_with(
            &input,
            4,
            Mask::None,
            ComputePrecision::Bf16,
            SoftmaxKind::FlashD,
        );
        let d = out[0].max_abs_diff(&exact[0]);
        assert!(d < 2e-2, "diff {d}");
    }
}
