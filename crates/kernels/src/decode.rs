//! Single-query decode-step attention over a growing KV set.
//!
//! Autoregressive serving attends one query row against the whole cached
//! prefix at every generated token. This is FLAT's row-granularity fusion
//! at its smallest: a row of one query, folded into its output as each
//! logit is produced, with no logit buffer and no second pass. The kernel
//! feeds every cached K/V row to the prefill walk's per-row softmax
//! [`Fold`] as a one-element chunk, so a decode step is a single
//! `O(N·dk)` pass that runs the same online, FLASH-D and log-LUT folds the
//! prefill kernels run. The logits of a group of rows are computed before
//! the group is folded, so their dot products overlap; the fold itself is
//! sequential. Off f32, the query and each streamed row are rounded
//! through the storage grid into reusable scratch rows; f32 rows are read
//! where they lie. This is the kernel the `flat-serve` engine calls once
//! per scheduled decode token, with the K/V rows streamed straight out of
//! its paged cache blocks.

use crate::mat::dot;
use crate::softmax_family::{FlashDSoftmax, LogLutSoftmax};
use crate::walk::Fold;
use crate::{ComputePrecision, OnlineSoftmax};
use flat_tensor::half::round_to;
use flat_tensor::SoftmaxKind;

/// Cached rows whose logits are computed before any of them is folded.
const GROUP: usize = 16;

/// Attention output of one decode step: the query row `q` against every
/// cached `(key, value)` row the iterator yields, in order.
///
/// The fold is the online-softmax rescaling, so the rows may arrive in any
/// grouping (e.g. paged cache blocks) without changing the result beyond
/// f32 rounding. Causality is positional: the caller yields exactly the
/// rows the current token may attend to — for self-attention that includes
/// the token's own K/V row, so at step 1 (a single cached row) the output
/// equals that value row exactly.
///
/// # Panics
///
/// Panics if no K/V row is yielded, or if a key row's length differs from
/// the query's.
///
/// # Example
///
/// ```
/// use flat_kernels::decode_attention;
///
/// // One cached row: softmax over a single logit is 1, output = value row.
/// let q = [0.3f32, -1.0];
/// let k = [0.5f32, 0.25];
/// let v = [2.0f32, -4.0];
/// let out = decode_attention(&q, [(&k[..], &v[..])], 1.0);
/// assert_eq!(out, vec![2.0, -4.0]);
/// ```
#[must_use]
pub fn decode_attention<'a, I>(q: &[f32], kv: I, scale: f32) -> Vec<f32>
where
    I: IntoIterator<Item = (&'a [f32], &'a [f32])>,
{
    decode_fold::<OnlineSoftmax, I>(q, kv, scale, ComputePrecision::F32)
}

/// One decode step with an explicit precision and softmax kind — the
/// kernel `flat-serve` calls when the engine is configured off the f32
/// reference.
///
/// `F32` + `Exact` is [`decode_attention`], bit for bit. Other precisions
/// snap the query and each streamed K/V row through the storage grid
/// first. The FLASH-D and log-LUT kinds run the fold as
/// `acc ← acc·carry + w̃·v`: the accumulator is normalized after every
/// cached row and the final divide disappears (the single-element FLASH-D
/// form is exactly the incremental average `o ← o + μ(v − o)`).
///
/// # Panics
///
/// Panics if no K/V row is yielded, or if a key row's length differs from
/// the query's.
#[must_use]
pub fn decode_attention_with<'a, I>(
    q: &[f32],
    kv: I,
    scale: f32,
    precision: ComputePrecision,
    kind: SoftmaxKind,
) -> Vec<f32>
where
    I: IntoIterator<Item = (&'a [f32], &'a [f32])>,
{
    match kind {
        SoftmaxKind::Exact => decode_fold::<OnlineSoftmax, I>(q, kv, scale, precision),
        SoftmaxKind::FlashD => decode_fold::<FlashDSoftmax, I>(q, kv, scale, precision),
        SoftmaxKind::LogLut => decode_fold::<LogLutSoftmax, I>(q, kv, scale, precision),
    }
}

/// `row` rounded through the storage grid of `precision`, written into
/// `scratch`; an f32 row is returned as it is.
fn snap_row<'r>(
    row: &'r [f32],
    precision: ComputePrecision,
    scratch: &'r mut Vec<f32>,
) -> &'r [f32] {
    match precision {
        ComputePrecision::F32 => row,
        ComputePrecision::Bf16 | ComputePrecision::F16 => {
            scratch.clear();
            scratch.extend(row.iter().map(|&x| round_to(precision.dtype(), x)));
            scratch
        }
        ComputePrecision::Int8 => {
            scratch.clear();
            scratch.extend_from_slice(row);
            crate::quantized::snap_logits_int8(scratch);
            scratch
        }
    }
}

/// The decode step: each cached row's logit folded through `F` as a
/// one-element chunk, its weight times the value row added into the
/// output, and the output finished by the fold.
fn decode_fold<'a, F: Fold, I>(
    q: &[f32],
    kv: I,
    scale: f32,
    precision: ComputePrecision,
) -> Vec<f32>
where
    I: IntoIterator<Item = (&'a [f32], &'a [f32])>,
{
    let mut q_scratch = Vec::new();
    let q = snap_row(q, precision, &mut q_scratch);
    let (mut k_scratch, mut v_scratch) = (Vec::new(), Vec::new());
    let mut fold = F::default();
    let mut acc: Option<Vec<f32>> = None;
    // Each grouped row's value row and logit.
    let mut group: [(&[f32], f32); GROUP] = [(&[], 0.0); GROUP];
    let mut kv = kv.into_iter();
    loop {
        let mut n = 0;
        for (k, v) in kv.by_ref().take(GROUP) {
            assert_eq!(k.len(), q.len(), "key row length must match the query");
            group[n] = (v, dot(q, snap_row(k, precision, &mut k_scratch)) * scale);
            n += 1;
        }
        if n == 0 {
            break;
        }
        let acc = acc.get_or_insert_with(|| vec![0.0; group[0].0.len()]);
        for &(v, logit) in &group[..n] {
            let mut w = logit;
            let carry = fold.fold(std::slice::from_mut(&mut w));
            if carry != 1.0 {
                for a in acc.iter_mut() {
                    *a *= carry;
                }
            }
            let v = snap_row(v, precision, &mut v_scratch);
            for (a, &vv) in acc.iter_mut().zip(v) {
                *a = w.mul_add(vv, *a);
            }
        }
    }
    let Some(mut acc) = acc else {
        panic!("decode_attention needs at least one cached K/V row");
    };
    fold.finish(&mut acc);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive_attention, Mask, MultiHeadInput};

    /// Decoding every position of a causal self-attention, one step at a
    /// time, reproduces the rows of the exact batched computation.
    #[test]
    fn steps_match_causal_naive_rows() {
        let input = MultiHeadInput::random(1, 1, 12, 12, 8, 17);
        let exact = naive_attention(&input, Mask::Causal);
        let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
        for i in 0..12 {
            let kv = (0..=i).map(|j| (k.row(j), v.row(j)));
            let out = decode_attention(q.row(i), kv, input.scale());
            for (j, &o) in out.iter().enumerate() {
                assert!((o - exact[0].at(i, j)).abs() < 1e-5, "step {i}, col {j}");
            }
        }
    }

    #[test]
    fn first_step_returns_the_value_row() {
        let input = MultiHeadInput::random(1, 1, 1, 1, 6, 23);
        let out = decode_attention(
            input.q[0].row(0),
            [(input.k[0].row(0), input.v[0].row(0))],
            input.scale(),
        );
        for (o, &vv) in out.iter().zip(input.v[0].row(0)) {
            assert_eq!(*o, vv);
        }
    }

    #[test]
    #[should_panic(expected = "at least one cached K/V row")]
    fn empty_prefix_panics() {
        let _ = decode_attention(&[1.0, 2.0], std::iter::empty(), 1.0);
    }

    #[test]
    fn f32_exact_with_variant_is_byte_identical() {
        let input = MultiHeadInput::random(1, 1, 8, 8, 4, 29);
        let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
        for i in 0..8 {
            let reference = decode_attention(
                q.row(i),
                (0..=i).map(|j| (k.row(j), v.row(j))),
                input.scale(),
            );
            let with = decode_attention_with(
                q.row(i),
                (0..=i).map(|j| (k.row(j), v.row(j))),
                input.scale(),
                ComputePrecision::F32,
                SoftmaxKind::Exact,
            );
            assert_eq!(reference, with, "step {i}");
        }
    }

    #[test]
    fn family_kinds_track_causal_naive_rows() {
        let input = MultiHeadInput::random(1, 1, 10, 10, 8, 31);
        let exact = naive_attention(&input, Mask::Causal);
        let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
        for kind in [SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
            for i in 0..10 {
                let kv = (0..=i).map(|j| (k.row(j), v.row(j)));
                let out =
                    decode_attention_with(q.row(i), kv, input.scale(), ComputePrecision::F32, kind);
                for (j, &o) in out.iter().enumerate() {
                    let d = (o - exact[0].at(i, j)).abs();
                    assert!(d < 5e-3, "{kind} step {i}, col {j}: diff {d}");
                }
            }
        }
    }

    #[test]
    fn step_one_returns_the_storage_rounded_value_row() {
        // The step-1 causal decode edge: softmax over one logit is exactly
        // 1 in every family member, so the output is the (storage-rounded)
        // value row.
        let input = MultiHeadInput::random(1, 1, 1, 1, 6, 37);
        let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
        for &p in ComputePrecision::all() {
            for kind in [SoftmaxKind::Exact, SoftmaxKind::FlashD, SoftmaxKind::LogLut] {
                let out =
                    decode_attention_with(q.row(0), [(k.row(0), v.row(0))], input.scale(), p, kind);
                let mut scratch = Vec::new();
                let snapped = snap_row(v.row(0), p, &mut scratch);
                for (o, &vv) in out.iter().zip(snapped) {
                    assert!((o - vv).abs() < 1e-5, "{p}/{kind}: {o} vs {vv}");
                }
            }
        }
    }
}
