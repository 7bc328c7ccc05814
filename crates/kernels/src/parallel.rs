//! Multi-threaded fused attention: the (batch, head) groups of
//! [`flat_attention`](crate::flat_attention) are embarrassingly parallel —
//! exactly the property the FLAT-tile cross-loop exploits spatially on an
//! accelerator — so the reference kernel parallelizes the same way on CPU
//! threads.

use crate::walk::{walk_group, F32Scores, TwoPass};
use crate::{Mask, Mat, MultiHeadInput};
use rayon::prelude::*;

/// [`flat_attention`](crate::flat_attention) with the (batch, head)
/// groups fanned out over the process-wide worker pool. Produces
/// bit-identical results to the single-threaded kernel (each group's
/// arithmetic is untouched, and groups land in their serial order).
///
/// `threads` is a concurrency *hint* kept for API stability: it is
/// validated, but scheduling is owned by the shared pool, which sizes
/// itself to the host once instead of spawning OS threads per call.
///
/// # Panics
///
/// Panics if `rows_per_tile` or `threads` is zero.
///
/// # Example
///
/// ```
/// use flat_kernels::{flat_attention, parallel_flat_attention, Mask, MultiHeadInput};
///
/// let input = MultiHeadInput::random(2, 8, 64, 64, 16, 9);
/// let serial = flat_attention(&input, 8, Mask::None);
/// let parallel = parallel_flat_attention(&input, 8, Mask::None, 4);
/// for (s, p) in serial.iter().zip(&parallel) {
///     assert_eq!(s.max_abs_diff(p), 0.0);
/// }
/// ```
#[must_use]
pub fn parallel_flat_attention(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
    threads: usize,
) -> Vec<Mat> {
    assert!(rows_per_tile > 0, "row tile must be positive");
    assert!(threads > 0, "need at least one thread");
    (0..input.groups())
        .into_par_iter()
        .map(|g| {
            let scores = F32Scores::new(input, g);
            walk_group::<_, TwoPass>(input, rows_per_tile, input.seq_kv, mask, scores, &mut ())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flat_attention, naive_attention};

    #[test]
    fn identical_to_serial_for_any_thread_count() {
        let input = MultiHeadInput::random(2, 3, 32, 32, 8, 21);
        let serial = flat_attention(&input, 8, Mask::None);
        for threads in [1usize, 2, 3, 6, 16] {
            let par = parallel_flat_attention(&input, 8, Mask::None, threads);
            for (s, p) in serial.iter().zip(&par) {
                assert_eq!(s.max_abs_diff(p), 0.0, "threads = {threads}");
            }
        }
    }

    #[test]
    fn correct_under_masks_and_cross_attention() {
        let input = MultiHeadInput::random(1, 4, 16, 40, 8, 23);
        let exact = naive_attention(&input, Mask::None);
        let par = parallel_flat_attention(&input, 4, Mask::None, 3);
        for (e, p) in exact.iter().zip(&par) {
            assert!(e.max_abs_diff(p) < 1e-4);
        }
        let causal_in = MultiHeadInput::random(2, 2, 20, 20, 4, 27);
        let exact = naive_attention(&causal_in, Mask::Causal);
        let par = parallel_flat_attention(&causal_in, 8, Mask::Causal, 2);
        for (e, p) in exact.iter().zip(&par) {
            assert!(e.max_abs_diff(p) < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let input = MultiHeadInput::random(1, 1, 4, 4, 2, 1);
        let _ = parallel_flat_attention(&input, 2, Mask::None, 0);
    }
}
