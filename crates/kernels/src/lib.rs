//! Numerical reference kernels: the arithmetic witness that FLAT's tiling
//! is exact.
//!
//! The cost model in `flat-core` argues about cycles and bytes; this crate
//! argues about *values*. [`naive_attention`] is the baseline that
//! materializes the full `O(N²)` logit tensor. Every other prefill kernel
//! runs one walk over each (batch, head) group: key chunks outermost, row
//! tiles inside, each step computing an `R × C` logit tile, masking and
//! scaling it, folding each row into a per-row softmax state, and adding
//! its product with the value chunk into the output rows. The entry
//! points differ only in what they plug into that walk:
//!
//! | entry point | scores | softmax fold | chunk `C` |
//! |---|---|---|---|
//! | [`flat_attention`], [`parallel_flat_attention`], [`instrumented_flat_attention`] | f32 | two-pass | `seq_kv` |
//! | [`flat_attention_with`] | f32, packed bf16/f16 ([`HalfMat`]) or int8 | two-pass, [`FlashDSoftmax`], [`LogLutSoftmax`] | `seq_kv`; 512 for packed FLASH-D/log-LUT |
//! | [`streaming_attention`], [`streaming_attention_with`] | f32, inputs rounded through the storage grid | [`OnlineSoftmax`], FLASH-D, log-LUT | `kv_tile` |
//! | [`quantized_flat_attention`], [`quantized_flat_attention_with`] | int8 ([`QuantizedMat`]) | two-pass, FLASH-D, log-LUT | `seq_kv` |
//!
//! With `C = seq_kv` the walk is FLAT's row-granularity execution (compute
//! a `[R, N]` logit slice, softmax it, consume it, discard it). A narrower
//! chunk is the key-dimension tiling that FLAT's row-granularity
//! constraint points at, and that FlashAttention later built on. The
//! instrumented kernel runs the same walk with an [`ExecutionStats`]
//! observer that counts every buffer touch.
//!
//! [`decode_attention`] and [`decode_attention_with`] are the
//! autoregressive serving step, consumed by the `flat-serve` runtime: one
//! query row against a growing KV set, in a single pass (`O(N)` per
//! generated token). They run no tiles, but the same softmax folds as the
//! walk: each cached row's logit enters the fold as a one-element chunk,
//! and its weight times the value row is added into the output.
//!
//! [`ComputePrecision`] selects the storage: f32, bf16/f16 packed storage
//! widened to f32 for arithmetic, or int8 with integer GEMMs and an int8
//! score matrix. [`SoftmaxKind`](flat_tensor::SoftmaxKind) selects the
//! softmax: exact, FLASH-D (division folded into the accumulation
//! recurrence, no normalize pass), or log-LUT (log2-domain adds + LUT, no
//! `exp` and no divider).
//!
//! Unit and property tests check every kernel against the naive reference
//! within its precision's bound, for every shape, tile size and mask,
//! including cross-attention (`seq_q ≠ seq_kv`) and causal decoding.
//!
//! # Example
//!
//! ```
//! use flat_kernels::{flat_attention, naive_attention, Mask, MultiHeadInput};
//!
//! let input = MultiHeadInput::random(2, 4, 64, 64, 16, 1);
//! let naive = naive_attention(&input, Mask::None);
//! let fused = flat_attention(&input, 8, Mask::None); // R-Gran, R = 8
//! for (f, n) in fused.iter().zip(&naive) {
//!     assert!(f.max_abs_diff(n) < 1e-5);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attention;
mod decode;
mod fused;
mod halfmat;
mod instrumented;
mod mat;
mod parallel;
mod precision;
mod quantized;
mod softmax;
mod softmax_family;
mod streaming;
mod walk;

pub use attention::{naive_attention, Mask, MultiHeadInput};
pub use decode::{decode_attention, decode_attention_with};
pub use fused::{flat_attention, flat_attention_with};
pub use halfmat::HalfMat;
pub use instrumented::{
    instrumented_flat_attention, instrumented_flat_attention_traced, ExecutionStats,
};
pub use mat::Mat;
pub use parallel::parallel_flat_attention;
pub use precision::{online_softmax_bf16, round_bf16, softmax_error, softmax_row_bf16};
pub use quantized::{quantized_flat_attention, quantized_flat_attention_with, QuantizedMat};
pub use softmax::{softmax_row, OnlineSoftmax};
pub use softmax_family::{
    exp2_lut, fast_exp, fast_exp2, log2_add_lut, softmax_row_kind, ComputePrecision, FlashDSoftmax,
    LogLutSoftmax,
};
pub use streaming::{streaming_attention, streaming_attention_with};
