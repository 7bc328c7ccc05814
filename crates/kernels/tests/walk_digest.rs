//! Bit-exact pin of every prefill attention entry point.
//!
//! Each entry point runs over a fixed grid of inputs, and the f32 bits of
//! every output element (plus the `ExecutionStats` counters, where an
//! entry point returns them) are folded into one FNV-1a digest per entry
//! point and precision. The expected digests were captured from the
//! per-variant row-tile loops, before the kernels moved onto one shared
//! group walk, so a mismatch means a kernel's arithmetic changed, not just
//! its error.
//!
//! The grid covers ragged row tiles (`R ∤ seq_q`) and a tile taller than
//! `seq_q`, cross-attention, head widths that leave tails in the 8-lane
//! dot and the 16-column attend microkernels, `seq_kv` past the 512-key
//! chunk of the packed division-free walk, both masks, every precision
//! and softmax kind, and streaming key tiles of 1, 37 and wider than
//! `seq_kv`.
//!
//! The digests depend on the platform `exp` (the exact softmax calls
//! `f32::exp`); they were taken on x86-64 Linux with glibc.

use flat_kernels::{
    flat_attention, flat_attention_with, instrumented_flat_attention,
    instrumented_flat_attention_traced, parallel_flat_attention, quantized_flat_attention,
    quantized_flat_attention_with, streaming_attention, streaming_attention_with, ComputePrecision,
    ExecutionStats, Mask, Mat, MultiHeadInput,
};
use flat_telemetry::MemorySink;
use flat_tensor::SoftmaxKind;

/// `(batch, heads, seq_q, seq_kv, dk, rows_per_tile)`.
const SHAPES: [(usize, usize, usize, usize, usize, usize); 4] = [
    // Ragged row tiles; dk 12 leaves an 8-lane and a 16-column tail.
    (1, 2, 17, 17, 12, 5),
    // One row tile taller than the whole query sequence.
    (1, 1, 6, 6, 16, 16),
    // Cross-attention, dk 20.
    (2, 1, 9, 40, 20, 4),
    // seq_kv past the 512-key chunk: the chunked folds carry across
    // chunks, and under the causal mask every row meets a fully masked
    // chunk after its visible keys.
    (1, 1, 20, 530, 19, 8),
];

const MASKS: [Mask; 2] = [Mask::None, Mask::Causal];

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn mats(&mut self, out: &[Mat]) {
        for m in out {
            self.word(m.rows() as u64);
            self.word(m.cols() as u64);
            for &x in m.as_slice() {
                self.word(u64::from(x.to_bits()));
            }
        }
    }

    fn stats(&mut self, s: &ExecutionStats) {
        for w in [
            s.q_reads,
            s.k_reads,
            s.v_reads,
            s.o_writes,
            s.logit_writes,
            s.logit_reads,
            s.peak_live_logits,
            s.iterations,
        ] {
            self.word(w);
        }
    }
}

/// Runs `f` on every (input, mask, rows_per_tile) of the grid and digests
/// what it returns.
fn over_grid(mut f: impl FnMut(&MultiHeadInput, Mask, usize, &mut Digest)) -> u64 {
    let mut d = Digest::new();
    for (i, &(b, h, sq, skv, dk, rows)) in SHAPES.iter().enumerate() {
        let input = MultiHeadInput::random(b, h, sq, skv, dk, 100 + i as u64);
        for mask in MASKS {
            f(&input, mask, rows, &mut d);
        }
    }
    d.0
}

/// Streaming key tiles: single keys, a width that divides no shape, and
/// one wider than `seq_kv`.
fn kv_tiles(input: &MultiHeadInput) -> [usize; 3] {
    [1, 37, input.seq_kv + 5]
}

fn digests() -> Vec<(String, u64)> {
    let mut all = vec![
        (
            "flat_attention".to_string(),
            over_grid(|x, m, r, d| d.mats(&flat_attention(x, r, m))),
        ),
        (
            "parallel_flat_attention".to_string(),
            over_grid(|x, m, r, d| d.mats(&parallel_flat_attention(x, r, m, 2))),
        ),
        (
            "instrumented_flat_attention".to_string(),
            over_grid(|x, m, r, d| {
                let (out, stats) = instrumented_flat_attention(x, r, m);
                d.mats(&out);
                d.stats(&stats);
            }),
        ),
        (
            "instrumented_flat_attention_traced".to_string(),
            over_grid(|x, m, r, d| {
                let mut sink = MemorySink::new();
                let (out, stats) = instrumented_flat_attention_traced(x, r, m, &mut sink);
                d.mats(&out);
                d.stats(&stats);
            }),
        ),
        (
            "quantized_flat_attention".to_string(),
            over_grid(|x, m, r, d| d.mats(&quantized_flat_attention(x, r, m))),
        ),
        (
            "quantized_flat_attention_with".to_string(),
            over_grid(|x, m, r, d| {
                for &kind in SoftmaxKind::all() {
                    d.mats(&quantized_flat_attention_with(x, r, m, kind));
                }
            }),
        ),
        (
            "streaming_attention".to_string(),
            over_grid(|x, m, r, d| {
                for kv in kv_tiles(x) {
                    d.mats(&streaming_attention(x, r, kv, m));
                }
            }),
        ),
    ];
    for &p in ComputePrecision::all() {
        all.push((
            format!("flat_attention_with/{p}"),
            over_grid(|x, m, r, d| {
                for &kind in SoftmaxKind::all() {
                    d.mats(&flat_attention_with(x, r, m, p, kind));
                }
            }),
        ));
        all.push((
            format!("streaming_attention_with/{p}"),
            over_grid(|x, m, r, d| {
                for &kind in SoftmaxKind::all() {
                    for kv in kv_tiles(x) {
                        d.mats(&streaming_attention_with(x, r, kv, m, p, kind));
                    }
                }
            }),
        ));
    }
    all
}

/// Digests of the parent implementation, one per entry point (and per
/// precision for the `_with` entry points).
const EXPECTED: [(&str, u64); 15] = [
    ("flat_attention", 0x0860_1acd_6618_275f),
    ("parallel_flat_attention", 0x0860_1acd_6618_275f),
    ("instrumented_flat_attention", 0x78a2_1d75_16e7_cfa3),
    ("instrumented_flat_attention_traced", 0x78a2_1d75_16e7_cfa3),
    ("quantized_flat_attention", 0x271d_887a_f890_59d2),
    ("quantized_flat_attention_with", 0x0a64_907a_c046_334f),
    ("streaming_attention", 0xaa66_9fc8_e572_96b9),
    ("flat_attention_with/fp32", 0x6dbd_11a2_ce12_6fa3),
    ("streaming_attention_with/fp32", 0x102f_f1b8_b47e_20cf),
    ("flat_attention_with/bf16", 0x5ea2_aaec_7f34_31dc),
    ("streaming_attention_with/bf16", 0xaa8b_c0f1_af6e_6b9d),
    ("flat_attention_with/fp16", 0x9ee2_9107_2f1d_c6f7),
    ("streaming_attention_with/fp16", 0x6cdd_d724_59dc_1fcd),
    ("flat_attention_with/int8", 0x0a64_907a_c046_334f),
    ("streaming_attention_with/int8", 0x03a4_c859_c163_ffbc),
];

#[test]
fn every_prefill_entry_point_is_bit_identical_to_the_pinned_digest() {
    let got = digests();
    let mismatched: Vec<String> = got
        .iter()
        .zip(EXPECTED)
        .filter(|((name, d), (want_name, want))| name != want_name || d != want)
        .map(|((name, d), (_, want))| format!("{name}: got {d:#018x}, pinned {want:#018x}"))
        .collect();
    assert_eq!(got.len(), EXPECTED.len());
    assert!(mismatched.is_empty(), "{}", mismatched.join("\n"));
}
