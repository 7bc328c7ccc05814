//! Bit-exact pin of the decode-step attention kernel.
//!
//! [`decode_attention`] and [`decode_attention_with`] run over a fixed grid
//! of contexts and head widths, and the f32 bits of every output element
//! are folded into one FNV-1a digest per entry point, precision and row
//! feed. A mismatch means the decode arithmetic changed, not just its
//! error.
//!
//! Contexts straddle the 16-token block of the serving KV pool (1, 15,
//! 16, 17, 33) and reach past a 512-key chunk (530). Head widths leave a
//! tail in the 8-lane dot (12) or none (32, 64). Every context runs at
//! the engine's `1/√dk` scale and at a scale of 16, whose logits spread
//! over hundreds of units: the running max jumps far and some weights
//! underflow to zero. Rows are
//! fed two ways: one `(key, value)` pair per item straight from a matrix,
//! as the benchmark does, and out of 16-row blocks through
//! [`KvPool::rows`], as the serving engine does.
//!
//! The digests depend on the platform `exp` (the exact softmax calls
//! `f32::exp`); they were taken on x86-64 Linux with glibc.

use flat_kernels::{decode_attention, decode_attention_with, ComputePrecision, MultiHeadInput};
use flat_serve::{BlockTable, KvPool};
use flat_tensor::SoftmaxKind;

const CONTEXTS: [usize; 6] = [1, 15, 16, 17, 33, 530];
const WIDTHS: [usize; 3] = [12, 32, 64];
/// Tokens per pool block, the serving engine's default.
const BLOCK_TOKENS: usize = 16;

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

    fn row(&mut self, out: &[f32]) {
        self.word(out.len() as u64);
        for &x in out {
            self.word(u64::from(x.to_bits()));
        }
    }
}

/// How the cached rows reach the kernel.
#[derive(Clone, Copy)]
enum Feed {
    /// One `(key, value)` pair per item, borrowed from the input matrices.
    Rows,
    /// The rows appended to a [`KvPool`] and read back through
    /// [`KvPool::rows`].
    Pool,
}

/// One decode case: a query row, `ctx` cached rows of width `dk`, a scale.
struct Case {
    input: MultiHeadInput,
    scale: f32,
    pool: KvPool,
    table: BlockTable,
}

impl Case {
    fn new(ctx: usize, dk: usize, seed: u64, sharp: bool) -> Self {
        let input = MultiHeadInput::random(1, 1, 1, ctx, dk, seed);
        let scale = if sharp { 16.0 } else { input.scale() };
        let mut pool = KvPool::new(ctx.div_ceil(BLOCK_TOKENS), BLOCK_TOKENS, dk);
        let mut table = BlockTable::new();
        for j in 0..ctx {
            assert!(pool.try_append(&mut table, input.k[0].row(j), input.v[0].row(j)));
        }
        Case {
            input,
            scale,
            pool,
            table,
        }
    }

    fn q(&self) -> &[f32] {
        self.input.q[0].row(0)
    }

    /// Runs `kernel` with this case's rows fed as `feed`.
    fn run<'a, K>(&'a self, feed: Feed, kernel: K) -> Vec<f32>
    where
        K: FnOnce(&mut dyn Iterator<Item = (&'a [f32], &'a [f32])>) -> Vec<f32>,
    {
        let (k, v) = (&self.input.k[0], &self.input.v[0]);
        match feed {
            Feed::Rows => kernel(&mut (0..k.rows()).map(|j| (k.row(j), v.row(j)))),
            Feed::Pool => kernel(&mut self.pool.rows(&self.table)),
        }
    }
}

/// Every case of the grid, in a fixed order.
fn cases() -> Vec<Case> {
    let mut all = Vec::new();
    for (i, &dk) in WIDTHS.iter().enumerate() {
        for (j, &ctx) in CONTEXTS.iter().enumerate() {
            let seed = 500 + (i * CONTEXTS.len() + j) as u64;
            for sharp in [false, true] {
                all.push(Case::new(ctx, dk, seed, sharp));
            }
        }
    }
    all
}

fn digests() -> Vec<(String, u64)> {
    let cases = cases();
    let mut all = Vec::new();
    for (feed, tag) in [(Feed::Rows, "rows"), (Feed::Pool, "pool")] {
        let mut d = Digest::new();
        for c in &cases {
            d.row(&c.run(feed, |kv| decode_attention(c.q(), kv, c.scale)));
        }
        all.push((format!("decode_attention/{tag}"), d.0));
        for &p in ComputePrecision::all() {
            let mut d = Digest::new();
            for c in &cases {
                for &kind in SoftmaxKind::all() {
                    d.row(&c.run(feed, |kv| {
                        decode_attention_with(c.q(), kv, c.scale, p, kind)
                    }));
                }
            }
            all.push((format!("decode_attention_with/{p}/{tag}"), d.0));
        }
    }
    all
}

/// Digests of the reference decode kernel, one per entry point,
/// precision and feed.
const EXPECTED: [(&str, u64); 10] = [
    ("decode_attention/rows", 0xf229_79f1_c67c_d21b),
    ("decode_attention_with/fp32/rows", 0xb603_a46b_7ce4_b861),
    ("decode_attention_with/bf16/rows", 0x3d01_0839_e73c_fa32),
    ("decode_attention_with/fp16/rows", 0x11f9_8291_8ef9_2eaa),
    ("decode_attention_with/int8/rows", 0x6b31_a34e_7cd8_e4f0),
    ("decode_attention/pool", 0xf229_79f1_c67c_d21b),
    ("decode_attention_with/fp32/pool", 0xb603_a46b_7ce4_b861),
    ("decode_attention_with/bf16/pool", 0x3d01_0839_e73c_fa32),
    ("decode_attention_with/fp16/pool", 0x11f9_8291_8ef9_2eaa),
    ("decode_attention_with/int8/pool", 0x6b31_a34e_7cd8_e4f0),
];

#[test]
fn every_decode_entry_point_is_bit_identical_to_the_pinned_digest() {
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

/// Feeding rows straight from the matrices or out of pool blocks is the
/// same computation: the two feeds digest alike.
#[test]
fn pool_blocks_and_single_rows_give_the_same_bits() {
    let got = digests();
    let (rows, pool) = got.split_at(got.len() / 2);
    for ((a, da), (b, db)) in rows.iter().zip(pool) {
        assert_eq!(da, db, "{a} vs {b}");
    }
}
