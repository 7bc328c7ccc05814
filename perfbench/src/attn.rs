//! `attn_prefill`: the CPU attention entry points of flat-kernels on
//! seeded multi-head inputs, at a short and a long sequence.
//!
//! A run goes in rounds; each round calls every variant of a shape's menu
//! once, so host noise falls on all of them alike. One op is one call,
//! checked against the naive reference computed in set-up.

use crate::outcome::{ensure, timed_setup, Outcome, SETUP_REPS};
use crate::span::Tracer;
use crate::stats::{geomean, median, min};
use flat_kernels::{
    flat_attention, flat_attention_with, naive_attention, parallel_flat_attention, softmax_row,
    ComputePrecision, Mask, Mat, MultiHeadInput,
};
use flat_tensor::SoftmaxKind;
use std::hint::black_box;
use std::time::Instant;

const DK: usize = 64;
const ROWS_PER_TILE: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// seq 512: one head's logit matrix is 1 MiB and fits a 2 MiB L2.
    Short,
    /// seq 4096: 64 MiB per head, far beyond L2; the paper's 4K anchor.
    Long,
}

impl Shape {
    fn seq(self) -> usize {
        match self {
            Shape::Short => 512,
            Shape::Long => 4096,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Shape::Short => "short",
            Shape::Long => "long",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    Flat,
    Parallel,
    With(ComputePrecision, SoftmaxKind),
}

struct Variant {
    /// Metric and span label.
    name: &'static str,
    span: &'static str,
    kernel: Kernel,
    /// Largest `max_rel_error` against the naive reference the kernel
    /// docs and tests allow for this precision.
    bound: f64,
}

const MENU: [Variant; 5] = [
    Variant {
        name: "flat_f32",
        span: "kernels.flat_attention",
        kernel: Kernel::Flat,
        bound: 1e-4,
    },
    Variant {
        name: "parallel_f32",
        span: "kernels.parallel_flat_attention",
        kernel: Kernel::Parallel,
        bound: 1e-4,
    },
    Variant {
        name: "bf16_flashd",
        span: "kernels.flat_attention_with.bf16_flashd",
        kernel: Kernel::With(ComputePrecision::Bf16, SoftmaxKind::FlashD),
        bound: 2e-2,
    },
    Variant {
        name: "bf16_loglut",
        span: "kernels.flat_attention_with.bf16_loglut",
        kernel: Kernel::With(ComputePrecision::Bf16, SoftmaxKind::LogLut),
        bound: 2e-2,
    },
    Variant {
        name: "int8_flashd",
        span: "kernels.flat_attention_with.int8_flashd",
        kernel: Kernel::With(ComputePrecision::Int8, SoftmaxKind::FlashD),
        bound: 0.1,
    },
];

/// The variants a shape runs: the long shape keeps f32, parallel and
/// bf16 FLASH-D, since log-LUT and int8 cost 1.6x and 6x f32 per call.
fn menu(shape: Shape) -> &'static [Variant] {
    match shape {
        Shape::Short => &MENU,
        Shape::Long => &MENU[..3],
    }
}

/// Heads per input: at least one per pool thread, so the parallel
/// variant has work for every lane.
fn heads() -> usize {
    rayon::current_num_threads().max(2)
}

fn call(kernel: Kernel, input: &MultiHeadInput) -> Vec<Mat> {
    match kernel {
        Kernel::Flat => flat_attention(input, ROWS_PER_TILE, Mask::None),
        Kernel::Parallel => parallel_flat_attention(
            input,
            ROWS_PER_TILE,
            Mask::None,
            rayon::current_num_threads(),
        ),
        Kernel::With(p, k) => flat_attention_with(input, ROWS_PER_TILE, Mask::None, p, k),
    }
}

/// Normalized max-abs deviation: `max |t - r| / max |r|` over every head.
pub fn max_rel_error(test: &[Mat], reference: &[Mat]) -> f64 {
    if test.len() != reference.len() {
        return f64::INFINITY;
    }
    let mut max_diff = 0f64;
    let mut max_ref = 0f64;
    for (t, r) in test.iter().zip(reference) {
        if (t.rows(), t.cols()) != (r.rows(), r.cols()) {
            return f64::INFINITY;
        }
        for (tv, rv) in t.as_slice().iter().zip(r.as_slice()) {
            let d = f64::from(tv - rv).abs();
            // NaN compares false: keep it visible.
            max_diff = if d.is_nan() {
                f64::INFINITY
            } else {
                max_diff.max(d)
            };
            max_ref = max_ref.max(f64::from(*rv).abs());
        }
    }
    if max_ref == 0.0 {
        max_diff
    } else {
        max_diff / max_ref
    }
}

fn check(name: &str, err: f64, bound: f64) -> Result<(), String> {
    ensure(err <= bound, || {
        format!("{name}: max_rel_error {err:.3e} above {bound:.0e}")
    })
}

struct Prepared {
    input: MultiHeadInput,
    reference: Vec<Mat>,
    naive_s: f64,
}

fn setup(shape: Shape, seed: u64) -> Prepared {
    let n = shape.seq();
    let input = MultiHeadInput::random(1, heads(), n, n, DK, seed);
    let t = Instant::now();
    let reference = naive_attention(&input, Mask::None);
    let naive_s = t.elapsed().as_secs_f64();
    // Warm-up: spins up the pool and faults in the output buffers.
    black_box(call(Kernel::Parallel, &input));
    Prepared {
        input,
        reference,
        naive_s,
    }
}

/// 4·B·H·N²·dk: QKᵀ and PV, two flops per multiply-add.
fn flops(input: &MultiHeadInput) -> f64 {
    4.0 * input.groups() as f64 * (input.seq_q * input.seq_kv * input.dk) as f64
}

/// One shape's input, reference and call record.
struct Bench {
    shape: Shape,
    p: Prepared,
    call_s: Vec<Vec<f64>>,
    max_err: Vec<f64>,
}

impl Bench {
    fn new(shape: Shape, p: Prepared) -> Self {
        let n = menu(shape).len();
        Bench {
            shape,
            p,
            call_s: vec![Vec::new(); n],
            max_err: vec![0.0; n],
        }
    }

    /// One call of every variant on the shape's menu, each checked.
    fn round(&mut self, out: &mut Outcome, tr: &mut Tracer) {
        for (i, v) in menu(self.shape).iter().enumerate() {
            out.op(tr, |tr| {
                let t = Instant::now();
                let o = tr.span(v.span, || call(v.kernel, &self.p.input));
                self.call_s[i].push(t.elapsed().as_secs_f64());
                let err = max_rel_error(&o, &self.p.reference);
                self.max_err[i] = self.max_err[i].max(err);
                check(v.name, err, v.bound)
            });
        }
    }

    /// Geometric mean over the menu of each variant's fastest call.
    fn fastest_s(&self) -> f64 {
        geomean(&self.call_s.iter().map(|c| min(c)).collect::<Vec<_>>())
    }

    fn medians_s(&self) -> Vec<f64> {
        self.call_s.iter().map(|c| median(c)).collect()
    }

    fn max_err(&self, name: &str) -> Option<f64> {
        let i = menu(self.shape).iter().position(|v| v.name == name)?;
        Some(self.max_err[i])
    }

    fn put_gflops(&self, out: &mut Outcome) {
        let gflop = flops(&self.p.input) / 1e9;
        for ((v, med), calls) in menu(self.shape)
            .iter()
            .zip(self.medians_s())
            .zip(&self.call_s)
        {
            let name = format!("kernels.{}.{}.gflops", v.name, self.shape.label());
            out.put(name, gflop / med, "GFLOP/s", calls.len());
        }
    }
}

pub fn run(seed: u64, seconds: f64, fma_peak: f64, tr: &mut Tracer) -> Outcome {
    let ((short, long), setup_s) =
        timed_setup(|| (setup(Shape::Short, seed), setup(Shape::Long, seed)));
    let mut out = Outcome::default();
    out.put("setup_s", setup_s, "s", SETUP_REPS);
    let mut short = Bench::new(Shape::Short, short);
    let mut long = Bench::new(Shape::Long, long);
    // Alternate the shapes, giving each about half the time, so both see
    // the same mix of host states.
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        long.round(&mut out, tr);
        let long_s = t.elapsed();
        let t = Instant::now();
        while t.elapsed() < long_s {
            short.round(&mut out, tr);
        }
    }
    // Calls per second, geomean over both shapes' menus with each shape
    // weighted equally; per shape, times the flops of one call it is the
    // geomean GFLOP/s.
    let calls = out.attempted as usize;
    let geo_s = (short.fastest_s() * long.fastest_s()).sqrt();
    out.put("items_per_s", 1.0 / geo_s, "1/s", calls);

    if tr.on() {
        short.put_gflops(&mut out);
        long.put_gflops(&mut out);
        for v in &MENU {
            let err = [short.max_err(v.name), long.max_err(v.name)]
                .into_iter()
                .flatten()
                .fold(0.0, f64::max);
            out.put(
                format!("kernels.{}.max_rel_error", v.name),
                err,
                "ratio",
                calls,
            );
        }
        // At the long shape, the paper's anchor.
        let med = long.medians_s();
        let rounds = long.call_s[0].len();
        out.put(
            "kernels.flat_vs_naive",
            long.p.naive_s / med[0],
            "ratio",
            rounds,
        );
        out.put("kernels.parallel_scaling", med[0] / med[1], "ratio", rounds);
        stages(&long.p.input, fma_peak, &mut out, tr);
    }
    out
}

/// The f32 walk's stages on one head, timed through the public building
/// blocks it calls: QKᵀ tile, row softmax, PV into the output rows.
fn stages(input: &MultiHeadInput, fma_peak: f64, out: &mut Outcome, tr: &mut Tracer) {
    const PASSES: usize = 3;
    let (q, k, v) = (&input.q[0], &input.k[0], &input.v[0]);
    let (n, dk) = (input.seq_q, input.dk);
    let scale = input.scale();
    let mut qk = Vec::new();
    let mut sm = Vec::new();
    let mut pv = Vec::new();
    for _ in 0..PASSES {
        let mut o = Mat::zeros(n, dk);
        let (mut t_qk, mut t_sm, mut t_pv) = (0f64, 0f64, 0f64);
        for lo in (0..n).step_by(ROWS_PER_TILE) {
            let hi = (lo + ROWS_PER_TILE).min(n);
            let t = Instant::now();
            let mut tile = tr.span("kernels.qk", || q.matmul_transposed_rows(lo, hi, k));
            t_qk += t.elapsed().as_secs_f64();
            for i in 0..tile.rows() {
                tile.row_mut(i).iter_mut().for_each(|x| *x *= scale);
            }
            let t = Instant::now();
            tr.span("kernels.softmax", || {
                for i in 0..tile.rows() {
                    softmax_row(tile.row_mut(i));
                }
            });
            t_sm += t.elapsed().as_secs_f64();
            let t = Instant::now();
            tr.span("kernels.pv", || tile.matmul_into(v, &mut o, lo));
            t_pv += t.elapsed().as_secs_f64();
        }
        black_box(&o);
        qk.push(t_qk);
        sm.push(t_sm);
        pv.push(t_pv);
    }
    let gemm_gflop = 2.0 * (n * n * dk) as f64 / 1e9;
    let qk_gflops = gemm_gflop / median(&qk);
    let pv_gflops = gemm_gflop / median(&pv);
    out.put("kernels.qk_gflops", qk_gflops, "GFLOP/s", PASSES);
    out.put("kernels.pv_gflops", pv_gflops, "GFLOP/s", PASSES);
    out.put(
        "kernels.softmax_ns_per_elem",
        median(&sm) * 1e9 / (n * n) as f64,
        "ns",
        PASSES,
    );
    out.put(
        "kernels.qk_peak_frac",
        qk_gflops / fma_peak,
        "ratio",
        PASSES,
    );
    out.put(
        "kernels.pv_peak_frac",
        pv_gflops / fma_peak,
        "ratio",
        PASSES,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_meets_its_bound_on_a_small_input() {
        let input = MultiHeadInput::random(1, 2, 128, 128, 16, 3);
        let reference = naive_attention(&input, Mask::None);
        for v in &MENU {
            let err = max_rel_error(&call(v.kernel, &input), &reference);
            assert!(check(v.name, err, v.bound).is_ok(), "{}: {err}", v.name);
        }
    }

    #[test]
    fn injected_wrong_output_counts_as_failed() {
        let input = MultiHeadInput::random(1, 2, 64, 64, 16, 5);
        let reference = naive_attention(&input, Mask::None);
        let mut out = Outcome::default();
        let mut tr = Tracer::new(false);
        out.op(&mut tr, |_| {
            let mut o = call(Kernel::Flat, &input);
            let x = o[1].at(3, 2);
            o[1].set(3, 2, x + 0.5); // injected wrong output
            check("flat_f32", max_rel_error(&o, &reference), 1e-4)
        });
        out.op(&mut tr, |_| {
            let mut o = call(Kernel::Flat, &input);
            o[0].set(0, 0, f32::NAN);
            check("flat_f32", max_rel_error(&o, &reference), 1e-4)
        });
        out.op(&mut tr, |_| {
            let o = call(Kernel::Flat, &input);
            check("flat_f32", max_rel_error(&o, &reference), 1e-4)
        });
        assert_eq!((out.attempted, out.failed), (3, 2));
    }
}
