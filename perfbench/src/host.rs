//! Host fingerprint, FMA-peak microbench and peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// SIMD features a kernel could dispatch on, as `/proc/cpuinfo` names them.
const SIMD_FLAGS: [&str; 7] = [
    "avx2",
    "fma",
    "f16c",
    "avx512f",
    "avx512bw",
    "avx512vl",
    "avx512_bf16",
];

fn cpuinfo_field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).unwrap_or_else(|_| "\"unknown\"".to_owned())
}

/// One JSON object naming the host: CPU model, SIMD features, `nproc`,
/// the rayon pool size and the compiler.
pub fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into());
    let flags = cpuinfo_field(&cpuinfo, "flags").unwrap_or_default();
    let have: Vec<&str> = flags.split_whitespace().collect();
    let simd: Vec<String> = SIMD_FLAGS
        .iter()
        .filter(|f| have.contains(f))
        .map(|f| json_str(f))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"cpu_model\":{},\"simd\":[{}],\"nproc\":{},\"rayon_threads\":{},\"rustc\":{}}}",
        json_str(&model),
        simd.join(","),
        nproc,
        rayon::current_num_threads(),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
    )
}

/// Accumulators in flight: enough independent FMA chains to cover the
/// latency of the widest vector units on current x86 cores.
const CHAINS: usize = 128;

/// Single-core f32 FMA throughput in GFLOP/s: independent `mul_add`
/// chains, compiled like the kernels (see `.cargo/config.toml`), best of
/// several timed repetitions.
pub fn fma_peak_gflops() -> f64 {
    const ITERS: usize = 400_000;
    let mut best = 0f64;
    for _ in 0..5 {
        let mut acc = [1.0f32; CHAINS];
        let a = black_box(0.999_9f32);
        let b = black_box(1e-4f32);
        let start = Instant::now();
        for _ in 0..ITERS {
            for x in &mut acc {
                *x = x.mul_add(a, b);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(&acc);
        let flops = 2.0 * (CHAINS * ITERS) as f64;
        best = best.max(flops / secs / 1e9);
    }
    best
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_json_with_every_field() {
        let fp: serde_json::Value = serde_json::from_str(&fingerprint()).expect("valid JSON");
        for key in ["cpu_model", "simd", "nproc", "rayon_threads", "rustc"] {
            assert!(fp.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn cpuinfo_fields_parse() {
        let text = "processor\t: 0\nmodel name\t: Test CPU\nflags\t\t: fpu avx2 fma\n";
        assert_eq!(
            cpuinfo_field(text, "model name").as_deref(),
            Some("Test CPU")
        );
        assert_eq!(
            cpuinfo_field(text, "flags").as_deref(),
            Some("fpu avx2 fma")
        );
    }
}
