//! `serve_chat` and `fleet_prefix`: the serving engine driven two ways.
//!
//! The host side is a closed loop: one serve (or fleet) call after
//! another over the same seeded request stream. Arrivals inside a call
//! are open-loop streams on the engine's virtual clock.

use crate::outcome::{ensure, timed_setup, Outcome, SETUP_REPS};
use crate::span::Tracer;
use crate::stats::{median, min, Digest};
use flat_arch::Accelerator;
use flat_dist::Topology;
use flat_fleet::{run_fleet, FleetConfig, FleetMetrics, FleetSpec};
use flat_kernels::{decode_attention_with, Mat};
use flat_serve::{serve, serve_traced, EngineConfig, RequestSpec, ServeMetrics, WorkloadSpec};
use flat_telemetry::MemorySink;
use flat_workloads::{Model, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// `serve_chat` serves this many seeded streams in turn, each of
/// `CHAT_REQUESTS` Poisson arrivals at `CHAT_RATE_PER_S`: 500 requests a
/// round, in calls short enough to repeat each one many times a run.
const CHAT_STREAMS: usize = 4;
const CHAT_REQUESTS: usize = 125;
const CHAT_RATE_PER_S: f64 = 64.0;
/// Requests per `fleet_prefix` call.
const FLEET_REQUESTS: usize = 10_000;

/// Conservation and a finite checksum: what every serving run must keep.
fn check_serve(m: &ServeMetrics, offered: usize) -> Result<(), String> {
    ensure(m.requests == offered, || {
        format!("engine saw {} requests, {offered} offered", m.requests)
    })?;
    ensure(m.finished + m.dropped == m.requests, || {
        format!(
            "finished {} + dropped {} != requests {}",
            m.finished, m.dropped, m.requests
        )
    })?;
    ensure(m.checksum.is_finite(), || {
        format!("checksum {} not finite", m.checksum)
    })
}

/// Each repeat of a same-seed call must print the first one's metrics.
fn check_repeat(first: &mut Option<String>, json: String) -> Result<(), String> {
    match first {
        None => {
            *first = Some(json);
            Ok(())
        }
        Some(prev) => ensure(*prev == json, || {
            "same-seed repeat produced different metrics JSON".to_owned()
        }),
    }
}

/// Host time of one `decode_attention_with` row at the engine's width and
/// precision, over contexts of `ctx` cached rows. Median of repeated calls.
fn decode_ns_per_row(cfg: &EngineConfig, ctx: usize, seed: u64) -> (f64, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ctx = ctx.max(1);
    let k = Mat::random(ctx, cfg.dk, &mut rng);
    let v = Mat::random(ctx, cfg.dk, &mut rng);
    let q = Mat::random(1, cfg.dk, &mut rng);
    let scale = 1.0 / (cfg.dk as f32).sqrt();
    let mut per_row = Vec::new();
    let start = Instant::now();
    while per_row.len() < 16 || start.elapsed().as_secs_f64() < 0.2 {
        let t = Instant::now();
        let out = decode_attention_with(
            q.row(0),
            (0..ctx).map(|j| (k.row(j), v.row(j))),
            scale,
            cfg.precision,
            cfg.softmax,
        );
        black_box(out);
        per_row.push(t.elapsed().as_secs_f64() * 1e9 / ctx as f64);
    }
    (median(&per_row), per_row.len())
}

/// Mean context a decode step attends over: the prompt plus half the output.
fn mean_context(reqs: &[RequestSpec]) -> usize {
    let total: usize = reqs.iter().map(|r| r.prompt_len + r.output_len / 2).sum();
    total / reqs.len().max(1)
}

/// Modeled (virtual-time) results, recorded for every diff but never
/// gated. The digest covers every `json`; the rest describe `m`.
fn put_model(out: &mut Outcome, m: &ServeMetrics, jsons: &[String]) {
    let mut d = Digest::default();
    for j in jsons {
        d.bytes(j.as_bytes());
    }
    out.put("model.digest", d.value(), "hash", jsons.len());
    out.put("model.ttft_p50_ms", m.ttft.p50_ms, "ms", m.finished);
    out.put("model.ttft_p99_ms", m.ttft.p99_ms, "ms", m.finished);
    out.put("model.tpot_p50_ms", m.tpot.p50_ms, "ms", m.finished);
    out.put("model.goodput_tok_s", m.goodput_tokens_per_s, "tok/s", 1);
    out.put("model.makespan_ms", m.makespan_ms, "ms", 1);
    out.put("model.drops", m.dropped as f64, "count", m.requests);
    let slo_min = m
        .tenants
        .iter()
        .map(|t| t.slo_attainment)
        .fold(1.0, f64::min);
    out.put(
        "model.slo_attainment_min",
        slo_min,
        "ratio",
        m.tenants.len(),
    );
}

/// Engine and KV-pool counters over `runs`, which the engine served in
/// `run_s` host seconds (median of `samples` repeats).
fn put_engine(
    out: &mut Outcome,
    runs: &[&ServeMetrics],
    run_s: f64,
    samples: usize,
    offered_prompt: usize,
) {
    let sum = |f: fn(&ServeMetrics) -> u64| runs.iter().map(|m| f(m)).sum::<u64>() as f64;
    let ticks = sum(|m| m.ticks);
    let prefill = sum(|m| m.prefill_tokens);
    out.put("serve.run_s", run_s, "s", samples);
    out.put("serve.ticks", ticks, "count", runs.len());
    out.put(
        "serve.us_per_tick",
        run_s * 1e6 / ticks.max(1.0),
        "us",
        samples,
    );
    out.put("serve.prefill_tokens", prefill, "count", runs.len());
    out.put(
        "serve.decode_tokens",
        sum(|m| m.decode_tokens),
        "count",
        runs.len(),
    );
    out.put(
        "serve.preemptions",
        sum(|m| m.preemptions),
        "count",
        runs.len(),
    );
    out.put(
        "serve.recompute_ratio",
        prefill / offered_prompt.max(1) as f64,
        "ratio",
        runs.len(),
    );
    out.put(
        "kv.dedup_hits",
        sum(|m| m.kv.dedup_hits),
        "count",
        runs.len(),
    );
    let logical = sum(|m| m.kv.peak_logical_blocks as u64);
    let physical = sum(|m| m.kv.peak_used_blocks as u64).max(1.0);
    out.put("kv.dedup_ratio", logical / physical, "ratio", runs.len());
    let peak = runs.iter().map(|m| m.kv.peak_occupancy).fold(0.0, f64::max);
    out.put("kv.peak_occupancy", peak, "ratio", runs.len());
}

/// Scales a Poisson stream's arrival times so its last arrival lands at
/// `len / rate` seconds: the stream conditioned on its mean rate. The
/// gaps keep their seeded shape, but the span, which sets how many engine
/// ticks the stream takes, no longer moves with the seed.
fn fix_span(reqs: &mut [RequestSpec], rate_per_s: f64) {
    let Some(last) = reqs.last().map(|r| r.arrival_ms) else {
        return;
    };
    let k = reqs.len() as f64 / rate_per_s * 1e3 / last;
    for r in reqs {
        r.arrival_ms *= k;
    }
}

struct Chat {
    accel: Accelerator,
    model: Model,
    streams: Vec<Vec<RequestSpec>>,
    cfg: EngineConfig,
}

fn chat_setup(seed: u64) -> Chat {
    let accel = flat_bench::platform("cloud");
    let model = flat_bench::model("bert");
    let spec = WorkloadSpec::from_task(Task::ShortNlp, CHAT_REQUESTS, CHAT_RATE_PER_S);
    let streams = (0..CHAT_STREAMS as u64)
        .map(|i| {
            let stream_seed = seed.wrapping_mul(CHAT_STREAMS as u64).wrapping_add(i);
            let mut reqs = spec
                .generate(stream_seed)
                .expect("serve_chat workload spec is valid");
            fix_span(&mut reqs, CHAT_RATE_PER_S);
            reqs
        })
        .collect::<Vec<_>>();
    let cfg = EngineConfig::for_platform(&accel, &model, seed);
    // Warm-up on a prefix of the first stream.
    black_box(serve(&accel, &model, &streams[0][..64], &cfg).ok());
    Chat {
        accel,
        model,
        streams,
        cfg,
    }
}

pub fn serve_chat(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let (w, setup_s) = timed_setup(|| chat_setup(seed));
    let mut out = Outcome::default();
    out.put("setup_s", setup_s, "s", SETUP_REPS);
    let n = w.streams.len();
    let mut first_json: Vec<Option<String>> = vec![None; n];
    let mut last: Vec<Option<ServeMetrics>> = vec![None; n];
    let mut call_s: Vec<Vec<f64>> = vec![Vec::new(); n];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for (i, reqs) in w.streams.iter().enumerate() {
            out.op(tr, |tr| {
                let t0 = Instant::now();
                let m = tr.span("serve.serve", || serve(&w.accel, &w.model, reqs, &w.cfg));
                call_s[i].push(t0.elapsed().as_secs_f64());
                let m = m.map_err(|e| format!("serve failed: {e}"))?;
                check_serve(&m, reqs.len())?;
                check_repeat(&mut first_json[i], m.to_json())?;
                last[i] = Some(m);
                Ok(())
            });
        }
    }
    let requests: usize = w.streams.iter().map(Vec::len).sum();
    let fastest_s: f64 = call_s.iter().map(|c| min(c)).sum();
    out.put(
        "items_per_s",
        requests as f64 / fastest_s,
        "1/s",
        out.attempted as usize,
    );

    let runs: Vec<&ServeMetrics> = last.iter().flatten().collect();
    if tr.on() && runs.len() == n {
        let all: Vec<RequestSpec> = w.streams.concat();
        let offered_prompt: usize = all.iter().map(|r| r.prompt_len).sum();
        let rounds = call_s.iter().map(Vec::len).min().unwrap_or(0);
        let run_s: f64 = call_s.iter().map(|c| median(c)).sum();
        put_engine(&mut out, &runs, run_s, rounds, offered_prompt);
        let jsons: Vec<String> = first_json.iter().flatten().cloned().collect();
        put_model(&mut out, runs[0], &jsons);
        let (ns, samples) = decode_ns_per_row(&w.cfg, mean_context(&all), seed);
        out.put("kernels.decode_ns_per_row", ns, "ns", samples);

        // The traced call must return the untraced call's metrics.
        let mut events = None;
        out.op(tr, |tr| {
            let mut sink = MemorySink::new();
            let traced = tr
                .span("serve.serve_traced", || {
                    serve_traced(&w.accel, &w.model, &w.streams[0], &w.cfg, &mut sink)
                })
                .map_err(|e| format!("traced serve failed: {e}"))?;
            ensure(Some(traced.to_json()) == first_json[0], || {
                "traced serve metrics differ from the untraced call".to_owned()
            })?;
            let attribution = tr.span("insight.attribution", || {
                flat_insight::Attribution::of(&sink.events)
            });
            ensure(attribution.requests == w.streams[0].len(), || {
                format!("attribution saw {} requests", attribution.requests)
            })?;
            events = Some(sink.events.len());
            Ok(())
        });
        if let Some(events) = events {
            let traced_s = tr.durations_ms("serve.serve_traced")[0] / 1e3;
            out.put("telemetry.events", events as f64, "count", 1);
            out.put(
                "telemetry.overhead_ratio",
                traced_s / median(&call_s[0]),
                "ratio",
                1,
            );
            out.put(
                "insight.attr_ms",
                tr.durations_ms("insight.attribution")[0],
                "ms",
                1,
            );
        }
    }
    out
}

struct Fleet {
    accel: Accelerator,
    model: Model,
    spec: FleetSpec,
    cfg: FleetConfig,
}

/// Two chips on a ring, resized 2 -> 4 -> 2 mid-run, dedup on.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        chips: 2,
        topology: Topology::Ring,
        window_ms: 1_000.0,
        dedup: true,
        scale: vec![(15_000.0, 4), (35_000.0, 2)],
        chaos_seed: None,
    }
}

fn fleet_setup(seed: u64) -> Fleet {
    let accel = flat_bench::platform("edge");
    let model = flat_bench::model("bert");
    let cfg = fleet_config();
    // Warm-up on a small fleet of the same shape.
    black_box(run_fleet(&accel, &model, &FleetSpec::sustained(500), &cfg, seed).ok());
    Fleet {
        accel,
        model,
        spec: FleetSpec::sustained(FLEET_REQUESTS),
        cfg,
    }
}

/// Conservation, a finite checksum and both resizes applied.
fn check_fleet(m: &FleetMetrics, spec: &FleetSpec, cfg: &FleetConfig) -> Result<(), String> {
    ensure(m.offered == spec.requests, || {
        format!("fleet offered {} of {} requests", m.offered, spec.requests)
    })?;
    check_serve(&m.dist.serve, m.offered)?;
    ensure(m.dist.scale_events.len() == cfg.scale.len(), || {
        format!(
            "{} of {} resizes applied",
            m.dist.scale_events.len(),
            cfg.scale.len()
        )
    })
}

pub fn fleet_prefix(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let (w, setup_s) = timed_setup(|| fleet_setup(seed));
    let mut out = Outcome::default();
    out.put("setup_s", setup_s, "s", SETUP_REPS);
    let mut first_json = None;
    let mut last = None;
    let mut call_s = Vec::new();
    // Host time inside run_fleet outside the engine: its own request
    // generation and health analysis, re-run from outside per op.
    let mut outside_s = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        out.op(tr, |tr| {
            let t0 = Instant::now();
            let m = tr.span("fleet.run_fleet", || {
                run_fleet(&w.accel, &w.model, &w.spec, &w.cfg, seed)
            });
            call_s.push(t0.elapsed().as_secs_f64());
            let m = m.map_err(|e| format!("fleet failed: {e}"))?;
            check_fleet(&m, &w.spec, &w.cfg)?;
            check_repeat(&mut first_json, m.to_json())?;
            if tr.on() {
                let t1 = Instant::now();
                let reqs = tr.span("fleet.generate", || w.spec.generate(seed));
                black_box(reqs.map_err(|e| format!("fleet generation failed: {e}"))?);
                tr.span("insight.analyze_windows", || {
                    black_box(flat_insight::analyze_windows(
                        &m.dist.serve.windows,
                        flat_insight::DEFAULT_ERROR_BUDGET,
                    ))
                });
                outside_s.push(t1.elapsed().as_secs_f64());
            }
            last = Some(m);
            Ok(())
        });
    }
    out.put(
        "items_per_s",
        w.spec.requests as f64 / min(&call_s),
        "1/s",
        call_s.len(),
    );

    if let (true, Some(m)) = (tr.on(), last) {
        let fleet_s: Vec<f64> = tr
            .durations_ms("fleet.run_fleet")
            .iter()
            .map(|x| x / 1e3)
            .collect();
        let engine_s: Vec<f64> = fleet_s.iter().zip(&outside_s).map(|(f, o)| f - o).collect();
        let reqs = w.spec.generate(seed).unwrap_or_default();
        let offered_prompt: usize = reqs.iter().map(|r| r.prompt_len).sum();
        let serve_m = &m.dist.serve;
        put_engine(
            &mut out,
            &[serve_m],
            median(&engine_s),
            engine_s.len(),
            offered_prompt,
        );
        put_model(&mut out, serve_m, &[first_json.unwrap_or_default()]);
        let fleet_run_s = median(&fleet_s);
        out.put("fleet.run_s", fleet_run_s, "s", fleet_s.len());
        out.put(
            "fleet.ticks_per_s",
            serve_m.ticks as f64 / fleet_run_s,
            "1/s",
            fleet_s.len(),
        );
        out.put(
            "fleet.resizes",
            m.dist.scale_events.len() as f64,
            "count",
            1,
        );
        let gen_ms = tr.durations_ms("fleet.generate");
        out.put("fleet.generate_ms", median(&gen_ms), "ms", gen_ms.len());
        out.put("dist.kv_migrated_bytes", m.dist.kv_migrated_bytes, "B", 1);
        out.put("insight.findings", m.findings.len() as f64, "count", 1);
        let (ns, n) = decode_ns_per_row(
            &flat_serve::EngineConfig::for_platform(&w.accel, &w.model, seed),
            mean_context(&reqs),
            seed,
        );
        out.put("kernels.decode_ns_per_row", ns, "ns", n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_chat() -> (Accelerator, Model, Vec<RequestSpec>, EngineConfig) {
        let accel = flat_bench::platform("cloud");
        let model = flat_bench::model("bert");
        let mut spec = WorkloadSpec::from_task(Task::ShortNlp, 8, 64.0);
        spec.prompt_mean = 32;
        spec.output_mean = 4;
        let reqs = spec.generate(7).expect("valid spec");
        let cfg = EngineConfig::for_platform(&accel, &model, 7);
        (accel, model, reqs, cfg)
    }

    #[test]
    fn real_run_passes_and_injected_wrong_outputs_fail() {
        let (accel, model, reqs, cfg) = small_chat();
        let m = serve(&accel, &model, &reqs, &cfg).expect("serves");
        assert!(check_serve(&m, reqs.len()).is_ok());

        let mut lost = m.clone();
        lost.finished -= 1;
        assert!(
            check_serve(&lost, reqs.len()).is_err(),
            "a lost request must fail"
        );
        let mut nan = m.clone();
        nan.checksum = f64::NAN;
        assert!(
            check_serve(&nan, reqs.len()).is_err(),
            "a NaN checksum must fail"
        );

        let mut first = None;
        assert!(check_repeat(&mut first, m.to_json()).is_ok());
        assert!(check_repeat(&mut first, m.to_json()).is_ok());
        assert!(
            check_repeat(&mut first, nan.to_json()).is_err(),
            "a changed repeat must fail"
        );
    }

    #[test]
    fn fixed_span_keeps_order_and_ends_at_len_over_rate() {
        let spec = WorkloadSpec::from_task(Task::ShortNlp, 125, 64.0);
        for seed in [1, 2, 3] {
            let raw = spec.generate(seed).expect("valid spec");
            let mut fixed = raw.clone();
            fix_span(&mut fixed, 64.0);
            let last = fixed.last().expect("non-empty").arrival_ms;
            assert!((last - 125.0 / 64.0 * 1e3).abs() < 1e-6, "span {last}");
            assert!(fixed.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
            for (a, b) in raw.iter().zip(&fixed) {
                assert_eq!((a.prompt_len, a.output_len), (b.prompt_len, b.output_len));
            }
        }
        fix_span(&mut [], 64.0);
    }

    #[test]
    fn wrong_output_counts_as_failed_op() {
        let (accel, model, reqs, cfg) = small_chat();
        let mut out = Outcome::default();
        let mut tr = Tracer::new(false);
        out.op(&mut tr, |_| {
            let mut m = serve(&accel, &model, &reqs, &cfg).map_err(|e| e.to_string())?;
            m.dropped += 1; // injected wrong output
            check_serve(&m, reqs.len())
        });
        assert_eq!((out.attempted, out.failed), (1, 1));
    }
}
