//! The FLAT executor: maps the tiled attention walk onto contexts.
//!
//! One context per hardware lane — the DMA/NoC lane (off-chip link),
//! the SG buffer port (on-chip link), the optional L2 link, the PE
//! array, and the SFU — connected by bounded channels. The executor
//! replays exactly the per-iteration lane demands the analytical model
//! prices ([`CostModel::fused_lane_demands`]), so on an uncontended
//! machine the steady-state iteration period converges to the
//! analytical `max` fold, and the two backends agree to the pipeline
//! fill/drain transient. Contention (fewer staging buffers than the
//! pricing assumes) breaks the overlap the closed form takes for
//! granted — that divergence is the point of the backend.
//!
//! # Fused (FLAT) topology
//!
//! ```text
//!  credits (capacity = buffers) ──────────────────────────┐
//!    ▼                                                    │
//!  dma ──tiles──▶ pe ──sfu_in──▶ sfu ──sfu_out──▶ pe ─────┘
//!    ├──tiles_sg──▶ sg ──sg_done──▶ pe   (operand streaming,
//!    └──tiles_l2──▶ l2 ──l2_done──▶ pe    concurrent with compute)
//! ```
//!
//! The PE context software-pipelines the two stages the way §4.3
//! describes: iteration `i` runs `A(i-1)` then `L(i)`, so the SFU
//! softmaxes tile `i` while the array works on tile `i+1`.
//!
//! [`CostModel::fused_lane_demands`]: flat_core::CostModel::fused_lane_demands

use crate::engine::{Engine, EngineError, RunStats};
use crate::report::{merge_lanes, BufferUsage, EventReport, LaneUsage};
use crate::script::{Op, Script, ScriptContext};
use flat_arch::Accelerator;
use flat_core::{
    CostModel, FusedDataflow, FusedLaneDemands, LaExecution, ModelOptions, OperatorDataflow,
    SequentialLaneDemands,
};
use flat_workloads::AttentionBlock;
use serde::{Deserialize, Serialize};

/// Event-backend knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventOptions {
    /// Cost-model options the lane demands are derived under (the
    /// analytical side of an agreement run must use the same).
    pub model: ModelOptions,
    /// Staging-buffer slots gating the prefetch (credit pool). 2 is
    /// true double buffering — what the analytical model assumes; 1
    /// serializes fetch against compute (the contended configuration).
    pub buffers: u32,
    /// Sequential phases execute as this many equal pipelined slices.
    pub phase_slices: u64,
    /// Iteration cap; longer workloads extrapolate the measured
    /// steady-state period.
    pub max_iterations: u64,
    /// Record lane slices and buffer-occupancy samples for export.
    pub record_trace: bool,
}

impl Default for EventOptions {
    fn default() -> Self {
        EventOptions {
            model: ModelOptions::default(),
            buffers: 2,
            phase_slices: 64,
            max_iterations: 4096,
            record_trace: false,
        }
    }
}

/// Lane tid assignment for trace export (pid 1 = the simulated chip).
pub(crate) fn lane_tid(name: &str) -> u64 {
    match name {
        "dma" => 1,
        "pe" => 2,
        "sg" => 3,
        "sfu" => 4,
        "l2" => 5,
        _ => 9,
    }
}

/// Builds and runs the fused-pipeline engine for `n` iterations.
fn run_fused(
    d: &FusedLaneDemands,
    n: u64,
    buffers: u32,
    record: bool,
) -> Result<RunStats, EngineError> {
    // A serialized (no-double-buffering) machine has a single staging
    // buffer by definition; extra credits would let the prefetch overlap
    // a pipeline the analytical model prices as serial.
    let b = if d.double_buffered {
        buffers.max(1) as usize
    } else {
        1
    };
    let t_off = d.offchip_cycles();
    let t_on = d.onchip_cycles();
    let has_l2 = d.l2_cycles > 0.0;
    let mut eng = Engine::new(record);

    let credits = eng.channel("credits", b, b);
    let tiles_pe = eng.channel("tiles_pe", b, 0);
    let tiles_sg = eng.channel("tiles_sg", b, 0);
    let tiles_l2 = eng.channel("tiles_l2", b, 0);
    let sg_done = eng.channel("sg_done", b, 0);
    let l2_done = eng.channel("l2_done", b, 0);
    let sfu_in = eng.channel("sfu_in", 1, 0);
    let sfu_out = eng.channel("sfu_out", 1, 0);

    if d.double_buffered {
        // Overlapped wiring: the DMA prefetches ahead on credits; the SG
        // (and L2) stream a tile's operands concurrently with the PE
        // computing on it; the SFU softmaxes tile i during iteration i+1.
        let mut fetch = vec![
            Op::Recv(credits),
            Op::Busy(t_off, "fetch"),
            Op::Send(tiles_pe),
            Op::Send(tiles_sg),
        ];
        if has_l2 {
            fetch.push(Op::Send(tiles_l2));
        }
        let mut first_fetch = vec![Op::Busy(d.warmup_cycles, "warmup")];
        first_fetch.extend(fetch.iter().copied());
        eng.spawn(
            "dma",
            ScriptContext::new(Script {
                prelude: first_fetch,
                body: fetch,
                body_repeats: n - 1,
                epilogue: vec![],
            }),
        );

        // The §4.3 software pipeline: iteration j computes L(j), hands
        // it to the SFU, and only then blocks on the softmax of tile
        // j-1 before computing A(j-1). The SFU therefore runs
        // concurrently with the array's next logit slice; it only
        // stretches the period once sfu_cycles exceeds the compute —
        // exactly the analytical `max`.
        let mut pe_first = vec![
            Op::Recv(tiles_pe),
            Op::Busy(d.logit_compute_cycles, "logit"),
            Op::Send(sfu_in),
            Op::Recv(sg_done),
        ];
        let mut pe_body = vec![
            Op::Recv(tiles_pe),
            Op::Busy(d.logit_compute_cycles, "logit"),
            Op::Send(sfu_in),
            Op::Recv(sfu_out),
            Op::Busy(d.attend_compute_cycles, "attend"),
            Op::Recv(sg_done),
        ];
        if has_l2 {
            pe_first.push(Op::Recv(l2_done));
            pe_body.push(Op::Recv(l2_done));
        }
        pe_first.push(Op::Send(credits));
        pe_body.push(Op::Send(credits));
        eng.spawn(
            "pe",
            ScriptContext::new(Script {
                prelude: pe_first,
                body: pe_body,
                body_repeats: n - 1,
                epilogue: vec![
                    Op::Recv(sfu_out),
                    Op::Busy(d.attend_compute_cycles, "attend"),
                ],
            }),
        );
    } else {
        // Serialized wiring: one buffer, nothing overlaps — fetch,
        // L, softmax, A, and operand streaming run back to back, the
        // way the analytical model's no-double-buffering sum charges.
        eng.spawn(
            "dma",
            ScriptContext::new(Script {
                prelude: vec![Op::Busy(d.warmup_cycles, "warmup")],
                body: vec![
                    Op::Recv(credits),
                    Op::Busy(t_off, "fetch"),
                    Op::Send(tiles_pe),
                ],
                body_repeats: n,
                epilogue: vec![],
            }),
        );
        let mut pe_body = vec![
            Op::Recv(tiles_pe),
            Op::Busy(d.logit_compute_cycles, "logit"),
            Op::Send(sfu_in),
            Op::Recv(sfu_out),
            Op::Busy(d.attend_compute_cycles, "attend"),
            Op::Send(tiles_sg),
            Op::Recv(sg_done),
        ];
        if has_l2 {
            pe_body.push(Op::Send(tiles_l2));
            pe_body.push(Op::Recv(l2_done));
        }
        pe_body.push(Op::Send(credits));
        eng.spawn(
            "pe",
            ScriptContext::new(Script {
                prelude: vec![],
                body: pe_body,
                body_repeats: n,
                epilogue: vec![],
            }),
        );
    }

    eng.spawn(
        "sg",
        ScriptContext::new(Script {
            prelude: vec![],
            body: vec![
                Op::Recv(tiles_sg),
                Op::Busy(t_on, "stream"),
                Op::Send(sg_done),
            ],
            body_repeats: n,
            epilogue: vec![],
        }),
    );
    if has_l2 {
        eng.spawn(
            "l2",
            ScriptContext::new(Script {
                prelude: vec![],
                body: vec![
                    Op::Recv(tiles_l2),
                    Op::Busy(d.l2_cycles, "l2"),
                    Op::Send(l2_done),
                ],
                body_repeats: n,
                epilogue: vec![],
            }),
        );
    }
    eng.spawn(
        "sfu",
        ScriptContext::new(Script {
            prelude: vec![],
            body: vec![
                Op::Recv(sfu_in),
                Op::Busy(d.sfu_cycles, "softmax"),
                Op::Send(sfu_out),
            ],
            body_repeats: n,
            epilogue: vec![],
        }),
    );

    eng.run(120 * n + 10_000)
}

/// Event-driven simulation of the fused (FLAT) L-A execution.
///
/// # Errors
///
/// Returns [`EngineError`] if the wiring livelocks or deadlocks — a bug
/// in the executor, surfaced instead of hung.
pub fn simulate_fused_event(
    accel: &Accelerator,
    block: &AttentionBlock,
    df: &FusedDataflow,
    opts: EventOptions,
) -> Result<EventReport, EngineError> {
    let cm = CostModel::with_options(accel, opts.model);
    let d = cm.fused_lane_demands(block, df);
    let total = d.iterations.max(1);
    let cap = opts.max_iterations.max(8);

    if total <= cap {
        let stats = run_fused(&d, total, opts.buffers, opts.record_trace)?;
        return Ok(EventReport::from_run(
            &stats,
            total,
            total,
            false,
            opts.buffers,
        ));
    }

    // Steady-state extrapolation: two capped runs isolate the
    // per-iteration period from the fill/drain transient.
    let half = cap / 2;
    let full = run_fused(&d, cap, opts.buffers, opts.record_trace)?;
    let short = run_fused(&d, half, opts.buffers, false)?;
    let span = (cap - half) as f64;
    let period = ((full.end_time - short.end_time) / span).max(0.0);
    let mut report = EventReport::from_run(&full, cap, total, true, opts.buffers);
    let remaining = (total - cap) as f64;
    report.cycles = full.end_time + remaining * period;
    for (lane, prior) in report.lanes.iter_mut().zip(&short.contexts) {
        let rate = ((lane.busy_cycles - prior.busy_cycles) / span).max(0.0);
        lane.busy_cycles += remaining * rate;
    }
    report.finish_occupancy();
    Ok(report)
}

/// One sequential phase as a pipelined slice run.
struct PhaseSpec {
    work_lane: &'static str,
    work_label: &'static str,
    /// Totals over the phase (cycles / cycles / cycles).
    compute: f64,
    sfu_aux: f64,
    t_on: f64,
    t_off: f64,
    warmup: f64,
}

/// Runs one phase as `slices` equal pipeline slices.
fn run_phase(
    p: &PhaseSpec,
    slices: u64,
    db: bool,
    buffers: u32,
    record: bool,
) -> Result<RunStats, EngineError> {
    let s = slices.max(1);
    let sf = s as f64;
    let b = if db { buffers.max(1) as usize } else { 1 };
    let mut eng = Engine::new(record);
    let credits = eng.channel("credits", b, b);
    let tiles_work = eng.channel("tiles_work", b, 0);
    let tiles_sg = eng.channel("tiles_sg", b, 0);
    let sg_done = eng.channel("sg_done", b, 0);
    let sfu_in = eng.channel("sfu_in", b, 0);
    let has_aux = p.sfu_aux > 0.0;

    eng.spawn(
        "dma",
        ScriptContext::new(Script {
            prelude: vec![Op::Busy(p.warmup, "warmup")],
            body: if db {
                vec![
                    Op::Recv(credits),
                    Op::Busy(p.t_off / sf, "fetch"),
                    Op::Send(tiles_work),
                    Op::Send(tiles_sg),
                ]
            } else {
                vec![
                    Op::Recv(credits),
                    Op::Busy(p.t_off / sf, "fetch"),
                    Op::Send(tiles_work),
                ]
            },
            body_repeats: s,
            epilogue: vec![],
        }),
    );

    let mut work = vec![Op::Recv(tiles_work), Op::Busy(p.compute / sf, p.work_label)];
    if has_aux {
        work.push(Op::Send(sfu_in));
    }
    if db {
        work.push(Op::Recv(sg_done));
    } else {
        work.push(Op::Send(tiles_sg));
        work.push(Op::Recv(sg_done));
    }
    work.push(Op::Send(credits));
    eng.spawn(
        p.work_lane,
        ScriptContext::new(Script {
            prelude: vec![],
            body: work,
            body_repeats: s,
            epilogue: vec![],
        }),
    );

    eng.spawn(
        "sg",
        ScriptContext::new(Script {
            prelude: vec![],
            body: vec![
                Op::Recv(tiles_sg),
                Op::Busy(p.t_on / sf, "stream"),
                Op::Send(sg_done),
            ],
            body_repeats: s,
            epilogue: vec![],
        }),
    );
    if has_aux {
        eng.spawn(
            "sfu",
            ScriptContext::new(Script {
                prelude: vec![],
                body: vec![Op::Recv(sfu_in), Op::Busy(p.sfu_aux / sf, "softmax")],
                body_repeats: s,
                epilogue: vec![],
            }),
        );
    }
    eng.run(80 * s + 10_000)
}

/// Event-driven simulation of the sequential L → softmax → A execution.
///
/// # Errors
///
/// Returns [`EngineError`] on executor wiring bugs (never on valid
/// inputs).
pub fn simulate_sequential_event(
    accel: &Accelerator,
    block: &AttentionBlock,
    logit_df: &OperatorDataflow,
    attend_df: &OperatorDataflow,
    opts: EventOptions,
) -> Result<EventReport, EngineError> {
    let cm = CostModel::with_options(accel, opts.model);
    let d: SequentialLaneDemands = cm.sequential_lane_demands(block, logit_df, attend_df);
    let on_bpc = d.onchip_bytes_per_cycle;
    let off_bpc = d.offchip_bytes_per_cycle;
    let gemm =
        |p: &flat_core::PhaseLaneDemands, lane: &'static str, label: &'static str| PhaseSpec {
            work_lane: lane,
            work_label: label,
            compute: p.compute_cycles,
            sfu_aux: 0.0,
            t_on: p.onchip_bytes / on_bpc,
            t_off: p.offchip_bytes / off_bpc,
            warmup: p.warmup_cycles,
        };
    let phases: Vec<PhaseSpec> = if d.double_buffered && d.overlap_softmax {
        // Softmax pipelines into the Attend phase: the SFU lane works
        // the same slices concurrently, its traffic riding the links.
        vec![
            gemm(&d.logit, "pe", "logit"),
            PhaseSpec {
                work_lane: "pe",
                work_label: "attend",
                compute: d.attend.compute_cycles,
                sfu_aux: d.softmax.sfu_cycles,
                t_on: (d.attend.onchip_bytes + d.softmax.onchip_bytes) / on_bpc,
                t_off: (d.attend.offchip_bytes + d.softmax.offchip_bytes) / off_bpc,
                warmup: d.attend.warmup_cycles,
            },
        ]
    } else {
        vec![
            gemm(&d.logit, "pe", "logit"),
            PhaseSpec {
                work_lane: "sfu",
                work_label: "softmax",
                compute: d.softmax.sfu_cycles,
                sfu_aux: 0.0,
                t_on: d.softmax.onchip_bytes / on_bpc,
                t_off: d.softmax.offchip_bytes / off_bpc,
                warmup: 0.0,
            },
            gemm(&d.attend, "pe", "attend"),
        ]
    };

    let slices = opts.phase_slices.max(1);
    let mut cycles = 0.0f64;
    let mut lanes: Vec<LaneUsage> = Vec::new();
    let mut trace = Vec::new();
    let mut peak = 0usize;
    let mut occ_weighted = 0.0f64;
    for p in &phases {
        let stats = run_phase(
            p,
            slices,
            d.double_buffered,
            opts.buffers,
            opts.record_trace,
        )?;
        for slice in &stats.trace {
            let lane = stats.contexts[slice.ctx].name.clone();
            trace.push((lane, slice.label, slice.start + cycles, slice.dur));
        }
        merge_lanes(&mut lanes, &stats.contexts);
        if let Some(c) = stats.channels.first() {
            peak = peak.max(c.capacity - c.min_occupancy);
            occ_weighted += (c.capacity as f64 - c.mean_occupancy) * stats.end_time;
        }
        cycles += stats.end_time;
    }
    let total = slices * phases.len() as u64;
    let mut report = EventReport {
        cycles,
        simulated_iterations: total,
        total_iterations: total,
        extrapolated: false,
        lanes,
        buffers: BufferUsage {
            capacity: if d.double_buffered {
                opts.buffers.max(1)
            } else {
                1
            },
            mean_in_flight: if cycles > 0.0 {
                occ_weighted / cycles
            } else {
                0.0
            },
            peak_in_flight: peak as u32,
        },
        slices: trace,
        counter_samples: Vec::new(),
    };
    report.finish_occupancy();
    Ok(report)
}

/// Event-driven simulation of either L-A execution shape.
///
/// # Errors
///
/// Returns [`EngineError`] on executor wiring bugs (never on valid
/// inputs).
pub fn simulate_la_event(
    accel: &Accelerator,
    block: &AttentionBlock,
    la: &LaExecution,
    opts: EventOptions,
) -> Result<EventReport, EngineError> {
    match la {
        LaExecution::Fused(df) => simulate_fused_event(accel, block, df, opts),
        LaExecution::Sequential { logit, attend } => {
            simulate_sequential_event(accel, block, logit, attend, opts)
        }
    }
}
