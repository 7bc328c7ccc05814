//! `flat-desim` — a discrete-event simulation backend that
//! cross-validates the FLAT analytical cost model.
//!
//! The analytical model (`flat-core`) prices an attention dataflow with
//! a closed form: per-iteration lane times folded by `max` (overlapped)
//! or sum (serialized), times the iteration count, plus warmup. That
//! fold *assumes* the overlap it prices — enough staging buffers that
//! the prefetch always hides, a softmax unit that never backs the array
//! up. This crate checks the assumption by executing the same walk:
//!
//! * [`Engine`] — a virtual-time event queue scheduling [`Context`]
//!   actors connected by bounded channels with blocking send/recv
//!   backpressure. Deterministic: `f64` time ordered by `total_cmp`,
//!   equal timestamps resolved in insertion order, no hash containers.
//! * [`ScriptContext`] — pipeline actors as declarative op lists
//!   (recv / send / busy), so every executor lane is data, not code.
//! * [`simulate_la_event`] — the FLAT executor: one context per
//!   hardware lane (PE array, SFU, SG buffer port, L2 link, DMA/NoC
//!   lane), fed by exactly the per-iteration lane demands the
//!   analytical model priced ([`flat_core::FusedLaneDemands`]).
//! * [`EventReport`] — cycles, per-lane busy time, staging-buffer
//!   occupancy, and a Perfetto-loadable Chrome trace through
//!   `flat-telemetry` (one thread lane per hardware lane, a
//!   tiles-in-flight counter track).
//! * [`agreement`] / [`agreement_sweep`] — the closed form and the event
//!   backend side by side, as a signed relative divergence per
//!   configuration.
//!
//! On an uncontended machine (buffers ≥ 2, the double-buffering the
//! model assumes) the pipeline's steady-state iteration period converges
//! to the analytical `max` fold and the two backends agree to the
//! pipeline-fill transient — a few per mil at realistic iteration
//! counts, pinned at ≤ 5 % by the agreement suite. Starve the overlap
//! (one staging buffer) and the event backend serializes fetch behind
//! compute while the closed form keeps taking the `max`: the measured
//! divergence is the model's optimism, quantified. `flat sim --engine
//! both` reports it per configuration.
//!
//! # Example
//!
//! ```
//! use flat_arch::Accelerator;
//! use flat_core::{CostModel, FusedDataflow, Granularity};
//! use flat_desim::{simulate_fused_event, EventOptions};
//! use flat_workloads::Model;
//!
//! let accel = Accelerator::edge();
//! let block = Model::bert().block(64, 1024);
//! let df = FusedDataflow::new(Granularity::Row(64));
//!
//! let analytical = CostModel::new(&accel).fused_la_cost(&block, &df);
//! let event = simulate_fused_event(&accel, &block, &df, EventOptions::default())
//!     .expect("wiring is sound");
//!
//! let divergence = (event.cycles - analytical.cycles).abs() / analytical.cycles;
//! assert!(divergence < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Same robustness contract as the rest of the stack: a validation
// backend must never panic a run. CI gates this.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod agreement;
mod engine;
mod executor;
mod report;
mod script;

pub use agreement::{agreement, agreement_sweep, Agreement, AgreementRow};
pub use engine::{
    ChannelId, ChannelStats, Context, ContextId, ContextStats, Engine, EngineError, Io, Poll,
    RunStats, TraceSlice,
};
pub use executor::{
    simulate_fused_event, simulate_la_event, simulate_sequential_event, EventOptions,
};
pub use report::{BufferUsage, EventReport, LaneUsage};
pub use script::{Op, Script, ScriptContext};
