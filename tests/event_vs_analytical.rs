//! Property-based cross-validation of the `flat-desim` event backend
//! against the analytical cost model, through its agreement harness —
//! the whole-stack counterpart of the deterministic grid in
//! `crates/desim/tests/agreement.rs`.
//!
//! The property: on *uncontended* configurations (staging buffers ≥ 2,
//! the double buffering the closed form assumes) the two backends agree
//! within the 5 % tolerance `flat sim --engine both` defaults to, across
//! randomly drawn sequence lengths, batch sizes, tile sizes, and
//! dataflows, and both rank FLAT ahead of the sequential baseline. The
//! pinned fixtures below assert the complement: contention and
//! single-tile passes *must* be detected as divergence.

use flat::arch::Accelerator;
use flat::core::{
    CostModel, FusedDataflow, Granularity, LaExecution, ModelOptions, OperatorDataflow,
    Stationarity,
};
use flat::desim::{agreement, agreement_sweep, simulate_fused_event, EventOptions};
use flat::workloads::Model;
use proptest::prelude::*;

const TOLERANCE: f64 = 0.05;

/// Event options for fast property runs: a tight iteration cap leans on
/// steady-state extrapolation, which the deterministic suite validates
/// separately.
fn quick(model: ModelOptions, buffers: u32) -> EventOptions {
    EventOptions {
        model,
        buffers,
        max_iterations: 512,
        ..Default::default()
    }
}

fn granularity_strategy() -> impl Strategy<Value = Granularity> {
    prop_oneof![
        prop::sample::select(vec![16u64, 32, 64, 128, 256]).prop_map(Granularity::Row),
        Just(Granularity::Head),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uncontended fused configs agree within tolerance for any drawn
    /// (seq_len, batch, tile rows, granularity, buffering depth), and
    /// never beat the compute-bound ideal.
    #[test]
    fn uncontended_fused_configs_agree(
        seq_mult in 1u64..=32,
        batch in prop::sample::select(vec![8u64, 32, 64]),
        g in granularity_strategy(),
        platform_edge in any::<bool>(),
        buffers in 2u32..=4,
    ) {
        let accel = if platform_edge { Accelerator::edge() } else { Accelerator::cloud() };
        let seq = seq_mult * 256;
        let block = Model::bert().block(batch, seq);
        let df = FusedDataflow::new(g);
        let opts = quick(ModelOptions::default(), buffers);
        let a = agreement(&accel, &block, &LaExecution::Fused(df), opts).expect("wiring is sound");
        prop_assert!(
            a.within(TOLERANCE),
            "{} seq={seq} B={batch} {g:?} buffers={buffers}: divergence {:.3}%",
            accel.name, a.divergence * 100.0
        );
        let ideal = CostModel::new(&accel).fused_la_cost(&block, &df).ideal_cycles;
        prop_assert!(
            a.event_cycles >= ideal * (1.0 - 1e-9),
            "event {} below ideal {ideal}",
            a.event_cycles
        );
    }

    /// Serialized (no-double-buffer) machines agree essentially exactly:
    /// both backends run the same serial schedule.
    #[test]
    fn serialized_configs_agree(
        seq_mult in 1u64..=16,
        g in granularity_strategy(),
    ) {
        let accel = Accelerator::edge();
        let seq = seq_mult * 256;
        let block = Model::bert().block(64, seq);
        let la = LaExecution::Fused(FusedDataflow::new(g));
        let model = ModelOptions { double_buffered: false, ..Default::default() };
        let a = agreement(&accel, &block, &la, quick(model, 2)).expect("wiring is sound");
        prop_assert!(
            a.divergence.abs() < 1e-3,
            "seq={seq} {g:?}: serial divergence {:.4}%",
            a.divergence * 100.0
        );
    }

    /// The sequential baseline agrees within tolerance too, and the
    /// event backend ranks it behind FLAT-R64 as the closed form does.
    #[test]
    fn sequential_baseline_agrees(
        seq_mult in 1u64..=16,
        batch in prop::sample::select(vec![8u64, 32, 64]),
    ) {
        let accel = Accelerator::edge();
        let seq = seq_mult * 256;
        let block = Model::bert().block(batch, seq);
        let op = OperatorDataflow::baseline(Stationarity::Weight);
        let la = LaExecution::Sequential { logit: op, attend: op };
        let opts = quick(ModelOptions::default(), 2);
        let a = agreement(&accel, &block, &la, opts).expect("wiring is sound");
        prop_assert!(
            a.within(TOLERANCE),
            "seq={seq} B={batch}: divergence {:.3}%",
            a.divergence * 100.0
        );
        let flat_r64 = FusedDataflow::new(Granularity::Row(64));
        let fused = simulate_fused_event(&accel, &block, &flat_r64, opts).expect("wiring is sound");
        prop_assert!(a.event_cycles > fused.cycles, "seq={seq} B={batch}: base does not lose");
    }
}

/// Pinned contended fixture: one staging buffer under double-buffered
/// pricing must be *detected* — reported as divergence well past any
/// reasonable tolerance, never silently absorbed.
#[test]
fn contended_fixture_is_detected_as_divergence() {
    let accel = Accelerator::edge();
    let block = Model::bert().block(64, 4096);
    let la = LaExecution::Fused(FusedDataflow::new(Granularity::Row(64)));
    let a =
        agreement(&accel, &block, &la, quick(ModelOptions::default(), 1)).expect("wiring is sound");
    assert!(
        !a.within(TOLERANCE) && a.divergence > 0.10,
        "contention must surface: divergence {:.3}%",
        a.divergence * 100.0
    );
    // The optimism is one-sided: the event backend is slower, never
    // faster, than the closed form's assumed overlap.
    assert!(a.event_cycles > a.analytical_cycles);
}

/// The validation sweep the CLI exposes (`flat sim --engine both
/// --sweep`) passes end to end at the default tolerance.
#[test]
fn cli_validation_sweep_is_green() {
    let accel = Accelerator::edge();
    let rows = agreement_sweep(
        &accel,
        &Model::bert(),
        64,
        &[512, 1024],
        EventOptions::default(),
    )
    .expect("wiring is sound");
    assert_eq!(rows.len(), 8);
    for row in &rows {
        assert!(
            row.agreement.within(TOLERANCE),
            "{} seq={}: divergence {:.3}%",
            row.dataflow,
            row.seq_len,
            row.agreement.divergence * 100.0
        );
    }
}
