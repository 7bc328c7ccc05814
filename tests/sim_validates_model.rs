//! Cross-validation: the `flat-desim` event backend and the analytical
//! cost model must agree on runtimes across the operating range — the
//! repository's answer to "why trust the closed-form numbers?".

use flat::arch::Accelerator;
use flat::core::{
    CostModel, FusedDataflow, Granularity, ModelOptions, OperatorDataflow, Stationarity,
};
use flat::desim::{simulate_fused_event, simulate_sequential_event, EventOptions};
use flat::workloads::Model;

fn agreement(analytical: f64, simulated: f64) -> f64 {
    simulated / analytical
}

/// Fused execution, compute-bound regime: the two models agree within a
/// few percent.
#[test]
fn fused_agreement_compute_bound() {
    let cases = [
        (Accelerator::edge(), Model::bert(), 512u64, 64u64),
        (Accelerator::edge(), Model::bert(), 4096, 64),
        (Accelerator::cloud(), Model::xlm(), 4096, 1024),
    ];
    for (accel, model, seq, r) in cases {
        let block = model.block(64, seq);
        let df = FusedDataflow::new(Granularity::Row(r));
        let analytical = CostModel::new(&accel).fused_la_cost(&block, &df).cycles;
        let simulated = simulate_fused_event(&accel, &block, &df, EventOptions::default())
            .expect("wiring is sound")
            .cycles;
        let ratio = agreement(analytical, simulated);
        assert!(
            (0.85..=1.15).contains(&ratio),
            "{} {} N={seq} R{r}: sim/analytical = {ratio:.3}",
            accel.name,
            model
        );
    }
}

/// Sequential baseline, memory-bound regime: a wider band, since the
/// closed form folds each phase whole while the event backend pipelines
/// it in slices.
#[test]
fn sequential_agreement_memory_bound() {
    for (accel, model, seq) in [
        (Accelerator::edge(), Model::bert(), 512u64),
        (Accelerator::cloud(), Model::xlm(), 4096),
        (Accelerator::cloud(), Model::xlm(), 16_384),
    ] {
        let block = model.block(64, seq);
        let df = OperatorDataflow::baseline(Stationarity::Weight);
        // Both sides run the softmax as a strict serial phase.
        let opts = EventOptions {
            model: ModelOptions {
                overlap_softmax: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let analytical = CostModel::with_options(&accel, opts.model)
            .sequential_la_cost(&block, &df, &df)
            .cycles;
        let simulated = simulate_sequential_event(&accel, &block, &df, &df, opts)
            .expect("wiring is sound")
            .cycles;
        let ratio = agreement(analytical, simulated);
        assert!(
            (0.6..=1.6).contains(&ratio),
            "{} {} N={seq}: sim/analytical = {ratio:.3}",
            accel.name,
            model
        );
    }
}

/// Both models rank the dataflows identically: FLAT beats the baseline in
/// the simulator too, by a comparable factor.
#[test]
fn both_models_agree_on_the_winner() {
    let accel = Accelerator::cloud();
    let block = Model::xlm().block(64, 16_384);
    let df = FusedDataflow::new(Granularity::Row(256));

    let cm = CostModel::new(&accel);
    let base_df = OperatorDataflow::baseline(Stationarity::Weight);
    let speedup_analytical = cm.sequential_la_cost(&block, &base_df, &base_df).cycles
        / cm.fused_la_cost(&block, &df).cycles;

    let sim_base =
        simulate_sequential_event(&accel, &block, &base_df, &base_df, EventOptions::default())
            .expect("wiring is sound")
            .cycles;
    let sim_fused = simulate_fused_event(&accel, &block, &df, EventOptions::default())
        .expect("wiring is sound")
        .cycles;
    let speedup_simulated = sim_base / sim_fused;

    assert!(speedup_analytical > 2.0);
    assert!(speedup_simulated > 2.0);
    let ratio = speedup_simulated / speedup_analytical;
    assert!((0.5..=2.0).contains(&ratio), "speedups diverge: {ratio:.3}");
}
