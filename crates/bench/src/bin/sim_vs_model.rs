//! Cross-validation table: the `flat-desim` event backend vs the
//! analytical cost model, across platforms, sequence lengths, and
//! dataflows.
//!
//! Run: `cargo run --release -p flat-bench --bin sim_vs_model -- [--quick]`

use flat_arch::Accelerator;
use flat_bench::{args::Args, row, seq_label, BATCH};
use flat_core::{
    CostModel, FusedDataflow, Granularity, ModelOptions, OperatorDataflow, Stationarity,
};
use flat_desim::{simulate_fused_event, simulate_sequential_event, EventOptions};
use flat_workloads::Model;

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    println!("# Event simulation vs analytical model (L-A pair, B={BATCH})");
    row([
        "platform",
        "model",
        "seq",
        "dataflow",
        "analytical",
        "event",
        "event/analytical",
    ]
    .map(String::from));

    let mut cases: Vec<(Accelerator, Model, u64, u64)> = vec![
        (Accelerator::edge(), Model::bert(), 512, 64),
        (Accelerator::edge(), Model::bert(), 4096, 64),
        (Accelerator::cloud(), Model::xlm(), 4096, 1024),
        (Accelerator::cloud(), Model::xlm(), 16_384, 256),
    ];
    if !quick {
        cases.push((Accelerator::edge(), Model::t5_small(), 2048, 64));
        cases.push((Accelerator::cloud(), Model::bert(), 16_384, 256));
        cases.push((Accelerator::cloud(), Model::xlm(), 65_536, 256));
    }

    // The baseline runs its softmax as a serial phase on both sides.
    let serial = EventOptions {
        model: ModelOptions {
            overlap_softmax: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let base = OperatorDataflow::baseline(Stationarity::Weight);
    for (accel, model, seq, r) in cases {
        let block = model.block(BATCH, seq);
        let fused = FusedDataflow::new(Granularity::Row(r));
        let a_fused = CostModel::new(&accel).fused_la_cost(&block, &fused).cycles;
        let s_fused = simulate_fused_event(&accel, &block, &fused, EventOptions::default())
            .expect("wiring is sound")
            .cycles;
        row([
            accel.name.clone(),
            model.to_string(),
            seq_label(seq),
            format!("FLAT-R{r}"),
            format!("{a_fused:.3e}"),
            format!("{s_fused:.3e}"),
            format!("{:.3}", s_fused / a_fused),
        ]);

        let a_base = CostModel::with_options(&accel, serial.model)
            .sequential_la_cost(&block, &base, &base)
            .cycles;
        let s_base = simulate_sequential_event(&accel, &block, &base, &base, serial)
            .expect("wiring is sound")
            .cycles;
        row([
            accel.name.clone(),
            model.to_string(),
            seq_label(seq),
            "Base".to_owned(),
            format!("{a_base:.3e}"),
            format!("{s_base:.3e}"),
            format!("{:.3}", s_base / a_base),
        ]);
    }
    println!();
    println!("# The event backend executes the same lane demands the closed form folds; agreement");
    println!("# to within one percent (the baseline's residual is its phase-slice pipeline fill)");
    println!("# validates the closed-form model the figures use.");
}
