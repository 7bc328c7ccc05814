//! Criterion benchmarks of the `flat-desim` event backend: cost per
//! simulated workload, fused vs sequential.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flat_arch::Accelerator;
use flat_core::{FusedDataflow, Granularity, OperatorDataflow, Stationarity};
use flat_desim::{simulate_fused_event, simulate_sequential_event, EventOptions};
use flat_workloads::Model;
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    let accel = Accelerator::edge();
    let mut group = c.benchmark_group("sim");
    group.sample_size(20);
    let base = OperatorDataflow::baseline(Stationarity::Weight);
    for seq in [512u64, 4096] {
        let block = Model::bert().block(64, seq);
        let df = FusedDataflow::new(Granularity::Row(64));
        group.bench_with_input(BenchmarkId::new("fused", seq), &block, |b, blk| {
            b.iter(|| {
                black_box(simulate_fused_event(
                    &accel,
                    blk,
                    &df,
                    EventOptions::default(),
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("sequential", seq), &block, |b, blk| {
            b.iter(|| {
                black_box(simulate_sequential_event(
                    &accel,
                    blk,
                    &base,
                    &base,
                    EventOptions::default(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
