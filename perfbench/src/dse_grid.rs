//! `dse_grid`: the Fig. 8(a)/(b) grid issued as DSE queries.
//!
//! One op is one (platform, seq, buffer) query: `Dse::best_la` over the
//! Full and the Sequential space, `best_others`, `CostModel::block_cost`
//! of both winners, and a `flat_desim::simulate_la_event` cross-check of
//! the Full winner. Queries run in whole passes over the grid, so every
//! run times the same mix.

use crate::outcome::{ensure, timed_setup, Outcome};
use crate::span::Tracer;
use crate::stats::{median, min, quantile, Digest};
use flat_arch::Accelerator;
use flat_core::{BlockDataflow, CostModel, LaExecution};
use flat_desim::{simulate_la_event, EventOptions};
use flat_dse::{la_points, Dse, Objective, SpaceKind};
use flat_workloads::AttentionBlock;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// The figure's rows: platform, model and sequence lengths.
const ROWS: [(&str, &str, [u64; 4]); 2] = [
    ("edge", "bert", [512, 4096, 65_536, 262_144]),
    ("cloud", "xlm", [4096, 16_384, 65_536, 262_144]),
];

/// One grid row: a block with its candidate lists, enumerated once.
struct Row {
    block: AttentionBlock,
    full: Vec<LaExecution>,
    sequential: Vec<LaExecution>,
}

struct Query {
    row: usize,
    accel: Accelerator,
}

struct Grid {
    rows: Vec<Row>,
    queries: Vec<Query>,
}

/// Modeled results of one query; host time never enters them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Answer {
    full_util: f64,
    seq_util: f64,
    full_block_cycles: f64,
    seq_block_cycles: f64,
    event_cycles: f64,
    divergence: f64,
    digest: f64,
}

/// One buffer size from each quarter of the paper's 17-point sweep (the
/// last point stands alone), drawn from the seed.
fn buffer_points(rng: &mut StdRng) -> Vec<flat_tensor::Bytes> {
    let sweep = flat_bench::sg_sweep(false);
    sweep
        .chunks(4)
        .map(|stratum| stratum[rng.gen_range(0..stratum.len())])
        .collect()
}

fn setup(seed: u64) -> Grid {
    let mut rng = StdRng::seed_from_u64(seed);
    let sgs = buffer_points(&mut rng);
    let mut rows = Vec::new();
    let mut queries = Vec::new();
    for (platform, model, seqs) in ROWS {
        let accel = flat_bench::platform(platform);
        let model = flat_bench::model(model);
        for seq in seqs {
            let block = model.block(flat_bench::BATCH, seq);
            let seq_q = block.config().seq_q;
            rows.push(Row {
                full: la_points(SpaceKind::Full, seq_q),
                sequential: la_points(SpaceKind::Sequential, seq_q),
                block,
            });
            for &sg in &sgs {
                queries.push(Query {
                    row: rows.len() - 1,
                    accel: accel.with_sg(sg),
                });
            }
        }
    }
    queries.shuffle(&mut rng);
    let grid = Grid { rows, queries };
    // Warm-up: one query per row spins up the pool and faults in memory.
    for r in 0..grid.rows.len() {
        if let Some(q) = grid.queries.iter().find(|q| q.row == r) {
            black_box(query(&grid, q, &mut Tracer::new(false)).ok());
        }
    }
    grid
}

/// One DSE query, with a span around each call into a layer.
fn query(grid: &Grid, q: &Query, tr: &mut Tracer) -> Result<Answer, String> {
    let block = &grid.rows[q.row].block;
    let dse = Dse::new(&q.accel, block);
    let cm = CostModel::new(&q.accel);
    let outer = tr.enter("dse.query");
    let full = tr.span("dse.best_la", || {
        dse.best_la(SpaceKind::Full, Objective::MaxUtil)
    });
    let seq = tr.span("dse.best_la", || {
        dse.best_la(SpaceKind::Sequential, Objective::MaxUtil)
    });
    let (others, _) = tr.span("dse.best_others", || dse.best_others(Objective::MaxUtil));
    let full_block = tr.span("core.block_cost", || {
        cm.block_cost(
            block,
            &BlockDataflow {
                la: full.la,
                others,
            },
        )
    });
    let seq_block = tr.span("core.block_cost", || {
        cm.block_cost(block, &BlockDataflow { la: seq.la, others })
    });
    let event = tr.span("desim.simulate_la_event", || {
        simulate_la_event(&q.accel, block, &full.la, EventOptions::default())
    });
    tr.exit(outer);
    let event = event.map_err(|e| format!("desim cross-check failed: {e}"))?;
    let divergence = (event.cycles - full.report.cycles) / full.report.cycles;
    let mut d = Digest::default();
    d.bytes(format!("{:?}{:?}{:?}", full.la, seq.la, others).as_bytes());
    for x in [
        full.report.cycles,
        seq.report.cycles,
        full_block.total().cycles,
        seq_block.total().cycles,
        event.cycles,
    ] {
        d.f64(x);
    }
    Ok(Answer {
        full_util: full.report.util(),
        seq_util: seq.report.util(),
        full_block_cycles: full_block.total().cycles,
        seq_block_cycles: seq_block.total().cycles,
        event_cycles: event.cycles,
        divergence,
        digest: d.value(),
    })
}

/// The per-query output checks.
fn check(a: &Answer) -> Result<(), String> {
    for (what, u) in [("Full", a.full_util), ("Sequential", a.seq_util)] {
        ensure(u > 0.0 && u <= 1.0, || {
            format!("{what} winner util {u} outside (0, 1]")
        })?;
    }
    // Full's candidates include every Sequential point.
    ensure(a.full_util >= a.seq_util, || {
        format!(
            "Full util {} below Sequential util {}",
            a.full_util, a.seq_util
        )
    })?;
    for (what, c) in [
        ("Full block", a.full_block_cycles),
        ("Sequential block", a.seq_block_cycles),
        ("event", a.event_cycles),
    ] {
        ensure(c.is_finite() && c > 0.0, || {
            format!("{what} cycles {c} not positive")
        })?;
    }
    ensure(a.divergence.is_finite(), || {
        format!("desim divergence {} not finite", a.divergence)
    })
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let (grid, setup_s) = timed_setup(|| setup(seed));
    let mut out = Outcome::default();
    out.put("setup_s", setup_s, "s", crate::outcome::SETUP_REPS);

    let threads = rayon::current_num_threads() as f64;
    let mut first_pass: Vec<Option<Answer>> = vec![None; grid.queries.len()];
    let mut query_s: Vec<Vec<f64>> = vec![Vec::new(); grid.queries.len()];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for (i, q) in grid.queries.iter().enumerate() {
            let first = first_pass[i].is_none();
            out.op(tr, |tr| {
                let t0 = Instant::now();
                let a = query(&grid, q, tr);
                query_s[i].push(t0.elapsed().as_secs_f64());
                let a = a?;
                check(&a)?;
                match first_pass[i] {
                    None => first_pass[i] = Some(a),
                    Some(prev) => ensure(prev == a, || {
                        format!("query {i} answered differently on a repeat")
                    })?,
                }
                Ok(())
            });
            if tr.on() && first {
                // Serial pricing of the candidates the query searched, once
                // per query and outside its span: the parallel search's base.
                let row = &grid.rows[q.row];
                let cm = CostModel::new(&q.accel);
                for la in row.full.iter().chain(&row.sequential) {
                    tr.span("core.la_cost", || black_box(cm.la_cost(&row.block, la)));
                }
            }
        }
    }
    let queries = out.attempted as usize;
    out.put(
        "items_per_s",
        grid.queries.len() as f64 / query_s.iter().map(|t| min(t)).sum::<f64>(),
        "1/s",
        queries,
    );

    if tr.on() {
        let answers: Vec<Answer> = first_pass.iter().flatten().copied().collect();
        let query_ms = tr.durations_ms("dse.query");
        let best_la_ms = tr.durations_ms("dse.best_la");
        let serial_ms = tr.durations_ms("core.la_cost");
        let per_pass: usize = grid
            .queries
            .iter()
            .map(|q| grid.rows[q.row].full.len() + grid.rows[q.row].sequential.len())
            .sum();
        let passes = query_s.iter().map(Vec::len).min().unwrap_or(0);
        out.put("core.la_cost_calls", per_pass as f64, "count", passes);
        let serial_us: Vec<f64> = serial_ms.iter().map(|m| m * 1e3).collect();
        out.put(
            "core.la_cost_us_p50",
            median(&serial_us),
            "us",
            serial_us.len(),
        );
        let block_us: Vec<f64> = tr
            .durations_ms("core.block_cost")
            .iter()
            .map(|m| m * 1e3)
            .collect();
        out.put(
            "core.block_cost_us_p50",
            median(&block_us),
            "us",
            block_us.len(),
        );
        out.put("dse.query_ms_p50", median(&query_ms), "ms", query_ms.len());
        out.put(
            "dse.query_ms_p90",
            quantile(&query_ms, 0.9),
            "ms",
            query_ms.len(),
        );
        out.put(
            "dse.best_la_ms_p50",
            median(&best_la_ms),
            "ms",
            best_la_ms.len(),
        );
        let others_ms = tr.durations_ms("dse.best_others");
        out.put(
            "dse.best_others_ms_p50",
            median(&others_ms),
            "ms",
            others_ms.len(),
        );
        // The first pass's two searches per query priced what the serial
        // loop priced.
        let first_pass_ms: f64 = best_la_ms.iter().take(2 * grid.queries.len()).sum();
        out.put(
            "dse.parallel_efficiency",
            serial_ms.iter().sum::<f64>() / (first_pass_ms * threads),
            "ratio",
            grid.queries.len(),
        );
        let sim_ms = tr.durations_ms("desim.simulate_la_event");
        out.put(
            "desim.crosscheck_ms_p50",
            median(&sim_ms),
            "ms",
            sim_ms.len(),
        );
        let div_max = answers
            .iter()
            .map(|a| a.divergence.abs())
            .fold(0.0, f64::max);
        out.put("desim.divergence_max", div_max, "ratio", answers.len());
        let mut d = Digest::default();
        for a in &answers {
            d.f64(a.digest);
        }
        out.put("model.digest", d.value(), "hash", answers.len());
        let util_mean =
            answers.iter().map(|a| a.full_util).sum::<f64>() / answers.len().max(1) as f64;
        out.put(
            "model.flat_opt_util_mean",
            util_mean,
            "ratio",
            answers.len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Answer {
        Answer {
            full_util: 0.9,
            seq_util: 0.5,
            full_block_cycles: 10.0,
            seq_block_cycles: 20.0,
            event_cycles: 10.0,
            divergence: 0.001,
            digest: 1.0,
        }
    }

    #[test]
    fn good_answer_passes() {
        assert!(check(&good()).is_ok());
    }

    #[test]
    fn injected_wrong_answers_fail() {
        let mut a = good();
        a.full_util = 0.4;
        assert!(check(&a).is_err(), "Full losing to Sequential must fail");
        let mut a = good();
        a.seq_util = 1.5;
        assert!(check(&a).is_err(), "util above 1 must fail");
        let mut a = good();
        a.divergence = f64::NAN;
        assert!(check(&a).is_err(), "non-finite divergence must fail");
    }

    #[test]
    fn buffer_points_follow_the_seed() {
        let a = buffer_points(&mut StdRng::seed_from_u64(1));
        let b = buffer_points(&mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }
}
