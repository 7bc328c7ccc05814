//! Instrumented fused execution: the same FLAT row-tiled attention as
//! [`flat_attention`](crate::flat_attention), but counting every buffer
//! touch — so the cost model's traffic accounting can be validated against
//! what a real execution actually does.

use crate::walk::{walk, F32Scores, Observer, TwoPass};
use crate::{Mask, Mat, MultiHeadInput};
use flat_telemetry::{Event, TraceSink};

/// Memory-touch counters for one execution, in elements.
///
/// "DRAM" here means the backing store of the full Q/K/V/O tensors;
/// "slice" means the on-chip FLAT-tile holding the live logit rows.
///
/// # Example
///
/// ```
/// use flat_kernels::{instrumented_flat_attention, Mask, MultiHeadInput};
///
/// let input = MultiHeadInput::random(1, 2, 32, 32, 8, 3);
/// let (out, stats) = instrumented_flat_attention(&input, 8, Mask::None);
/// assert_eq!(out.len(), 2);
/// // Q is read exactly once per element.
/// assert_eq!(stats.q_reads, 2 * 32 * 8);
/// // The live slice never exceeds R x N.
/// assert_eq!(stats.peak_live_logits, 8 * 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionStats {
    /// Query elements read from backing store.
    pub q_reads: u64,
    /// Key elements read from backing store.
    pub k_reads: u64,
    /// Value elements read from backing store.
    pub v_reads: u64,
    /// Output elements written to backing store.
    pub o_writes: u64,
    /// Logit elements written into the live slice.
    pub logit_writes: u64,
    /// Logit elements read back out of the live slice (softmax + Attend).
    pub logit_reads: u64,
    /// Largest number of logit elements live at any instant.
    pub peak_live_logits: u64,
    /// Number of FLAT-tile iterations executed.
    pub iterations: u64,
}

impl ExecutionStats {
    /// Total backing-store (DRAM-like) traffic in elements.
    #[must_use]
    pub fn backing_store_elements(&self) -> u64 {
        self.q_reads + self.k_reads + self.v_reads + self.o_writes
    }

    /// Total scratchpad (live-slice) traffic in elements: every logit
    /// write into the FLAT tile plus every read back out of it.
    #[must_use]
    pub fn scratchpad_elements(&self) -> u64 {
        self.logit_writes + self.logit_reads
    }
}

/// Counts for the row-granularity walk, where each tile holds whole rows.
impl Observer for ExecutionStats {
    fn group(&mut self, seq_kv: usize, dk: usize) {
        // K and V are staged once per group (the K/V FLAT-tiles).
        self.k_reads += (seq_kv * dk) as u64;
        self.v_reads += (seq_kv * dk) as u64;
    }

    fn tile(&mut self, rows: usize, width: usize, dk: usize) {
        let live = (rows * width) as u64;
        self.iterations += 1;
        self.q_reads += (rows * dk) as u64;
        self.peak_live_logits = self.peak_live_logits.max(live);
        // Stage L writes the slice, the SFU reads and rewrites it, and
        // Stage A reads it once more.
        self.logit_writes += 2 * live;
        self.logit_reads += 2 * live;
        self.o_writes += (rows * dk) as u64;
    }
}

/// [`flat_attention`](crate::flat_attention) with touch counting. Returns
/// the identical output plus the [`ExecutionStats`].
///
/// K and V are modeled as staged: read from backing store once per
/// (batch, head) group and reused across that group's row iterations —
/// the `key`/`value` FLAT-tile behavior the cost model prices.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero.
#[must_use]
pub fn instrumented_flat_attention(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
) -> (Vec<Mat>, ExecutionStats) {
    assert!(rows_per_tile > 0, "row tile must be positive");
    let mut stats = ExecutionStats::default();
    let scores = |g| F32Scores::new(input, g);
    let outs = walk::<_, TwoPass>(input, rows_per_tile, input.seq_kv, mask, scores, &mut stats);
    (outs, stats)
}

/// [`instrumented_flat_attention`], additionally routing the
/// [`ExecutionStats`] into a [`TraceSink`] as kernel counter events: MAC
/// work, scratchpad (live-slice) bytes, and off-chip (backing-store)
/// bytes, plus the tile iteration count and peak live-logit footprint.
/// The stats are returned unchanged — the sink is a tee, not a
/// replacement, and a disabled sink skips event construction entirely.
///
/// # Panics
///
/// Panics if `rows_per_tile` is zero, as
/// [`instrumented_flat_attention`] does.
#[must_use]
pub fn instrumented_flat_attention_traced(
    input: &MultiHeadInput,
    rows_per_tile: usize,
    mask: Mask,
    sink: &mut dyn TraceSink,
) -> (Vec<Mat>, ExecutionStats) {
    let (outs, stats) = instrumented_flat_attention(input, rows_per_tile, mask);
    if sink.enabled() {
        // Both matmuls (L = Q·Kᵀ and O = A·V) do seq_q·seq_kv·dk MACs
        // per group; elements are f32 in this numeric witness.
        let macs = 2 * (input.groups() * input.seq_q * input.seq_kv * input.dk) as u64;
        const ELEM_BYTES: u64 = 4;
        sink.record(
            Event::counter("kernel", "kernel", 0.0, 0, 0)
                .arg("macs", macs)
                .arg("sg_bytes", stats.scratchpad_elements() * ELEM_BYTES)
                .arg("offchip_bytes", stats.backing_store_elements() * ELEM_BYTES),
        );
        sink.record(
            Event::instant("flat_attention", "kernel", 0.0, 0, 0)
                .arg("iterations", stats.iterations)
                .arg("peak_live_logits", stats.peak_live_logits)
                .arg("rows_per_tile", rows_per_tile as u64),
        );
    }
    (outs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat_attention;
    use flat_telemetry::{MemorySink, NoopSink};

    #[test]
    fn output_matches_uninstrumented() {
        let input = MultiHeadInput::random(2, 2, 24, 24, 8, 5);
        let (inst, _) = instrumented_flat_attention(&input, 6, Mask::None);
        let plain = flat_attention(&input, 6, Mask::None);
        for (a, b) in inst.iter().zip(&plain) {
            assert_eq!(a.max_abs_diff(b), 0.0, "identical arithmetic path");
        }
    }

    #[test]
    fn compulsory_traffic_touched_exactly_once() {
        let input = MultiHeadInput::random(2, 3, 32, 40, 8, 7);
        let (_, s) = instrumented_flat_attention(&input, 8, Mask::None);
        let groups = 6u64;
        assert_eq!(s.q_reads, groups * 32 * 8);
        assert_eq!(s.k_reads, groups * 40 * 8);
        assert_eq!(s.v_reads, groups * 40 * 8);
        assert_eq!(s.o_writes, groups * 32 * 8);
    }

    #[test]
    fn peak_live_is_r_times_n() {
        let input = MultiHeadInput::random(1, 1, 64, 64, 4, 9);
        for r in [1usize, 4, 16, 64] {
            let (_, s) = instrumented_flat_attention(&input, r, Mask::None);
            assert_eq!(s.peak_live_logits, (r * 64) as u64, "R={r}");
        }
    }

    #[test]
    fn logit_tensor_fully_produced_and_consumed() {
        let input = MultiHeadInput::random(1, 2, 17, 23, 4, 11);
        let (_, s) = instrumented_flat_attention(&input, 5, Mask::None);
        let logits = 2 * 17 * 23u64;
        // Written by L, rewritten by softmax; read by softmax and by A.
        assert_eq!(s.logit_writes, 2 * logits);
        assert_eq!(s.logit_reads, 2 * logits);
    }

    #[test]
    fn iteration_count_matches_ceiling_division() {
        let input = MultiHeadInput::random(2, 2, 37, 37, 4, 13);
        let (_, s) = instrumented_flat_attention(&input, 8, Mask::None);
        assert_eq!(s.iterations, 4 * 37u64.div_ceil(8));
    }

    #[test]
    fn traced_variant_tees_stats_into_the_sink() {
        let input = MultiHeadInput::random(1, 2, 16, 24, 8, 5);
        let (plain_out, plain_stats) = instrumented_flat_attention(&input, 4, Mask::None);
        let mut sink = MemorySink::new();
        let (out, stats) = instrumented_flat_attention_traced(&input, 4, Mask::None, &mut sink);
        assert_eq!(stats, plain_stats, "the sink must not change the stats");
        for (a, b) in out.iter().zip(&plain_out) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        assert_eq!(sink.events.len(), 2);
        let json = sink.to_chrome_trace();
        let macs = 2 * (2 * 16 * 24 * 8) as u64;
        assert!(json.contains(&format!("\"macs\":{macs}")));
        assert!(json.contains(&format!("\"sg_bytes\":{}", stats.scratchpad_elements() * 4)));
        assert!(json.contains(&format!(
            "\"offchip_bytes\":{}",
            stats.backing_store_elements() * 4
        )));
    }

    #[test]
    fn traced_variant_with_noop_sink_records_nothing() {
        let input = MultiHeadInput::random(1, 1, 8, 8, 4, 3);
        let mut sink = NoopSink;
        let (_, stats) = instrumented_flat_attention_traced(&input, 4, Mask::None, &mut sink);
        let (_, plain) = instrumented_flat_attention(&input, 4, Mask::None);
        assert_eq!(stats, plain);
    }
}
