//! Seeded fault injection for the serving engine: a chaos harness that
//! perturbs the KV pool, the workload, the latency stamps, and the
//! virtual clock, deterministically in a seed.
//!
//! The point is falsifiable robustness: under any [`FaultPlan`] the
//! engine must still terminate with every request either finished or
//! dropped with a typed [`DropReason`](crate::DropReason) — no panics, no
//! livelock, no silently lost work. The chaos test suite runs the full
//! plan matrix over many seeds and asserts exactly that.
//!
//! A plan rides in [`EngineConfig::faults`](crate::EngineConfig::faults),
//! so every run entry point ([`serve`](crate::serve),
//! [`serve_traced`](crate::serve_traced), [`serve_dist`](crate::serve_dist))
//! injects the same faults; spec corruption is applied to the workload
//! up front with [`FaultPlan::corrupt_workload`]. With `faults: None`
//! every hook is a no-op, so fault-free runs stay byte-identical to the
//! unhardened engine.

use crate::kv::KvPool;
use crate::request::RequestSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What to break, and how hard. All probabilities are per-mille so the
/// plan stays `Copy` and trivially serializable into test names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's private RNG stream (independent of the
    /// engine's numeric-plane seed).
    pub seed: u64,
    /// Tick at which the KV pool starts losing capacity, if any.
    pub shrink_pool_at_tick: Option<u64>,
    /// Fraction of the pool's blocks to confiscate once shrinking starts
    /// (taken from the free list over subsequent ticks, never from live
    /// requests).
    pub shrink_pool_frac: f64,
    /// Per-mille probability that [`corrupt_workload`](Self::corrupt_workload)
    /// mangles a given request spec.
    pub corrupt_spec_per_mille: u16,
    /// Per-mille probability that a finished request's latency stamps are
    /// replaced with NaN — the non-finite-sample hazard the metrics layer
    /// must absorb.
    pub nan_latency_per_mille: u16,
    /// Multiplicative jitter on every tick's duration: each tick's cost
    /// is scaled by a random factor in `[1/skew, skew]`, and occasionally
    /// by exactly zero (an "instantaneous" tick, the division-by-zero
    /// hazard). `None` leaves the clock honest.
    pub clock_skew: Option<f64>,
}

impl FaultPlan {
    /// A plan with every fault armed — the chaos suite's default.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            shrink_pool_at_tick: Some(8),
            shrink_pool_frac: 0.75,
            corrupt_spec_per_mille: 150,
            nan_latency_per_mille: 200,
            clock_skew: Some(4.0),
        }
    }

    /// A plan with every fault disarmed (useful as a base to switch
    /// single faults on).
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            shrink_pool_at_tick: None,
            shrink_pool_frac: 0.0,
            corrupt_spec_per_mille: 0,
            nan_latency_per_mille: 0,
            clock_skew: None,
        }
    }

    /// Mangles request specs in place, deterministically in the plan
    /// seed: non-finite arrivals, zero prompt/output lengths, and
    /// prompts far beyond any pool — every malformation the engine's
    /// admission layer claims to shed.
    pub fn corrupt_workload(&self, specs: &mut [RequestSpec]) {
        if self.corrupt_spec_per_mille == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0C04_40F7);
        for spec in specs.iter_mut() {
            if !per_mille(&mut rng, self.corrupt_spec_per_mille) {
                continue;
            }
            match rng.gen_range(0u32..4) {
                0 => spec.arrival_ms = f64::NAN,
                1 => spec.prompt_len = 0,
                2 => spec.output_len = 0,
                // Vastly oversized: provably unservable by any pool the
                // accelerator model can budget.
                _ => spec.prompt_len = 1 << 40,
            }
        }
    }
}

/// The live injector: the plan plus its RNG stream and the confiscation
/// quota still outstanding.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    /// Blocks still to confiscate once the shrink tick passes (free
    /// blocks may be scarce in any one tick, so the quota drains slowly).
    pending_confiscation: usize,
}

impl FaultInjector {
    /// Arms an injector against a pool of `total_blocks`.
    #[must_use]
    pub fn new(plan: FaultPlan, total_blocks: usize) -> Self {
        let quota = if plan.shrink_pool_at_tick.is_some() {
            (total_blocks as f64 * plan.shrink_pool_frac.clamp(0.0, 1.0)) as usize
        } else {
            0
        };
        FaultInjector {
            plan,
            rng: StdRng::seed_from_u64(plan.seed ^ 0xFA_17),
            pending_confiscation: quota,
        }
    }

    /// Per-tick hook: past the shrink tick, keeps confiscating free
    /// blocks until the quota is met.
    pub fn on_tick(&mut self, tick: u64, pool: &mut KvPool) {
        if self.pending_confiscation == 0 {
            return;
        }
        if self.plan.shrink_pool_at_tick.is_some_and(|at| tick >= at) {
            self.pending_confiscation -= pool.confiscate(self.pending_confiscation);
        }
    }

    /// Skews one tick's duration: a multiplicative factor in
    /// `[1/skew, skew]`, or exactly `0.0` for one tick in 32 (the
    /// instantaneous-tick hazard). `1.0` when the clock fault is off.
    pub fn skew_factor(&mut self) -> f64 {
        match self.plan.clock_skew {
            None => 1.0,
            Some(skew) => {
                let skew = skew.abs().max(1.0);
                if self.rng.gen_range(0u32..32) == 0 {
                    0.0
                } else {
                    let u: f64 = self.rng.gen();
                    // log-uniform in [1/skew, skew]
                    skew.powf(2.0 * u - 1.0)
                }
            }
        }
    }

    /// Corrupts a latency stamp to NaN with the planned probability.
    pub fn latency(&mut self, stamp_ms: f64) -> f64 {
        if per_mille(&mut self.rng, self.plan.nan_latency_per_mille) {
            f64::NAN
        } else {
            stamp_ms
        }
    }
}

/// One seeded Bernoulli draw at `p`‰.
fn per_mille(rng: &mut StdRng, p: u16) -> bool {
    p > 0 && rng.gen_range(0u32..1000) < u32::from(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::BlockTable;

    #[test]
    fn corruption_is_deterministic_and_bounded() {
        let plan = FaultPlan {
            corrupt_spec_per_mille: 500,
            ..FaultPlan::quiet(9)
        };
        let base: Vec<RequestSpec> = (0..64)
            .map(|id| RequestSpec::new(id, id as f64, 10, 5))
            .collect();
        let (mut a, mut b) = (base.clone(), base.clone());
        plan.corrupt_workload(&mut a);
        plan.corrupt_workload(&mut b);
        // Debug-compare: PartialEq would reject identical NaN arrivals.
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "corruption must be reproducible"
        );
        let mangled = a
            .iter()
            .filter(|s| !s.is_well_formed() || s.prompt_len >= 1 << 40)
            .count();
        assert!(mangled > 0, "at 500‰ some specs must be mangled");
        assert!(mangled < 64, "and some must survive");
    }

    #[test]
    fn quiet_plan_changes_nothing() {
        let plan = FaultPlan::quiet(1);
        let base: Vec<RequestSpec> = (0..16)
            .map(|id| RequestSpec::new(id, id as f64, 10, 5))
            .collect();
        let mut specs = base.clone();
        plan.corrupt_workload(&mut specs);
        assert_eq!(specs, base);
        let mut inj = FaultInjector::new(plan, 100);
        let mut pool = KvPool::new(4, 2, 1);
        inj.on_tick(1000, &mut pool);
        assert_eq!(pool.total_blocks(), 4);
        assert_eq!(inj.skew_factor(), 1.0);
        assert_eq!(inj.latency(3.5), 3.5);
    }

    #[test]
    fn shrink_quota_drains_as_blocks_free_up() {
        let plan = FaultPlan {
            shrink_pool_at_tick: Some(2),
            shrink_pool_frac: 0.5,
            ..FaultPlan::quiet(3)
        };
        let mut pool = KvPool::new(8, 2, 1);
        let mut inj = FaultInjector::new(plan, pool.total_blocks());
        // All blocks live: nothing to confiscate yet.
        let mut t = BlockTable::new();
        for _ in 0..16 {
            assert!(pool.try_append(&mut t, &[0.0], &[0.0]));
        }
        inj.on_tick(5, &mut pool);
        assert_eq!(pool.total_blocks(), 8);
        // Release frees capacity; the quota (4 blocks) drains.
        pool.release(&mut t);
        inj.on_tick(6, &mut pool);
        assert_eq!(pool.total_blocks(), 4);
        // Quota met: no further shrinkage.
        inj.on_tick(7, &mut pool);
        assert_eq!(pool.total_blocks(), 4);
    }

    #[test]
    fn skew_factors_stay_in_band() {
        let plan = FaultPlan {
            clock_skew: Some(3.0),
            ..FaultPlan::quiet(11)
        };
        let mut inj = FaultInjector::new(plan, 1);
        let mut zeros = 0;
        for _ in 0..2000 {
            let f = inj.skew_factor();
            assert!(
                f == 0.0 || (1.0 / 3.0 - 1e-9..=3.0 + 1e-9).contains(&f),
                "factor {f}"
            );
            if f == 0.0 {
                zeros += 1;
            }
        }
        assert!(zeros > 0, "instantaneous ticks must occur");
    }

    #[test]
    fn nan_latency_fires_at_roughly_plan_rate() {
        let plan = FaultPlan {
            nan_latency_per_mille: 250,
            ..FaultPlan::quiet(13)
        };
        let mut inj = FaultInjector::new(plan, 1);
        let nans = (0..4000).filter(|_| inj.latency(1.0).is_nan()).count();
        assert!(
            (500..1500).contains(&nans),
            "expected ≈1000 NaNs, got {nans}"
        );
    }
}
