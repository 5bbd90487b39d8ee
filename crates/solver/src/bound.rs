//! Static `[lo, hi]` cost intervals for partition plans.
//!
//! The solver's `solve` picks a plan by *estimating* its latency; this
//! module exposes the same cost arithmetic as a sound interval per
//! plan, one interval per part of the plan's
//! [`PlanLayout`](hetero_graph::partition::PlanLayout) plus one for its
//! join, so the abstract interpreter in `hetero-analyze` can propagate
//! the intervals through the submission DAG.
//!
//! Soundness argument (matched against `hetero_soc::Soc`):
//!
//! - Serial plans (`GpuOnly`, `NpuOnly`, `NpuPipe`, degenerate
//!   `SeqCut`) execute via `run_serial`, which charges exactly the
//!   solo kernel time — their intervals are exact points.
//! - Parallel plans execute via `run_parallel`, whose overlap model
//!   runs both sides contended until the shorter finishes and re-prices
//!   the remainder solo. The makespan is therefore never below the
//!   larger *solo* duration and never above the larger *contended*
//!   duration (pinned by `hetero-soc`'s
//!   `contended_time_never_faster_than_solo` and the overlap tests) —
//!   exactly the `[max(lo), max(hi)]` interval this module returns.
//! - Rendezvous and backend-switch costs are fixed constants of the
//!   sync model, unaffected by bandwidth conditions: exact points.

use hetero_graph::partition::{PartitionPlan, PlanJoin, PlanPart};
use hetero_profiler::db::BwCondition;
use hetero_profiler::{CostInterval, CostProvider};
use hetero_soc::sync::Dominance;
use hetero_soc::Backend;
use hetero_tensor::shape::MatmulShape;

use crate::solver::Solver;

impl<P: CostProvider> Solver<P> {
    /// Interval cost of one part of a plan solving `shape`: `[solo,
    /// contended]` inside a parallel section (under the solver's
    /// operand-permutation convention), the exact solo cost otherwise.
    fn part_interval(&self, part: PlanPart, shape: MatmulShape, join: PlanJoin) -> CostInterval {
        let s = part.shape(shape);
        let cost = |condition| match part.backend() {
            Backend::Gpu => self.gpu_cost(s, condition),
            _ => self.npu_cost(s, condition),
        };
        let lo = cost(BwCondition::Solo);
        if join == PlanJoin::Rendezvous {
            CostInterval {
                lo,
                hi: cost(BwCondition::Contended).max(lo),
            }
        } else {
            CostInterval::exact(lo)
        }
    }

    /// Exact cost of a plan's join (`ZERO` when it has none).
    fn join_interval(&self, join: PlanJoin, dominance: Dominance) -> CostInterval {
        let sync = &self.config().sync;
        match join {
            PlanJoin::None => CostInterval::ZERO,
            PlanJoin::Switch => CostInterval::exact(sync.backend_switch()),
            PlanJoin::Rendezvous => CostInterval::exact(sync.rendezvous(dominance)),
        }
    }

    /// Per-event cost intervals for `plan`: one per part of its layout
    /// in submission order, then one for its switch or rendezvous.
    ///
    /// Serial plans run each part solo (exact points); parallel plans
    /// carry `[solo, contended]` compute intervals with an exact
    /// rendezvous constant.
    pub fn event_cost_intervals(
        &self,
        plan: &PartitionPlan,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> Vec<CostInterval> {
        let layout = plan.layout();
        let mut out: Vec<CostInterval> = layout
            .parts()
            .map(|p| self.part_interval(p, shape, layout.join))
            .collect();
        if layout.join != PlanJoin::None {
            out.push(self.join_interval(layout.join, dominance));
        }
        out
    }

    /// Closed-form completion-time interval of `plan`: serial plans sum
    /// their parts and join; parallel plans take the pointwise max of
    /// the GPU part against the summed NPU parts, plus the rendezvous
    /// constant.
    ///
    /// For parallel plans, `hi` equals the estimate `solve` would
    /// assign the plan (contended max + rendezvous), and serial
    /// intervals are the exact estimate — so the bound degrades to the
    /// solver's objective when the interval collapses.
    pub fn plan_cost_interval(
        &self,
        plan: &PartitionPlan,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> CostInterval {
        let layout = plan.layout();
        let price = |p| self.part_interval(p, shape, layout.join);
        let gpu = layout.gpu.map_or(CostInterval::ZERO, price);
        let npu = layout
            .npu()
            .map(price)
            .fold(CostInterval::ZERO, |a, b| a + b);
        let join = self.join_interval(layout.join, dominance);
        if layout.join == PlanJoin::Rendezvous {
            gpu.join_max(npu) + join
        } else {
            gpu + npu + join
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverConfig;
    use hetero_profiler::RealExecProvider;
    use hetero_soc::SocConfig;

    fn solver() -> Solver<RealExecProvider> {
        Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            SolverConfig::default(),
        )
    }

    #[test]
    fn serial_plan_interval_is_exact_and_matches_estimate() {
        let s = solver();
        let shape = MatmulShape::new(256, 4096, 4096);
        let plan = PartitionPlan::NpuOnly { padded_m: 256 };
        let iv = s.plan_cost_interval(&plan, shape, Dominance::NpuDominant);
        assert_eq!(iv.lo, iv.hi, "serial plans are exact points");
        let est = s.npu_cost(shape, BwCondition::Solo) + s.config().sync.backend_switch();
        assert_eq!(iv.hi, est);
    }

    #[test]
    fn parallel_plan_hi_matches_solver_estimate() {
        let s = solver();
        let shape = MatmulShape::new(256, 14336, 4096);
        let plan = PartitionPlan::HybridCut {
            padded_m: 256,
            gpu_cols: 1024,
        };
        let iv = s.plan_cost_interval(&plan, shape, Dominance::NpuDominant);
        assert!(iv.is_valid());
        // The solver prices a hybrid cut as max(contended sides) + sync;
        // the interval's upper bound must reproduce that estimate.
        let npu = s.npu_cost(
            MatmulShape::new(256, shape.k, shape.n - 1024),
            BwCondition::Contended,
        );
        let gpu = s.gpu_cost(
            MatmulShape::new(shape.m, shape.k, 1024),
            BwCondition::Contended,
        );
        let est = npu.max(gpu) + s.config().sync.rendezvous(Dominance::NpuDominant);
        assert_eq!(iv.hi, est);
        assert!(iv.lo <= iv.hi);
    }

    #[test]
    fn chosen_plan_estimate_always_inside_interval() {
        let s = solver();
        for m in [1usize, 64, 135, 300, 512, 1024, 2100] {
            let shape = MatmulShape::new(m, 4096, 4096);
            let choice = s.solve(shape, Dominance::NpuDominant);
            let iv = s.plan_cost_interval(&choice.plan, shape, Dominance::NpuDominant);
            assert!(
                iv.contains(choice.est_time),
                "m={m}: est {} outside [{}, {}]",
                choice.est_time,
                iv.lo,
                iv.hi
            );
        }
    }
}
