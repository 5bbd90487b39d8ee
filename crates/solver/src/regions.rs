//! Static buffer-liveness tables for partition plans.
//!
//! For each plan the solver can emit, this module derives the pooled
//! tensor regions the plan's execution touches — activation input,
//! per-side partial outputs — with their live ranges expressed in
//! *schedule steps*: step `i` is part `i` of the plan's
//! [`PlanLayout`](hetero_graph::partition::PlanLayout), and the join,
//! if any, is the last step. The abstract interpreter in
//! `hetero-analyze` folds these tables into a sound peak-footprint
//! bound, and the `buffer-leak` rule checks that no region stays live
//! past its last structural reader.
//!
//! Region sizes follow the runtime's `MemoryPool` accounting: every
//! acquisition is rounded up to a power of two with a 4 KiB floor, so
//! the static sum over-approximates (never under-approximates) what
//! the pool's high-water mark can reach for the same acquisitions.

use hetero_graph::partition::{PartCols, PartRows, PartitionPlan, PlanJoin, PlanPart};
use hetero_tensor::shape::MatmulShape;

/// Bytes per activation/output element (F16 activations, W4A16).
const ACT_BYTES: usize = 2;

/// The pool's allocation granularity floor (mirrors
/// `hetero_core::mem::MemoryPool`).
const POOL_MIN_BYTES: usize = 4096;

/// Round a request the way the runtime memory pool does: power of two,
/// 4 KiB floor.
pub fn pool_rounded(bytes: usize) -> usize {
    bytes.max(POOL_MIN_BYTES).next_power_of_two()
}

/// One pooled region a plan's execution acquires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRegion {
    /// Human-readable label (`"input"`, `"gpu-partial"`, …).
    pub label: String,
    /// Bump-allocated byte offset inside the plan's arena.
    pub offset: usize,
    /// Requested bytes (before pool rounding).
    pub bytes: usize,
    /// First schedule step (event index) at which the region is live.
    pub live_from: usize,
    /// Last schedule step at which the region is live (inclusive).
    pub live_until: usize,
    /// Schedule steps that structurally read the region.
    pub readers: Vec<usize>,
}

impl PlanRegion {
    /// Pool-rounded size of this region.
    pub fn rounded_bytes(&self) -> usize {
        pool_rounded(self.bytes)
    }

    /// Whether the region stays live past its last structural reader —
    /// the shape of defect the `buffer-leak` rule reports.
    pub fn leaks(&self) -> bool {
        match self.readers.iter().max() {
            Some(&last) => self.live_until > last,
            None => true, // live but never read: trivially a leak
        }
    }
}

/// Buffer-liveness table for one plan: all regions plus the schedule
/// step count they index into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTable {
    /// Number of schedule steps (events) the live ranges index into.
    pub steps: usize,
    /// Regions acquired over the plan's execution.
    pub regions: Vec<PlanRegion>,
}

impl RegionTable {
    /// Derive the region table for `plan` solving `shape`.
    ///
    /// The activation input is live from step 0 through the last part,
    /// which reads it; each part's output is live from its own step
    /// through the rendezvous/switch step that publishes it.
    pub fn for_plan(plan: &PartitionPlan, shape: MatmulShape) -> Self {
        let layout = plan.layout();
        let parts = layout.parts().count();
        let join = (layout.join != PlanJoin::None).then_some(parts);
        // A padded graph reads its padded rows; every other part reads
        // the m-row activation.
        let input_rows = layout
            .parts()
            .map(|p| match p {
                PlanPart::NpuGraph { rows, .. } => rows,
                _ => shape.m,
            })
            .max()
            .unwrap_or(shape.m);
        let mut regions = vec![PlanRegion {
            label: "input".into(),
            offset: 0,
            bytes: input_rows * shape.k * ACT_BYTES,
            live_from: 0,
            live_until: parts.saturating_sub(1),
            readers: (0..parts.max(1)).collect(),
        }];
        let first_npu = usize::from(layout.gpu.is_some());
        for (step, part) in layout.parts().enumerate() {
            let label = match part {
                PlanPart::Gpu {
                    rows: PartRows::All,
                    cols: PartCols::All,
                } => "gpu-out".into(),
                PlanPart::Gpu { .. } => "gpu-partial".into(),
                PlanPart::NpuGraph {
                    cols: PartCols::All,
                    ..
                } => "npu-out".into(),
                PlanPart::NpuGraph { .. } => "npu-partial".into(),
                PlanPart::NpuChunk { .. } => format!("npu-chunk-{}", step - first_npu),
            };
            let s = part.shape(shape);
            regions.push(PlanRegion {
                label,
                offset: 0,
                bytes: s.m * s.n * ACT_BYTES,
                live_from: step,
                live_until: join.unwrap_or(step),
                readers: std::iter::once(step).chain(join).collect(),
            });
        }
        // Bump-allocate offsets in declaration order, at pool-rounded
        // granularity, so regions can never alias.
        let mut cursor = 0usize;
        for r in &mut regions {
            r.offset = cursor;
            cursor += r.rounded_bytes();
        }
        Self {
            steps: parts + usize::from(join.is_some()),
            regions,
        }
    }

    /// Pool-rounded bytes live at schedule step `step`.
    pub fn live_bytes_at(&self, step: usize) -> usize {
        self.regions
            .iter()
            .filter(|r| r.live_from <= step && step <= r.live_until)
            .map(PlanRegion::rounded_bytes)
            .sum()
    }

    /// The max-plateau of [`Self::live_bytes_at`] over all steps — the
    /// static peak pooled footprint of the plan.
    pub fn peak_bytes(&self) -> usize {
        (0..self.steps)
            .map(|s| self.live_bytes_at(s))
            .max()
            .unwrap_or(0)
    }

    /// Regions that stay live past their last structural reader.
    pub fn leaked_regions(&self) -> Vec<&PlanRegion> {
        self.regions.iter().filter(|r| r.leaks()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_rounding_matches_mempool_policy() {
        assert_eq!(pool_rounded(1), 4096);
        assert_eq!(pool_rounded(4096), 4096);
        assert_eq!(pool_rounded(4097), 8192);
        assert_eq!(pool_rounded(1 << 20), 1 << 20);
        assert_eq!(pool_rounded((1 << 20) + 1), 1 << 21);
    }

    #[test]
    fn freshly_derived_tables_never_leak() {
        let shape = MatmulShape::new(300, 4096, 4096);
        for plan in [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 512 },
            PartitionPlan::SeqCut {
                npu_chunks: vec![256, 32],
                gpu_rows: 12,
            },
        ] {
            let table = RegionTable::for_plan(&plan, shape);
            assert!(table.leaked_regions().is_empty(), "{plan:?}");
        }
    }

    #[test]
    fn crafted_leak_is_detected() {
        let shape = MatmulShape::new(256, 4096, 4096);
        let mut table = RegionTable::for_plan(&PartitionPlan::GpuOnly, shape);
        table.steps += 1;
        table.regions[0].live_until = 1; // past its only reader at step 0
        let leaks = table.leaked_regions();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].label, "input");
    }

    #[test]
    fn offsets_are_disjoint() {
        let shape = MatmulShape::new(300, 4096, 14336);
        let table = RegionTable::for_plan(
            &PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 2048,
            },
            shape,
        );
        let mut spans: Vec<(usize, usize)> = table
            .regions
            .iter()
            .map(|r| (r.offset, r.offset + r.rounded_bytes()))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping regions: {spans:?}");
        }
    }

    #[test]
    fn parallel_peak_exceeds_either_side_alone() {
        let shape = MatmulShape::new(256, 4096, 4096);
        let table = RegionTable::for_plan(
            &PartitionPlan::RowCut {
                gpu_cols: 1024,
                padded_m: 256,
            },
            shape,
        );
        // At the npu-submit step, input + both partials are all live.
        let peak = table.peak_bytes();
        assert_eq!(peak, table.live_bytes_at(1));
        assert!(peak > table.regions[0].rounded_bytes());
    }
}
