//! Partition plan types (§4.1) and their structural invariants.
//!
//! [`PartitionPlan`] describes how one Matmul `[m,k] x [k,n]` is split
//! across the GPU and NPU. The type lives here — beside the
//! sequence-length planners that generate its NPU chunks — so that
//! everything *above* it (the solver that searches plans, the engines
//! that execute them, and the `hetero-analyze` checker that lints them)
//! shares one definition and one set of invariant predicates.
//!
//! The `*_violations` methods are the single source of truth for the
//! plan-shape invariants. The solver re-checks its own output through
//! them in debug builds (behind its `validate` feature) and the
//! analyzer wraps them into named diagnostics.
//!
//! [`PartitionPlan::layout`] is the single source of truth for how a
//! plan runs: its GPU part, its NPU parts in submission order, and the
//! backend switch or rendezvous that ends them (§4.2). The engines
//! lower it to kernels, the solver prices it as cost intervals, the
//! region tables derive buffer lifetimes from it, and the analyzer
//! builds its sync schedules from it — schedule step `i` is part `i`,
//! and the join, if any, is the last step.

use hetero_soc::{Backend, SimTime};
use hetero_tensor::shape::MatmulShape;
use serde::{Deserialize, Serialize};

/// How one Matmul `[m,k] x [k,n]` is split across backends (§4.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionPlan {
    /// Whole problem on the GPU.
    GpuOnly,
    /// Whole problem on the NPU (requires a compiled graph for `m`,
    /// padding `m` up to `padded_m`).
    NpuOnly {
        /// The graph's (standard) sequence size; ≥ `m`.
        padded_m: usize,
    },
    /// Whole problem on the NPU as sequential standard-size chunks
    /// (pipe / multi-sequence-length cutting without GPU help). The
    /// final chunk may include padding.
    NpuPipe {
        /// Standard chunk sizes summing to ≥ `m`.
        chunks: Vec<usize>,
        /// Rows of padding inside the last chunk.
        padded_rows: usize,
    },
    /// Row-cutting: the weight's output dimension `n` is split; the GPU
    /// takes `gpu_cols` columns, the NPU the rest, in parallel.
    RowCut {
        /// Output features assigned to the GPU.
        gpu_cols: usize,
        /// The NPU side's graph sequence size; ≥ `m`.
        padded_m: usize,
    },
    /// Sequence-length cutting: the activation's `m` rows are split;
    /// the NPU runs standard-size chunks sequentially while the GPU
    /// takes the misaligned margin, in parallel.
    SeqCut {
        /// Standard chunk sizes executed on the NPU.
        npu_chunks: Vec<usize>,
        /// Rows assigned to the GPU (`m − Σchunks`).
        gpu_rows: usize,
    },
    /// Hybrid-cutting: padding on the sequence dimension *and* a row
    /// cut — the NPU runs `[padded_m, k, n − gpu_cols]`, the GPU
    /// `[m, k, gpu_cols]`, in parallel (§4.1.1).
    HybridCut {
        /// The NPU graph's sequence size; ≥ `m`.
        padded_m: usize,
        /// Output features assigned to the GPU.
        gpu_cols: usize,
    },
}

impl PartitionPlan {
    /// Whether this plan uses both backends in parallel.
    pub fn is_parallel(&self) -> bool {
        matches!(
            self,
            Self::RowCut { .. } | Self::SeqCut { gpu_rows: 1.., .. } | Self::HybridCut { .. }
        )
    }

    /// Whether the NPU participates at all.
    pub fn uses_npu(&self) -> bool {
        !matches!(self, Self::GpuOnly)
    }

    /// How this plan runs: its parts in submission order and their
    /// join.
    ///
    /// The join follows the variant, not which sides are non-empty:
    /// parallel plans end in a rendezvous, serial NPU plans in a
    /// backend switch, and `GpuOnly` in neither. A sequence cut that
    /// leaves the GPU no rows has no GPU part.
    pub fn layout(&self) -> PlanLayout<'_> {
        let join = if self.is_parallel() {
            PlanJoin::Rendezvous
        } else if self.uses_npu() {
            PlanJoin::Switch
        } else {
            PlanJoin::None
        };
        let (gpu, graph, chunks): (_, _, &[usize]) = match self {
            Self::GpuOnly => (Some((PartRows::All, PartCols::All)), None, &[]),
            Self::NpuOnly { padded_m } => (None, Some((*padded_m, PartCols::All)), &[]),
            Self::NpuPipe { chunks, .. } => (None, None, chunks),
            Self::RowCut { gpu_cols, padded_m } | Self::HybridCut { padded_m, gpu_cols } => (
                Some((PartRows::All, PartCols::Gpu(*gpu_cols))),
                Some((*padded_m, PartCols::Rest(*gpu_cols))),
                &[],
            ),
            Self::SeqCut {
                npu_chunks,
                gpu_rows,
            } => (
                (*gpu_rows > 0).then_some((PartRows::N(*gpu_rows), PartCols::All)),
                None,
                npu_chunks,
            ),
        };
        PlanLayout {
            gpu: gpu.map(|(rows, cols)| PlanPart::Gpu { rows, cols }),
            graph: graph.map(|(rows, cols)| PlanPart::NpuGraph { rows, cols }),
            chunks,
            join,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Self::GpuOnly => "gpu-only",
            Self::NpuOnly { .. } => "npu-only",
            Self::NpuPipe { .. } => "npu-pipe",
            Self::RowCut { .. } => "row-cut",
            Self::SeqCut { .. } => "seq-cut",
            Self::HybridCut { .. } => "hybrid-cut",
        }
    }

    /// NPU graph sequence sizes this plan dispatches (each needs a
    /// compiled graph).
    pub fn npu_sizes(&self) -> Vec<usize> {
        match self {
            Self::GpuOnly => vec![],
            Self::NpuOnly { padded_m }
            | Self::RowCut { padded_m, .. }
            | Self::HybridCut { padded_m, .. } => vec![*padded_m],
            Self::NpuPipe { chunks, .. } => chunks.clone(),
            Self::SeqCut { npu_chunks, .. } => npu_chunks.clone(),
        }
    }

    /// Rewrite degenerate parallel forms into their canonical serial
    /// equivalents:
    ///
    /// - `SeqCut { gpu_rows: 0 }` assigns nothing to the GPU — it *is*
    ///   an [`PartitionPlan::NpuPipe`] (exact chunks, no padding).
    /// - `RowCut`/`HybridCut` with `gpu_cols: 0` assign every output
    ///   column to the NPU — they *are* [`PartitionPlan::NpuOnly`].
    ///
    /// Canonical forms keep `is_parallel`, sync-cost accounting, and
    /// downstream `match`es honest: a degenerate `RowCut` would
    /// otherwise be charged a rendezvous it never performs.
    pub fn normalize(self) -> Self {
        match self {
            Self::SeqCut {
                npu_chunks,
                gpu_rows: 0,
            } => Self::NpuPipe {
                chunks: npu_chunks,
                padded_rows: 0,
            },
            Self::RowCut {
                gpu_cols: 0,
                padded_m,
            }
            | Self::HybridCut {
                padded_m,
                gpu_cols: 0,
            } => Self::NpuOnly { padded_m },
            other => other,
        }
    }

    /// Whether [`PartitionPlan::normalize`] would rewrite this plan.
    pub fn is_normalized(&self) -> bool {
        !matches!(
            self,
            Self::SeqCut { gpu_rows: 0, .. }
                | Self::RowCut { gpu_cols: 0, .. }
                | Self::HybridCut { gpu_cols: 0, .. }
        )
    }

    /// Shape-conservation violations of this plan against a problem
    /// with `m` activation rows and `n` output features.
    ///
    /// Checks that the split neither drops nor duplicates work:
    /// `Σnpu_chunks + gpu_rows = m` for sequence cuts, `gpu_cols < n`
    /// for row cuts, `padded_m ≥ m` wherever the NPU runs a padded
    /// graph, and `padded_rows` consistent with the chunk sum.
    pub fn conservation_violations(&self, m: usize, n: usize) -> Vec<String> {
        let mut out = Vec::new();
        match self {
            Self::GpuOnly => {}
            Self::NpuOnly { padded_m } => {
                if *padded_m < m {
                    out.push(format!("padded_m {padded_m} < m {m}: rows dropped"));
                }
            }
            Self::NpuPipe {
                chunks,
                padded_rows,
            } => {
                let sum: usize = chunks.iter().sum();
                if m > 0 && chunks.is_empty() {
                    out.push(format!("no chunks cover m {m}"));
                }
                if chunks.contains(&0) {
                    out.push("zero-size chunk".into());
                }
                if sum < m {
                    out.push(format!("chunks cover {sum} < m {m}: rows dropped"));
                }
                if sum >= m && sum - m != *padded_rows {
                    out.push(format!(
                        "padded_rows {padded_rows} inconsistent: chunks cover {sum} for m {m}"
                    ));
                }
            }
            Self::RowCut { gpu_cols, padded_m } | Self::HybridCut { padded_m, gpu_cols } => {
                if *gpu_cols >= n {
                    out.push(format!("gpu_cols {gpu_cols} ≥ n {n}: NPU side empty"));
                }
                if *padded_m < m {
                    out.push(format!("padded_m {padded_m} < m {m}: rows dropped"));
                }
            }
            Self::SeqCut {
                npu_chunks,
                gpu_rows,
            } => {
                let sum: usize = npu_chunks.iter().sum();
                if npu_chunks.contains(&0) {
                    out.push("zero-size chunk".into());
                }
                if sum + gpu_rows != m {
                    out.push(format!(
                        "chunks {sum} + gpu_rows {gpu_rows} ≠ m {m}: rows {}",
                        if sum + gpu_rows < m {
                            "dropped"
                        } else {
                            "duplicated"
                        }
                    ));
                }
            }
        }
        out
    }

    /// Tile-alignment violations against the NPU systolic-array edge
    /// `tile` (§3.2: 32×32; the solver's sequence alignment).
    ///
    /// Every multi-tile sequence size the NPU executes — padded graph
    /// sizes and pipe/seq chunks — must be a whole multiple of `tile`.
    /// Sizes at or below one tile (decode's `m = 1` graphs) are exempt:
    /// the array pads a single partial pass internally.
    pub fn alignment_violations(&self, tile: usize) -> Vec<String> {
        self.npu_sizes()
            .into_iter()
            .filter(|&s| s > tile && s % tile != 0)
            .map(|s| format!("NPU sequence size {s} not a multiple of tile {tile}"))
            .collect()
    }

    /// Graph-membership violations against the sequence lengths that
    /// actually have compiled graphs.
    ///
    /// A static-graph NPU can only run pre-generated graphs (§4.1.1);
    /// referencing an uncompiled length means a multi-hundred-ms
    /// online-prepare stall at execution time.
    pub fn membership_violations(&self, compiled: &[usize]) -> Vec<String> {
        self.npu_sizes()
            .into_iter()
            .filter(|s| !compiled.contains(s))
            .map(|s| format!("no compiled graph for NPU sequence size {s}"))
            .collect()
    }
}

/// A solved plan with its estimated latency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanChoice {
    /// The chosen partition.
    pub plan: PartitionPlan,
    /// The solver's latency estimate under the objective.
    pub est_time: SimTime,
}

/// Activation rows a GPU part computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartRows {
    /// All `m` rows of the problem.
    All,
    /// The sequence cut's GPU margin.
    N(usize),
}

/// Output columns a part computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartCols {
    /// All `n` output features.
    All,
    /// A row cut's GPU share: this many columns.
    Gpu(usize),
    /// A row cut's NPU share: the `n − gpu_cols` columns the GPU
    /// leaves; holds `gpu_cols`.
    Rest(usize),
}

/// One submission of a [`PlanLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPart {
    /// One GPU kernel.
    Gpu {
        /// Rows it computes.
        rows: PartRows,
        /// Columns it computes.
        cols: PartCols,
    },
    /// One NPU graph of a (possibly padded) sequence size.
    NpuGraph {
        /// The graph's sequence size; ≥ the rows it covers.
        rows: usize,
        /// Columns it computes.
        cols: PartCols,
    },
    /// One standard-size NPU chunk over all columns.
    NpuChunk {
        /// The chunk's sequence size.
        rows: usize,
    },
}

impl PlanPart {
    /// The backend the part runs on.
    pub fn backend(self) -> Backend {
        match self {
            Self::Gpu { .. } => Backend::Gpu,
            Self::NpuGraph { .. } | Self::NpuChunk { .. } => Backend::Npu,
        }
    }

    /// The sub-problem the part runs when the plan solves `problem`.
    pub fn shape(self, problem: MatmulShape) -> MatmulShape {
        let n = |cols| match cols {
            PartCols::All => problem.n,
            PartCols::Gpu(c) => c,
            PartCols::Rest(gpu_cols) => problem.n - gpu_cols,
        };
        let (m, n) = match self {
            Self::Gpu {
                rows: PartRows::All,
                cols,
            } => (problem.m, n(cols)),
            Self::Gpu {
                rows: PartRows::N(rows),
                cols,
            }
            | Self::NpuGraph { rows, cols } => (rows, n(cols)),
            Self::NpuChunk { rows } => (rows, problem.n),
        };
        MatmulShape { m, n, ..problem }
    }
}

/// How a plan's parts end (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanJoin {
    /// Nothing: the GPU result is already where its consumer runs.
    None,
    /// A serial handoff of the NPU result to the GPU consumer.
    Switch,
    /// A parallel section's join: both sides' results become visible.
    Rendezvous,
}

/// The submission layout of a [`PartitionPlan`]: the GPU part (if
/// any), then the NPU parts in submission order, then the join.
/// Borrowed from the plan, so reading it allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanLayout<'a> {
    /// The GPU part, submitted first.
    pub gpu: Option<PlanPart>,
    /// The one NPU graph of a graph plan.
    graph: Option<PlanPart>,
    /// The NPU chunk sizes of a chunked plan.
    chunks: &'a [usize],
    /// How the parts end.
    pub join: PlanJoin,
}

impl<'a> PlanLayout<'a> {
    /// The NPU parts, in submission order.
    pub fn npu(&self) -> impl Iterator<Item = PlanPart> + 'a {
        let chunks = self.chunks.iter().map(|&rows| PlanPart::NpuChunk { rows });
        self.graph.into_iter().chain(chunks)
    }

    /// Every part in submission order: the GPU part, then the NPU
    /// parts.
    pub fn parts(&self) -> impl Iterator<Item = PlanPart> + 'a {
        self.gpu.into_iter().chain(self.npu())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_classification() {
        assert!(!PartitionPlan::GpuOnly.is_parallel());
        assert!(!PartitionPlan::NpuOnly { padded_m: 256 }.is_parallel());
        assert!(PartitionPlan::RowCut {
            gpu_cols: 512,
            padded_m: 256
        }
        .is_parallel());
        assert!(PartitionPlan::HybridCut {
            padded_m: 512,
            gpu_cols: 256
        }
        .is_parallel());
        assert!(PartitionPlan::SeqCut {
            npu_chunks: vec![256],
            gpu_rows: 44
        }
        .is_parallel());
        assert!(!PartitionPlan::SeqCut {
            npu_chunks: vec![256, 32],
            gpu_rows: 0
        }
        .is_parallel());
    }

    #[test]
    fn npu_usage() {
        assert!(!PartitionPlan::GpuOnly.uses_npu());
        assert!(PartitionPlan::NpuPipe {
            chunks: vec![32],
            padded_rows: 8
        }
        .uses_npu());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PartitionPlan::GpuOnly.label(), "gpu-only");
        assert_eq!(
            PartitionPlan::RowCut {
                gpu_cols: 1,
                padded_m: 1
            }
            .label(),
            "row-cut"
        );
    }

    #[test]
    fn degenerate_seq_cut_normalizes_to_pipe() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![256, 32],
            gpu_rows: 0,
        };
        assert!(!plan.is_normalized());
        assert_eq!(
            plan.normalize(),
            PartitionPlan::NpuPipe {
                chunks: vec![256, 32],
                padded_rows: 0
            }
        );
    }

    #[test]
    fn degenerate_row_and_hybrid_cut_normalize_to_npu_only() {
        let row = PartitionPlan::RowCut {
            gpu_cols: 0,
            padded_m: 256,
        };
        assert!(!row.is_normalized());
        assert_eq!(row.normalize(), PartitionPlan::NpuOnly { padded_m: 256 });

        let hybrid = PartitionPlan::HybridCut {
            padded_m: 512,
            gpu_cols: 0,
        };
        assert!(!hybrid.is_normalized());
        assert_eq!(hybrid.normalize(), PartitionPlan::NpuOnly { padded_m: 512 });
    }

    #[test]
    fn normalize_keeps_canonical_plans() {
        for plan in [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 256 },
            PartitionPlan::RowCut {
                gpu_cols: 256,
                padded_m: 256,
            },
            PartitionPlan::SeqCut {
                npu_chunks: vec![256],
                gpu_rows: 44,
            },
        ] {
            assert!(plan.is_normalized(), "{plan:?}");
            assert_eq!(plan.clone().normalize(), plan);
        }
    }

    #[test]
    fn conservation_accepts_exact_cover() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![256],
            gpu_rows: 44,
        };
        assert!(plan.conservation_violations(300, 4096).is_empty());
    }

    #[test]
    fn conservation_rejects_dropped_rows() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![256],
            gpu_rows: 20,
        };
        let v = plan.conservation_violations(300, 4096);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("dropped"), "{v:?}");
    }

    #[test]
    fn conservation_rejects_oversized_gpu_cols() {
        let plan = PartitionPlan::RowCut {
            gpu_cols: 4096,
            padded_m: 256,
        };
        assert!(!plan.conservation_violations(256, 4096).is_empty());
    }

    #[test]
    fn alignment_checks_npu_sizes() {
        let good = PartitionPlan::NpuPipe {
            chunks: vec![512, 32],
            padded_rows: 0,
        };
        assert!(good.alignment_violations(32).is_empty());
        let bad = PartitionPlan::NpuOnly { padded_m: 300 };
        assert_eq!(bad.alignment_violations(32).len(), 1);
        // Sub-tile decode graphs (m = 1) are exempt.
        let decode = PartitionPlan::NpuOnly { padded_m: 1 };
        assert!(decode.alignment_violations(32).is_empty());
    }

    #[test]
    fn membership_checks_compiled_sizes() {
        let std = [32, 64, 128, 256, 512, 1024];
        let good = PartitionPlan::SeqCut {
            npu_chunks: vec![512, 32],
            gpu_rows: 56,
        };
        assert!(good.membership_violations(&std).is_empty());
        let bad = PartitionPlan::NpuOnly { padded_m: 96 };
        assert_eq!(bad.membership_violations(&std).len(), 1);
    }

    #[test]
    fn layout_per_variant_and_degenerate_form() {
        use PartCols::{Gpu, Rest};
        use PlanJoin::{Rendezvous, Switch};
        let gpu = |rows, cols| PlanPart::Gpu { rows, cols };
        let graph = |rows, cols| PlanPart::NpuGraph { rows, cols };
        let chunk = |rows| PlanPart::NpuChunk { rows };
        let all = PartCols::All;
        let cases = [
            (
                PartitionPlan::GpuOnly,
                vec![gpu(PartRows::All, all)],
                PlanJoin::None,
            ),
            (
                PartitionPlan::NpuOnly { padded_m: 512 },
                vec![graph(512, all)],
                Switch,
            ),
            (
                PartitionPlan::NpuPipe {
                    chunks: vec![256, 64],
                    padded_rows: 20,
                },
                vec![chunk(256), chunk(64)],
                Switch,
            ),
            (
                PartitionPlan::NpuPipe {
                    chunks: vec![],
                    padded_rows: 0,
                },
                vec![],
                Switch,
            ),
            (
                PartitionPlan::RowCut {
                    gpu_cols: 1024,
                    padded_m: 512,
                },
                vec![gpu(PartRows::All, Gpu(1024)), graph(512, Rest(1024))],
                Rendezvous,
            ),
            (
                PartitionPlan::RowCut {
                    gpu_cols: 0,
                    padded_m: 512,
                },
                vec![gpu(PartRows::All, Gpu(0)), graph(512, Rest(0))],
                Rendezvous,
            ),
            (
                PartitionPlan::HybridCut {
                    padded_m: 512,
                    gpu_cols: 1024,
                },
                vec![gpu(PartRows::All, Gpu(1024)), graph(512, Rest(1024))],
                Rendezvous,
            ),
            (
                PartitionPlan::HybridCut {
                    padded_m: 512,
                    gpu_cols: 0,
                },
                vec![gpu(PartRows::All, Gpu(0)), graph(512, Rest(0))],
                Rendezvous,
            ),
            (
                PartitionPlan::SeqCut {
                    npu_chunks: vec![256, 32],
                    gpu_rows: 12,
                },
                vec![gpu(PartRows::N(12), all), chunk(256), chunk(32)],
                Rendezvous,
            ),
            (
                PartitionPlan::SeqCut {
                    npu_chunks: vec![256, 32],
                    gpu_rows: 0,
                },
                vec![chunk(256), chunk(32)],
                Switch,
            ),
            // One-sided: the join still follows the variant.
            (
                PartitionPlan::SeqCut {
                    npu_chunks: vec![],
                    gpu_rows: 300,
                },
                vec![gpu(PartRows::N(300), all)],
                Rendezvous,
            ),
        ];
        for (plan, parts, join) in cases {
            let layout = plan.layout();
            assert_eq!(layout.parts().collect::<Vec<_>>(), parts, "{plan:?}");
            assert_eq!(layout.join, join, "{plan:?}");
            let gpu_first = parts.first().filter(|p| p.backend() == Backend::Gpu);
            assert_eq!(layout.gpu.as_ref(), gpu_first, "{plan:?}");
            assert!(
                layout.npu().all(|p| p.backend() == Backend::Npu),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn parts_project_onto_the_problem() {
        let problem = MatmulShape::new(300, 4096, 4096);
        for (part, (m, n)) in [
            (
                PlanPart::Gpu {
                    rows: PartRows::All,
                    cols: PartCols::All,
                },
                (300, 4096),
            ),
            (
                PlanPart::Gpu {
                    rows: PartRows::All,
                    cols: PartCols::Gpu(1024),
                },
                (300, 1024),
            ),
            (
                PlanPart::Gpu {
                    rows: PartRows::N(12),
                    cols: PartCols::All,
                },
                (12, 4096),
            ),
            (
                PlanPart::NpuGraph {
                    rows: 512,
                    cols: PartCols::Rest(1024),
                },
                (512, 3072),
            ),
            (PlanPart::NpuChunk { rows: 256 }, (256, 4096)),
        ] {
            assert_eq!(
                part.shape(problem),
                MatmulShape::new(m, 4096, n),
                "{part:?}"
            );
        }
    }

    #[test]
    fn npu_sizes_per_variant() {
        assert!(PartitionPlan::GpuOnly.npu_sizes().is_empty());
        assert_eq!(
            PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 256
            }
            .npu_sizes(),
            vec![512]
        );
        assert_eq!(
            PartitionPlan::NpuPipe {
                chunks: vec![1024, 64],
                padded_rows: 12
            }
            .npu_sizes(),
            vec![1024, 64]
        );
    }
}
