//! Cross-backend synchronization cost models (§3.1 GPU-② and §4.2).
//!
//! Two mechanisms are modelled:
//!
//! - [`SyncMechanism::Driver`] — the stock OpenCL/QNN path: activation
//!   handoff requires a mapped-buffer transfer (≈400 µs fixed) and, once
//!   the GPU queue drains at the sync point, re-submission costs another
//!   50–100 µs.
//! - [`SyncMechanism::Fast`] — HeteroLLM's fast synchronization: tensors
//!   live in a shared host/device memory pool (no copy), and a CPU
//!   thread sleeps for the predicted kernel time then polls a flag bit
//!   for a few microseconds.
//!
//! The asymmetry between the NPU-dominant prefill (GPU submission is
//! delayed until NPU completion, paying a small submit cost) and the
//! GPU-dominant decode (queue order guarantees ordering, no extra
//! submit) follows Fig. 11.

use serde::{Deserialize, Serialize};

use crate::calib;
use crate::time::SimTime;

/// Which synchronization mechanism an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncMechanism {
    /// Stock driver events + buffer copies.
    Driver,
    /// HeteroLLM fast synchronization (shared memory + flag polling).
    Fast,
}

impl SyncMechanism {
    /// Stable display name (`"driver"` / `"fast"`), used by CLI flags
    /// and race-detector diagnostics.
    pub const fn name(self) -> &'static str {
        match self {
            Self::Driver => "driver",
            Self::Fast => "fast",
        }
    }
}

impl std::str::FromStr for SyncMechanism {
    type Err = String;

    /// Parse a [`SyncMechanism::name`] (`"fast"` / `"driver"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fast" => Ok(Self::Fast),
            "driver" => Ok(Self::Driver),
            other => Err(format!("unknown sync mechanism '{other}'")),
        }
    }
}

/// Which backend dominates the parallel section (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dominance {
    /// Prefill: NPU-dominant, GPU work hidden inside NPU execution.
    NpuDominant,
    /// Decode: GPU-dominant, NPU work hidden inside GPU execution.
    GpuDominant,
}

/// Synchronization cost model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncModel {
    /// Mechanism in use.
    pub mechanism: SyncMechanism,
    /// Mapped-buffer transfer cost, µs (fixed, size-independent).
    pub map_copy_us: f64,
    /// Empty-queue kernel re-submission penalty, µs.
    pub queue_restart_us: f64,
    /// Pipelined submission cost, µs.
    pub submit_us: f64,
    /// Flag-poll cost, µs.
    pub poll_us: f64,
}

impl SyncModel {
    /// Model with the given mechanism and paper-calibrated constants.
    pub fn new(mechanism: SyncMechanism) -> Self {
        Self {
            mechanism,
            map_copy_us: calib::GPU_MAP_COPY_US,
            queue_restart_us: calib::GPU_QUEUE_RESTART_US,
            submit_us: calib::GPU_SUBMIT_US,
            poll_us: calib::FASTSYNC_POLL_US,
        }
    }

    /// Cost of one GPU↔NPU rendezvous (both sides' results visible,
    /// next kernels launched) in a parallel section with the given
    /// dominance.
    pub fn rendezvous(&self, dominance: Dominance) -> SimTime {
        match self.mechanism {
            SyncMechanism::Driver => {
                // Stage the partitioned input into the other device's
                // buffer, copy the partial result back for the merge,
                // and restart the drained GPU queue.
                SimTime::from_secs_f64((2.0 * self.map_copy_us + self.queue_restart_us) * 1e-6)
            }
            SyncMechanism::Fast => match dominance {
                // Prefill: the next GPU kernel is submitted only after
                // the NPU finishes — poll + one pipelined submission.
                Dominance::NpuDominant => {
                    SimTime::from_secs_f64((self.poll_us + self.submit_us) * 1e-6)
                }
                // Decode: the GPU queue stays primed; ordering is free.
                Dominance::GpuDominant => SimTime::from_secs_f64(self.poll_us * 1e-6),
            },
        }
    }

    /// Cost of handing a tensor produced by one backend to a kernel on
    /// another *without* a parallel section (layer-level heterogeneous
    /// execution's backend switch).
    pub fn backend_switch(&self) -> SimTime {
        match self.mechanism {
            SyncMechanism::Driver => {
                SimTime::from_secs_f64((self.map_copy_us + self.queue_restart_us) * 1e-6)
            }
            SyncMechanism::Fast => {
                // Shared memory pool: poll + submit only.
                SimTime::from_secs_f64((self.poll_us + self.submit_us) * 1e-6)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_sync_costs_hundreds_of_micros() {
        let m = SyncModel::new(SyncMechanism::Driver);
        let c = m.rendezvous(Dominance::NpuDominant);
        assert!((800.0..1000.0).contains(&c.as_micros_f64()), "{c}");
        assert_eq!(m.rendezvous(Dominance::GpuDominant), c);
        // A serial backend switch stages one buffer, not two.
        let switch = m.backend_switch();
        assert!((400.0..600.0).contains(&switch.as_micros_f64()), "{switch}");
    }

    #[test]
    fn fast_sync_is_microsecond_scale() {
        let m = SyncModel::new(SyncMechanism::Fast);
        let prefill = m.rendezvous(Dominance::NpuDominant);
        let decode = m.rendezvous(Dominance::GpuDominant);
        assert!(prefill.as_micros_f64() < 25.0, "{prefill}");
        assert!(decode.as_micros_f64() < 5.0, "{decode}");
        // Decode avoids the submission cost entirely (queue priming).
        assert!(decode < prefill);
    }

    #[test]
    fn fast_sync_orders_of_magnitude_cheaper() {
        let fast = SyncModel::new(SyncMechanism::Fast).rendezvous(Dominance::GpuDominant);
        let slow = SyncModel::new(SyncMechanism::Driver).rendezvous(Dominance::GpuDominant);
        assert!(slow.as_nanos() / fast.as_nanos().max(1) > 50);
    }
}
