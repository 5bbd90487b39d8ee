//! Property-based tests of the SoC simulator's invariants.
//!
//! These pin down the *sanity* of the timing models: more work never
//! takes less time, more bandwidth never hurts, the arbiter never
//! over-allocates, and the overlap algebra stays within its bounds.

use hetero_soc::des::EventQueue;
use hetero_soc::gpu::GpuModel;
use hetero_soc::memory::MemorySystem;
use hetero_soc::npu::NpuModel;
use hetero_soc::parallel::overlap;
use hetero_soc::{Backend, KernelDesc, SimTime};
use hetero_tensor::shape::MatmulShape;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn npu_time_monotone_in_k_and_n(
        m in 1usize..2048,
        k in 1usize..8192,
        n in 1usize..2048,
        grow in 1usize..512,
    ) {
        let npu = NpuModel::default();
        let t = |m, k, n| npu
            .matmul_timing(MatmulShape::new(m, k, n), 16, 16, 16, 45.0)
            .total;
        let base = t(m, k, n);
        prop_assert!(t(m, k + grow, n) >= base, "k growth");
        prop_assert!(t(m, k, n + grow) >= base, "n growth");
    }

    #[test]
    fn npu_time_monotone_in_m_within_a_regime(
        m in 1usize..2048,
        k in 1usize..8192,
        n in 1usize..2048,
        grow in 1usize..512,
    ) {
        // Streamed-row growth is monotone *within* a weight-stall
        // regime. Crossing m ≥ k exits the stationary-pressure regime
        // and time can legitimately drop — the kind of shape cliff
        // Fig. 5 documents and the reason the paper profiles the NPU
        // empirically rather than assuming a smooth cost surface.
        let pad = |x: usize| x.div_ceil(32) * 32;
        let same_regime = (pad(k) > pad(m)) == (pad(k) > pad(m + grow));
        prop_assume!(same_regime);
        let npu = NpuModel::default();
        let t = |m| npu
            .matmul_timing(MatmulShape::new(m, k, n), 16, 16, 16, 45.0)
            .total;
        // Within the penalized regime the per-row penalty shrinks as
        // rows amortize the stationary reloads; total time may stay
        // flat but must not *collapse* (bounded by 1 bucket's slack).
        let base = t(m);
        let grown = t(m + grow);
        if pad(k) > pad(m) {
            prop_assert!(
                grown >= base.scale(0.5),
                "penalized regime: {grown} vs {base}"
            );
        } else {
            prop_assert!(grown >= base, "unpenalized regime must be monotone");
        }
    }

    #[test]
    fn npu_stage_buckets_are_flat(
        bucket in 0usize..32,
        a in 1usize..=32,
        b in 1usize..=32,
    ) {
        // Any two m values inside the same 32-bucket cost the same.
        let npu = NpuModel::default();
        let m1 = bucket * 32 + a;
        let m2 = bucket * 32 + b;
        let t1 = npu.matmul_timing(MatmulShape::new(m1, 1024, 1024), 16, 16, 16, 45.0);
        let t2 = npu.matmul_timing(MatmulShape::new(m2, 1024, 1024), 16, 16, 16, 45.0);
        prop_assert_eq!(t1.total, t2.total);
    }

    #[test]
    fn gpu_time_monotone_in_bandwidth(
        m in 1usize..1024,
        n in 1usize..4096,
        bw_lo in 1u32..40,
        bw_delta in 1u32..40,
    ) {
        let gpu = GpuModel::default();
        let kernel = KernelDesc::matmul_w4a16(MatmulShape::new(m, 4096, n));
        let slow = gpu.kernel_time(&kernel, bw_lo as f64);
        let fast = gpu.kernel_time(&kernel, (bw_lo + bw_delta) as f64);
        prop_assert!(fast <= slow);
    }

    #[test]
    fn gpu_effective_tflops_never_exceeds_ceiling(
        m in 1usize..2048,
        k in 1usize..4096,
        n in 1usize..2048,
    ) {
        let gpu = GpuModel::default();
        let kernel = KernelDesc::matmul_f16(MatmulShape::new(m, k, n));
        prop_assert!(gpu.effective_tflops(&kernel, 43.3) <= gpu.achieved_tflops * 1.001);
    }

    #[test]
    fn arbiter_never_overallocates(
        use_cpu in proptest::bool::ANY,
        use_gpu in proptest::bool::ANY,
        use_npu in proptest::bool::ANY,
    ) {
        let mem = MemorySystem::default();
        let mut active = Vec::new();
        if use_cpu { active.push(Backend::Cpu); }
        if use_gpu { active.push(Backend::Gpu); }
        if use_npu { active.push(Backend::Npu); }
        let total: f64 = active.iter().map(|b| mem.concurrent_bw(*b, &active)).sum();
        prop_assert!(total <= mem.soc_peak_gbps + 1e-9);
        for &b in &active {
            let bw = mem.concurrent_bw(b, &active);
            prop_assert!(bw <= mem.solo_bw(b) + 1e-9);
            prop_assert!(bw > 0.0);
        }
        // Concurrency can only help total bandwidth.
        if active.len() >= 2 {
            let solo_max = active.iter().map(|b| mem.solo_bw(*b)).fold(0.0f64, f64::max);
            prop_assert!(total >= solo_max - 1e-9);
        }
    }

    #[test]
    fn overlap_bounds_hold(
        a_cont in 0u64..1_000_000,
        a_solo_frac in 0.1f64..1.0,
        b_cont in 0u64..1_000_000,
        b_solo_frac in 0.1f64..1.0,
    ) {
        let a_cont = SimTime::from_nanos(a_cont);
        let b_cont = SimTime::from_nanos(b_cont);
        let a_solo = a_cont.scale(a_solo_frac);
        let b_solo = b_cont.scale(b_solo_frac);
        let o = overlap(a_cont, a_solo, b_cont, b_solo);
        // Each side finishes no later than fully-contended serial time,
        // and no earlier than its own solo time.
        prop_assert!(o.a_finish <= a_cont);
        prop_assert!(o.b_finish <= b_cont);
        prop_assert!(o.a_finish + SimTime::from_nanos(1) >= a_solo);
        prop_assert!(o.b_finish + SimTime::from_nanos(1) >= b_solo);
        // Makespan at least the larger solo time.
        prop_assert!(o.makespan() + SimTime::from_nanos(1) >= a_solo.max(b_solo));
    }

    /// The event queue is a stable (time, insertion-order) min-queue:
    /// simultaneous events pop in FIFO order, for any schedule.
    #[test]
    fn simultaneous_events_pop_fifo(
        times in proptest::collection::vec(0u64..50, 1..40),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev);
        }
        let mut expect: Vec<(SimTime, usize)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_micros(t), i))
            .collect();
        // A stable sort by time keeps ties in insertion order.
        expect.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(popped, expect);
    }

    /// A rejected `try_schedule` (causality violation) consumes nothing
    /// observable: later events pop in exactly the order of a queue
    /// that never saw the rejected call — including FIFO tie-breaks.
    #[test]
    fn rejected_try_schedule_never_perturbs_ordering(
        pre in proptest::collection::vec(1u64..50, 1..20),
        post in proptest::collection::vec(0u64..50, 1..20),
    ) {
        let mut test = EventQueue::new();
        let mut control = EventQueue::new();
        for (i, &t) in pre.iter().enumerate() {
            test.schedule(SimTime::from_micros(t), i);
            control.schedule(SimTime::from_micros(t), i);
        }
        while control.pop().is_some() {
            prop_assert!(test.pop().is_some());
        }
        // The clock sits at the latest pre event (≥ 1 µs); a strictly
        // earlier event must be rejected — on the test queue only.
        let max_t = *pre.iter().max().unwrap();
        let err = test.try_schedule(SimTime::from_micros(max_t - 1), usize::MAX);
        prop_assert!(err.is_err(), "past event must be rejected");
        for (i, &t) in post.iter().enumerate() {
            let at = test.now() + SimTime::from_micros(t);
            test.try_schedule(at, 1000 + i).expect("future event");
            control.try_schedule(at, 1000 + i).expect("future event");
        }
        while let Some(expected) = control.pop() {
            prop_assert_eq!(test.peek().map(|(at, &e)| (at, e)), Some(expected));
            prop_assert_eq!(test.pop(), Some(expected));
        }
        prop_assert!(test.pop().is_none());
    }

    #[test]
    fn kernel_accounting_nonnegative_and_consistent(
        m in 1usize..512,
        k in 1usize..512,
        n in 1usize..512,
    ) {
        let kernel = KernelDesc::matmul_w4a16(MatmulShape::new(m, k, n));
        prop_assert_eq!(kernel.flops(), 2 * (m * k * n) as u64);
        prop_assert!(kernel.bytes() > 0);
        prop_assert!(kernel.weight_bytes() <= kernel.bytes());
    }

    /// The calendar-queue [`EventQueue`] pops in exactly the order of
    /// the binary-heap min-queue it replaced — a stable
    /// `(time, insertion-order)` key, FIFO ties included — under
    /// hold-model churn: interleaved schedules and pops with
    /// clustered, tied, and far-future offsets, pushing the queue
    /// through calendar growth and the sparse-tail fallback.
    #[test]
    fn calendar_queue_matches_binary_heap_oracle(
        ops in proptest::collection::vec(
            // (number of schedules before the next pop, offsets drawn
            // from a mix of tight clusters, exact ties, and a sparse
            // far tail)
            (0usize..6, proptest::collection::vec(
                prop_oneof![
                    Just(0u64),                 // exact FIFO tie at `now`
                    1u64..20,                   // tight cluster
                    1_000u64..100_000,          // mid-range
                    50_000_000u64..60_000_000,  // sparse far tail
                ],
                0..6,
            )),
            1..60,
        ),
    ) {
        let mut cal = EventQueue::new();
        let mut oracle = BinaryHeapOracle::new();
        let mut id = 0usize;
        for (pops_before, offsets) in &ops {
            for &off in offsets {
                let at = cal.now() + SimTime::from_nanos(off);
                cal.schedule(at, id);
                oracle.schedule(at, id);
                id += 1;
            }
            for _ in 0..*pops_before {
                let expect = oracle.pop();
                prop_assert_eq!(cal.peek().map(|(at, &e)| (at, e)), expect);
                prop_assert_eq!(cal.pop(), expect);
                prop_assert_eq!(cal.len(), oracle.len());
            }
        }
        while let Some(expect) = oracle.pop() {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert!(cal.pop().is_none());
        prop_assert!(cal.is_empty());
    }
}

/// The pre-calendar implementation, verbatim in miniature: a binary
/// min-heap on `(time, sequence)`. The calendar queue must be
/// observably indistinguishable from it.
struct BinaryHeapOracle {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
}

impl BinaryHeapOracle {
    fn new() -> Self {
        Self {
            heap: std::collections::BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: usize) {
        self.heap
            .push(std::cmp::Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        self.heap
            .pop()
            .map(|std::cmp::Reverse((at, _, payload))| (at, payload))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}
