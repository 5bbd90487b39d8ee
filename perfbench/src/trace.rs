//! Host-clock spans and heap counters, recorded from the benchmark's own
//! files around its calls into each crate.
//!
//! Spans live in a thread-local recorder on the driving thread; library
//! worker threads are not traced, their time lands in the span of the
//! call that spawned them. Recording is off unless [`enable`] armed it,
//! so an untraced pass pays one thread-local flag test per span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

static HEAP_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Heap counters are sharded by thread: each of the first `SHARDS - 1`
/// threads that allocate while armed owns a shard and updates it with
/// plain loads and stores, so counting costs no locked instruction and
/// no cache-line contention; later threads share the last shard through
/// atomic read-modify-writes. A span sums the shards in use.
const SHARDS: usize = 128;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicI64,
    peak: AtomicI64,
}

static SHARD: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        live: AtomicI64::new(0),
        peak: AtomicI64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without a destructor, so the allocator can
    // read it at any point of a thread's life without allocating.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard, and whether it owns it alone.
fn shard() -> (&'static Shard, bool) {
    let i = MY_SHARD.with(|c| {
        if c.get() == usize::MAX {
            c.set(NEXT_SHARD.fetch_add(1, Relaxed).min(SHARDS - 1));
        }
        c.get()
    });
    (&SHARD[i], i < SHARDS - 1)
}

fn shards_in_use() -> &'static [Shard] {
    &SHARD[..NEXT_SHARD.load(Relaxed).min(SHARDS)]
}

/// A `System` wrapper that counts allocations, allocated bytes and live
/// heap while [`enable`] has armed it; otherwise it only forwards.
///
/// The counters are statistics that publish no other data, so every
/// access is `Relaxed`. An owned shard is written only by its thread;
/// spans read it from the driving thread, which waits while library
/// worker threads run, so a split load and store loses no update.
pub struct CountingAlloc;

fn add_u64(a: &AtomicU64, v: u64, owned: bool) {
    if owned {
        a.store(a.load(Relaxed) + v, Relaxed);
    } else {
        a.fetch_add(v, Relaxed);
    }
}

fn add_i64(a: &AtomicI64, v: i64, owned: bool) -> i64 {
    if owned {
        let n = a.load(Relaxed) + v;
        a.store(n, Relaxed);
        n
    } else {
        a.fetch_add(v, Relaxed) + v
    }
}

fn note_alloc(size: usize) {
    let (s, owned) = shard();
    add_u64(&s.allocs, 1, owned);
    add_u64(&s.bytes, size as u64, owned);
    let live = add_i64(&s.live, size as i64, owned);
    if owned {
        if live > s.peak.load(Relaxed) {
            s.peak.store(live, Relaxed);
        }
    } else {
        s.peak.fetch_max(live, Relaxed);
    }
}

fn note_free(size: usize) {
    let (s, owned) = shard();
    add_i64(&s.live, -(size as i64), owned);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and a destructor-free thread local, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && HEAP_ACTIVE.load(Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && HEAP_ACTIVE.load(Relaxed) {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if HEAP_ACTIVE.load(Relaxed) {
            note_free(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && HEAP_ACTIVE.load(Relaxed) {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// One recorded span: a call into a crate, timed from the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<public fn>[.<arm>]`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Allocations made inside the span (all threads).
    pub allocs: u64,
    /// Bytes requested inside the span (all threads).
    pub alloc_bytes: u64,
    /// Highest live heap above the level at span start, summed over
    /// threads: exact for a call that allocates on one thread, an upper
    /// bound for one that allocates on several.
    pub peak_heap_bytes: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Open {
    index: usize,
    allocs: u64,
    bytes: u64,
    live: [i64; SHARDS],
    outer_peak: [i64; SHARDS],
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    counts: BTreeMap<&'static str, f64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        counts: BTreeMap::new(),
    });
}

/// Start recording spans and counts, and arm the heap counters.
pub fn enable() {
    REC.with(|r| r.borrow_mut().on = true);
    HEAP_ACTIVE.store(true, Relaxed);
}

/// Stop recording; already recorded data stays until [`take`].
pub fn disable() {
    HEAP_ACTIVE.store(false, Relaxed);
    REC.with(|r| r.borrow_mut().on = false);
}

/// Run `f` inside a span named `name` when recording; otherwise just run it.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let on = REC.with(|r| r.borrow().on);
    if !on {
        return f();
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().map(|o| o.index);
        let index = r.spans.len();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
            alloc_bytes: 0,
            peak_heap_bytes: 0,
        });
        let mut open = Open {
            index,
            allocs: 0,
            bytes: 0,
            live: [0; SHARDS],
            outer_peak: [0; SHARDS],
        };
        for (i, sh) in shards_in_use().iter().enumerate() {
            open.allocs += sh.allocs.load(Relaxed);
            open.bytes += sh.bytes.load(Relaxed);
            open.live[i] = sh.live.load(Relaxed);
            open.outer_peak[i] = sh.peak.swap(open.live[i], Relaxed);
        }
        r.open.push(open);
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        let o = r
            .open
            .pop()
            .expect("span stack holds the span being closed");
        let (mut allocs, mut bytes, mut peak) = (0, 0, 0);
        for (i, sh) in shards_in_use().iter().enumerate() {
            allocs += sh.allocs.load(Relaxed);
            bytes += sh.bytes.load(Relaxed);
            peak += (sh.peak.load(Relaxed) - o.live[i]).max(0) as u64;
            // The enclosing span's peak is the higher of its own so far
            // and this span's.
            sh.peak.fetch_max(o.outer_peak[i], Relaxed);
        }
        let s = &mut r.spans[o.index];
        s.end_ns = end_ns;
        s.allocs = allocs - o.allocs;
        s.alloc_bytes = bytes - o.bytes;
        s.peak_heap_bytes = peak;
    });
    out
}

/// Add `n` to the named counter when recording.
pub fn count(name: &'static str, n: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            *r.counts.entry(name).or_insert(0.0) += n;
        }
    });
}

/// Hand over and clear everything recorded so far.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "take() inside an open span");
        (std::mem::take(&mut r.spans), std::mem::take(&mut r.counts))
    })
}

/// Host nanoseconds covered by `spans`, counted from self time: each
/// span's duration minus what its direct children cover, so nested spans
/// are never counted twice.
pub fn covered_ns(spans: &[Span]) -> u64 {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .sum()
}
