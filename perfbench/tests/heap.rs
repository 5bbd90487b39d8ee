//! Spans nest, and the counting allocator attributes heap use to them.
//! One test in its own binary: the allocator's arming is process-wide.

use perfbench::trace::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn spans_record_parents_and_heap_use() {
    let untraced = trace::span("outside", || 1);
    assert_eq!(untraced, 1);
    trace::enable();
    let n = trace::span("outer", || {
        let kept = trace::span("inner", || vec![7u8; 4096]);
        let freed = vec![0u8; 1 << 20];
        drop(freed);
        kept.len()
    });
    trace::disable();
    let (spans, _) = trace::take();
    assert_eq!(n, 4096);
    assert_eq!(spans.len(), 2, "nothing recorded while disabled");
    let (outer, inner) = (&spans[0], &spans[1]);
    assert_eq!((outer.name, outer.parent), ("outer", None));
    assert_eq!((inner.name, inner.parent), ("inner", Some(0)));
    assert!(inner.allocs >= 1 && inner.alloc_bytes >= 4096);
    assert!(inner.peak_heap_bytes >= 4096);
    assert!(outer.allocs > inner.allocs);
    assert!(outer.peak_heap_bytes >= 4096 + (1 << 20));
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
}
