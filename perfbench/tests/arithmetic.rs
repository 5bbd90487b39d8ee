//! The arithmetic behind the reported numbers.

use perfbench::report::Traced;
use perfbench::stats::{claim_err_pct, fail_ratio, median, Claim};
use perfbench::trace::{covered_ns, Span};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
fn claim_error_is_the_median_relative_error_in_percent() {
    let claims = [
        Claim {
            paper: 100.0,
            measured: 110.0,
        }, // 10%
        Claim {
            paper: 2.0,
            measured: 1.0,
        }, // 50%
        Claim {
            paper: 4.0,
            measured: 4.2,
        }, // 5%
    ];
    assert!((claim_err_pct(&claims) - 10.0).abs() < 1e-9);
    // Over- and under-shooting count alike.
    let two = [
        Claim {
            paper: 10.0,
            measured: 8.0,
        },
        Claim {
            paper: 10.0,
            measured: 12.0,
        },
    ];
    assert!((claim_err_pct(&two) - 20.0).abs() < 1e-9);
}

#[test]
fn a_claim_that_could_not_be_computed_counts_as_fully_off() {
    let claims = [
        Claim {
            paper: 1.0,
            measured: f64::NAN,
        },
        Claim {
            paper: 1.0,
            measured: f64::NAN,
        },
        Claim {
            paper: 1.0,
            measured: 1.0,
        },
    ];
    assert_eq!(claim_err_pct(&claims), 100.0);
}

#[test]
fn fail_ratio_is_never_zero_and_one_failure_at_least_doubles_it() {
    let clean = fail_ratio(0, 13);
    assert!(clean > 0.0);
    assert!(fail_ratio(1, 13) >= 2.0 * clean);
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "x",
        parent,
        start_ns,
        end_ns,
        allocs: 0,
        alloc_bytes: 0,
        peak_heap_bytes: 0,
    }
}

#[test]
fn coverage_counts_self_time_not_the_sum_of_nested_spans() {
    // outer [0, 100) holds [10, 60), which holds [20, 30); then a
    // sibling [120, 150). Summing durations would give 100+50+10+30.
    let spans = [
        span(None, 0, 100),
        span(Some(0), 10, 60),
        span(Some(1), 20, 30),
        span(None, 120, 150),
    ];
    assert_eq!(covered_ns(&spans), 130);

    let traced = Traced {
        passes: vec![spans.to_vec()],
        walls: vec![200e-9],
        ..Traced::default()
    };
    assert!((traced.coverage_pct() - 65.0).abs() < 1e-9);
}
