//! A corrupted log or digest counts as a failed operation.

use perfbench::check::Checks;
use perfbench::fleet::{check_arms, Fleet};
use perfbench::stats::Digest;

#[test]
fn a_changed_digest_is_a_failed_check() {
    let mut a = Digest::default();
    a.str("pass output");
    let mut b = Digest::default();
    b.str("pass outpuT");
    let mut checks = Checks::default();
    assert!(checks.digest(a.value(), a.value()));
    assert!(!checks.digest(a.value(), b.value()));
    assert_eq!((checks.attempted(), checks.failed()), (2, 1));
    assert_eq!(checks.failed_names(), ["digest.stable"]);
}

#[test]
fn a_corrupted_decoded_log_is_a_failed_check() {
    let fleet = Fleet::new(3, 16, 400, false, 1);
    let mut out = fleet.run();
    let mut clean = Checks::default();
    check_arms(&out, &mut clean);
    assert!(!clean.failed_names().contains(&"fleet.json_round_trip"));

    out.back
        .as_mut()
        .expect("the log decodes")
        .robust
        .events
        .pop();
    let mut corrupted = Checks::default();
    check_arms(&out, &mut corrupted);
    assert!(corrupted.failed_names().contains(&"fleet.json_round_trip"));
    assert_eq!(corrupted.failed(), clean.failed() + 1);

    // A log that no longer parses is a failed check too.
    out.back = Err("truncated".into());
    let mut unparsed = Checks::default();
    check_arms(&out, &mut unparsed);
    assert!(unparsed.failed_names().contains(&"fleet.json_round_trip"));
}
