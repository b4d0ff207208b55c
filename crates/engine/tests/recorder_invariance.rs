//! The global `obs` recorder observes and never changes results: a
//! validation report produced with `obs::enable()` equals one produced
//! with the recorder off, once `timings` is zeroed. `Session::profile`
//! does not touch the global recorder, so this is checked on its own.
//! The recorder is process-global, so this binary holds one `#[test]`.

use engine::Session;

fn validation_json() -> String {
    let mut report = Session::new().limit(4).threads(1).run().unwrap();
    report.timings = engine::RunTimings::default();
    report.to_json()
}

#[test]
fn enabling_the_recorder_leaves_the_validation_report_unchanged() {
    obs::disable();
    let disabled = validation_json();
    obs::enable();
    let enabled = validation_json();
    let profile = obs::take();
    obs::disable();
    assert!(!profile.counters.is_empty(), "enabled run recorded nothing");
    assert!(!profile.spans.is_empty(), "enabled run recorded no spans");
    assert_eq!(
        enabled, disabled,
        "enabling the obs recorder changed the validation report"
    );
}
