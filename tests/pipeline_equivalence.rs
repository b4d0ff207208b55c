//! Equivalence suite for the throughput pipeline: the worker count and the
//! persistent result cache must both be *invisible* in the report bytes —
//! they may only change how fast the answer arrives, never the answer.

const ARCH: uarch::Arch = uarch::Arch::GoldenCove;
const BLOCKS: usize = 10;

/// A small volume-corpus session (replicas included past one grid pass
/// would need a bigger volume; 10 blocks keeps the suite quick).
fn session(threads: usize) -> engine::Session {
    engine::Session::new()
        .archs(&[ARCH])
        .volume(BLOCKS)
        .threads(threads)
        .reference(None)
}

/// Report JSON with the wall-clock `timings` block zeroed.
fn normalized(report: &engine::BatchReport) -> String {
    let mut r = report.clone();
    r.timings = Default::default();
    r.to_json()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("incore-pipeline-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn report_is_byte_identical_at_one_and_eight_threads() {
    let one = session(1).run().expect("runs at one thread");
    let eight = session(8).run().expect("runs at eight threads");
    assert_eq!(one.records.len(), BLOCKS);
    assert_eq!(
        normalized(&one),
        normalized(&eight),
        "the report must not depend on thread count"
    );
}

#[test]
fn warm_cache_run_is_byte_identical_to_cold() {
    let dir = temp_dir("warm");
    let cold = session(2).cache_dir(&dir).run().expect("cold runs");
    let warm = session(2).cache_dir(&dir).run().expect("warm runs");
    assert_eq!(
        normalized(&cold),
        normalized(&warm),
        "a disk-replayed run may not change a byte of the report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_cache_entries_fall_back_to_recompute() {
    let dir = temp_dir("damage");
    let cold = session(1).cache_dir(&dir).run().expect("cold runs");
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rec"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3, "cold run persisted the corpus");
    // Truncate one entry mid-payload, scribble over a second, and stamp a
    // third with a stale format version — all three must be treated as
    // misses that recompute (and the stale one must not be trusted).
    let text = std::fs::read_to_string(&entries[0]).expect("entry reads");
    std::fs::write(&entries[0], &text[..text.len() / 2]).expect("truncate");
    std::fs::write(&entries[1], "not a cache entry at all\n").expect("scribble");
    let text = std::fs::read_to_string(&entries[2]).expect("entry reads");
    let stale = text.replacen("incore-diskcache v", "incore-diskcache v999", 1);
    std::fs::write(&entries[2], stale).expect("stale stamp");
    let warm = session(1)
        .cache_dir(&dir)
        .run()
        .expect("damaged entries are misses, not errors");
    assert_eq!(
        normalized(&warm),
        normalized(&cold),
        "recomputed records must replace the damaged entries bit-for-bit"
    );
    // And the recompute healed the cache: a third run replays cleanly.
    let healed = session(1).cache_dir(&dir).run().expect("healed runs");
    assert_eq!(normalized(&healed), normalized(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}
