//! Model-checked concurrency suites over the engine's real structures.
//!
//! Every test body runs through `loomlite::model`. In a normal build that
//! is a single smoke execution over plain `std::sync` primitives; under
//! `RUSTFLAGS="--cfg loomlite"` the same closure is re-executed across
//! every bounded interleaving of its lock, channel, and atomic operations
//! (preemption bound 2), and any failing schedule panics with a seed that
//! `loomlite::replay` / `LOOMLITE_REPLAY` reproduces deterministically.
//!
//! The four tentpole invariant suites and where they live:
//!
//! * publish-once wins exactly once — `schemacast-core`,
//!   `pairs::tests::model_publish_once_under_every_interleaving`, two
//!   racing lookups of one pair in a real `CastContext`'s pair table
//!   (the table is crate-private there);
//! * `collect_indexed` loses no item and preserves order —
//!   `pool::tests::model_collect_indexed_loses_nothing_in_any_schedule`
//!   (same reason);
//! * the producer/worker channel neither deadlocks nor drops work on
//!   early termination — here, over the exact pipeline shape
//!   `validate_corpus` builds (bounded `sync_channel`, shared
//!   `Mutex<Receiver>`, scoped workers);
//! * concurrent verdict-cache saves never publish a torn file — here,
//!   against the real [`VerdictCache`].

use schemacast_engine::{CacheEntry, CacheLoad, ItemOutcome, VerdictCache};

/// The corpus pipeline in miniature: one producer feeding a bounded
/// queue, workers pulling through a shared `Mutex<Receiver>` until
/// disconnect. Every schedule must deliver every item exactly once and
/// terminate — a lost wakeup or an unbalanced lock/recv pairing would
/// surface as a deadlock failure from the model scheduler.
#[test]
fn corpus_pipeline_drains_every_item_in_every_schedule() {
    loomlite::model(|| {
        const ITEMS: usize = 3;
        let (tx, rx) = loomlite::sync::mpsc::sync_channel::<usize>(1);
        let rx = loomlite::sync::Mutex::new(rx);
        let mut seen: Vec<usize> = loomlite::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..ITEMS {
                    if tx.send(i).is_err() {
                        break;
                    }
                }
            });
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let rx = &rx;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            let item = match rx.lock() {
                                Ok(guard) => guard.recv(),
                                Err(_) => break,
                            };
                            let Ok(item) = item else { break };
                            got.push(item);
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "an item was lost or duplicated");
    });
}

/// Early termination: one worker stops after at most one item (the hole
/// a dying worker leaves in the pool). The surviving worker must drain
/// the rest and the producer must never wedge on the bounded queue — the
/// union of what both workers saw is still every item exactly once.
#[test]
fn corpus_pipeline_survives_a_worker_quitting_early() {
    loomlite::model(|| {
        const ITEMS: usize = 3;
        let (tx, rx) = loomlite::sync::mpsc::sync_channel::<usize>(1);
        let rx = loomlite::sync::Mutex::new(rx);
        let mut seen: Vec<usize> = loomlite::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..ITEMS {
                    if tx.send(i).is_err() {
                        break;
                    }
                }
            });
            let quitter = {
                let rx = &rx;
                scope.spawn(move || match rx.lock().map(|g| g.recv()) {
                    Ok(Ok(item)) => vec![item],
                    _ => Vec::new(),
                })
            };
            let survivor = {
                let rx = &rx;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let item = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        let Ok(item) = item else { break };
                        got.push(item);
                    }
                    got
                })
            };
            let mut all = quitter.join().unwrap();
            all.extend(survivor.join().unwrap());
            all
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "work was dropped after the quit");
    });
}

/// Two threads save different generations of the same cache to the same
/// path concurrently. Whatever the schedule, the published file must be
/// one *complete* save — it always loads warm, with the entry count of
/// one of the two writers, never a torn or partial mix. This is the
/// invariant the fixed-temp-name bug broke (see
/// `VerdictCache::save`); `unique_tmp_path` restores it.
#[test]
fn concurrent_cache_saves_never_publish_a_torn_file() {
    const FP: u64 = 0x5eed;
    let dir = std::env::temp_dir().join(format!("schemacast-conc-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("verdicts.scvc");

    let entry = |visits: usize| {
        let stats = schemacast_core::ValidationStats {
            nodes_visited: visits,
            ..Default::default()
        };
        CacheEntry::from_outcome(&ItemOutcome::Valid, stats).expect("cacheable")
    };
    loomlite::model(|| {
        let _ = std::fs::remove_file(&path);
        let mut a = VerdictCache::empty(FP, 0);
        a.insert((1, 1), entry(1));
        let mut b = VerdictCache::empty(FP, 0);
        b.insert((2, 2), entry(2));
        b.insert((3, 3), entry(3));
        loomlite::thread::scope(|scope| {
            scope.spawn(|| a.save(&path).expect("save a"));
            scope.spawn(|| b.save(&path).expect("save b"));
        });
        let loaded = VerdictCache::load(&path, FP, 0);
        match loaded.load_status() {
            CacheLoad::Warm { entries } => assert!(
                *entries == 1 || *entries == 2,
                "file is a mix of both saves ({entries} entries)"
            ),
            cold @ CacheLoad::Cold(_) => {
                panic!("torn or unreadable cache after concurrent saves: {cold:?}")
            }
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
