//! Anti-vacuity: prove the model checker actually *finds* concurrency
//! bugs in these structures, not just that the real code passes.
//!
//! Each test seeds a known bug into a mutated copy of a real workspace
//! structure — the pair table's publish-once slot, the pool's claim
//! counter, the pipeline's ready-gate — and asserts that loomlite (a) detects it,
//! (b) prints a schedule seed, and (c) deterministically reproduces the
//! same failure when that seed is replayed. If a refactor ever blinds
//! the checker (a shim op that stops yielding, a scheduler that stops
//! exploring), these tests go red before the real suites go vacuous.
//!
//! Compiled only under `RUSTFLAGS="--cfg loomlite"`: in a normal build
//! `loomlite::model` runs a single schedule, which has no obligation to
//! hit a seeded race.
#![cfg(loomlite)]

use loomlite::sync::atomic::{AtomicUsize, Ordering};
use loomlite::sync::{Arc, Condvar, Mutex};
use loomlite::thread;

/// Runs `f` under the model checker expecting a failure containing
/// `needle`, extracts the printed schedule seed, and replays it —
/// asserting the replay reproduces the same failure deterministically.
fn expect_found_and_replayable<F>(f: F, needle: &str)
where
    F: Fn() + Copy + std::panic::RefUnwindSafe + 'static,
{
    let err = std::panic::catch_unwind(|| loomlite::model(f))
        .expect_err("the model checker missed the seeded bug (vacuous suite!)");
    let msg = panic_text(err.as_ref());
    assert!(
        msg.contains(needle),
        "model failed for the wrong reason: {msg}"
    );
    let seed = loomlite::seed_from_failure(&msg)
        .unwrap_or_else(|| panic!("no replayable seed in failure: {msg}"));
    let err = std::panic::catch_unwind(|| loomlite::replay(&seed, f))
        .expect_err("the recorded seed did not reproduce the failure");
    let msg = panic_text(err.as_ref());
    assert!(
        msg.contains(needle),
        "replay failed for a different reason: {msg}"
    );
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string panic payload>")
    }
}

/// The pair table's publish-once slot (`schemacast-core`'s
/// `pairs::publish` over a `OnceLock`) with the cell's `set` mutated to
/// overwrite: the last writer wins instead of the first publication —
/// the exact bug `OnceLock::set` rules out. Two racing builders can now
/// both publish, and callers observe two different values for one slot.
struct LastWriterWinsSlot {
    cell: Mutex<Option<Arc<usize>>>,
}

impl LastWriterWinsSlot {
    fn get(&self) -> Option<Arc<usize>> {
        self.cell.lock().unwrap().clone()
    }

    /// Seeded bug: replaces a published value instead of handing the
    /// new one back.
    fn set(&self, value: Arc<usize>) {
        *self.cell.lock().unwrap() = Some(value);
    }

    /// `pairs::publish`, line for line.
    fn publish(&self, build: impl FnOnce() -> Arc<usize>) -> Arc<usize> {
        let mut build = Some(build);
        loop {
            if let Some(published) = self.get() {
                return published;
            }
            if let Some(build) = build.take() {
                self.set(build());
            }
        }
    }
}

#[test]
fn finds_double_publish_in_mutated_slot() {
    expect_found_and_replayable(
        || {
            let slot = LastWriterWinsSlot {
                cell: Mutex::new(None),
            };
            let published: Vec<Arc<usize>> = thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|id| {
                        let slot = &slot;
                        s.spawn(move || slot.publish(move || Arc::new(id)))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(
                Arc::ptr_eq(&published[0], &published[1]),
                "two values observable for one slot"
            );
        },
        "two values observable",
    );
}

/// The pool's claim counter with its `fetch_add` torn into a separate
/// load and store — the lost-update mutation. Two workers can claim the
/// same index, so some index is produced twice and another never.
#[test]
fn finds_lost_update_in_mutated_claim_counter() {
    expect_found_and_replayable(
        || {
            const N: usize = 2;
            let next = AtomicUsize::new(0);
            let parts: Vec<Vec<usize>> = thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let next = &next;
                        s.spawn(move || {
                            let mut claimed = Vec::new();
                            loop {
                                // Seeded bug: non-atomic claim (the real
                                // pool uses one fetch_add RMW).
                                let i = next.load(Ordering::SeqCst);
                                if i >= N {
                                    break;
                                }
                                next.store(i + 1, Ordering::SeqCst);
                                claimed.push(i);
                            }
                            claimed
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut seen = vec![0usize; N];
            for i in parts.into_iter().flatten() {
                seen[i] += 1;
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "an index was lost or claimed twice: {seen:?}"
            );
        },
        "lost or claimed twice",
    );
}

/// The pipeline's ready-gate with the predicate check moved outside the
/// condvar's mutex: the producer's notify can land in the gap between
/// the worker's check and its wait, and the wait never wakes. The model
/// scheduler reports this as a deadlock.
#[test]
fn finds_lost_wakeup_in_mutated_ready_gate() {
    expect_found_and_replayable(
        || {
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let worker = {
                let gate = Arc::clone(&gate);
                thread::spawn(move || {
                    let (ready, cv) = &*gate;
                    // Seeded bug: check, drop the lock, then re-lock to
                    // wait. The real pattern holds one guard across the
                    // `while !*ready` loop.
                    if !*ready.lock().unwrap() {
                        let guard = ready.lock().unwrap();
                        let _unused = cv.wait(guard).unwrap();
                    }
                })
            };
            {
                let (ready, cv) = &*gate;
                *ready.lock().unwrap() = true;
                cv.notify_all();
            }
            worker.join().unwrap();
        },
        "deadlock",
    );
}
