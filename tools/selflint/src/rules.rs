//! The selflint rule registry.
//!
//! Every rule has a stable `SL`-prefixed id (for baselines, CI
//! annotations, and the JSON report), a short name, and a checker that
//! runs over the lexed workspace. Rules see token-level channels — code
//! with literals blanked, comment text, test-region flags — so none of
//! them can be fooled by a string literal or fire inside `#[cfg(test)]`.
//!
//! | id     | name               | invariant |
//! |--------|--------------------|-----------|
//! | SL0001 | panic-ratchet      | unwrap/expect in library code may only shrink |
//! | SL0002 | hot-path-collections | no `HashMap`/`HashSet` in streaming hot-path modules or the relation-fixpoint kernels |
//! | SL0003 | unsafe-gate        | every crate root carries `#![deny(unsafe_code)]` |
//! | SL0004 | std-sync-ban       | shim-migrated crates use `loomlite::{sync,thread}`, never `std::{sync,thread}` |
//! | SL0005 | ordering-justify   | every non-SeqCst atomic ordering carries a nearby `// ordering:` comment |
//! | SL0006 | guard-across-io    | no lock guard held across file I/O |

use crate::lexer::SourceFile;
use std::collections::BTreeMap;

/// File names (anywhere under `crates/*/src`) whose bodies may not name
/// a hashed collection: SipHash per lookup is exactly the per-event cost
/// the streaming hot path exists to avoid, and the per-type-pair walks of
/// the `R_sub`/`R_nondis` fixpoints (`checks.rs`, `relations.rs`) keep
/// their visited sets and indexes dense for the same reason.
const HOT_PATH_FILES: &[&str] = &[
    "stream.rs",
    "hot.rs",
    "index.rs",
    "checks.rs",
    "relations.rs",
];

/// The hashed collections SL0002 bans from [`HOT_PATH_FILES`].
const HASHED_COLLECTIONS: &[&str] = &["HashMap", "HashSet"];

/// Crates migrated onto the loomlite concurrency shim. Library code here
/// must import `loomlite::sync` / `loomlite::thread`, so the model
/// checker sees every lock, channel, and atomic; a direct `std::sync`
/// use is invisible to it.
const SHIM_CRATES: &[&str] = &["crates/core/", "crates/engine/"];

/// Non-SeqCst orderings that demand a written justification.
const WEAK_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

/// How many lines above a weak-ordering use the `// ordering:`
/// justification may sit.
const ORDERING_COMMENT_WINDOW: usize = 6;

/// Calls that perform file I/O, for the guard-across-io rule.
const IO_MARKERS: &[&str] = &[
    "std::fs::",
    "fs::read",
    "fs::write",
    "fs::rename",
    "fs::remove_file",
    "fs::create_dir",
    "File::open",
    "File::create",
    ".read_to_end(",
    ".read_to_string(",
    ".write_all(",
    ".sync_all(",
    "read_dir(",
];

/// One finding.
#[derive(Debug)]
pub struct Violation {
    /// Stable rule id (`SL0001`…).
    pub rule: &'static str,
    /// Short rule name.
    pub name: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Everything a rule may look at.
pub struct Workspace<'a> {
    /// All lexed library sources.
    pub files: &'a [SourceFile],
    /// The grandfathered panic-site counts (rule SL0001).
    pub baseline: &'a BTreeMap<String, usize>,
}

/// A registered rule.
pub struct Rule {
    /// Stable id, `SL`-prefixed.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// The checker.
    pub check: fn(&Rule, &Workspace, &mut Vec<Violation>),
}

impl Rule {
    fn emit(&self, out: &mut Vec<Violation>, file: &str, line: usize, message: String) {
        out.push(Violation {
            rule: self.id,
            name: self.name,
            file: file.to_string(),
            line,
            message,
        });
    }
}

/// The registry, in id order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "SL0001",
        name: "panic-ratchet",
        check: panic_ratchet,
    },
    Rule {
        id: "SL0002",
        name: "hot-path-collections",
        check: hot_path_collections,
    },
    Rule {
        id: "SL0003",
        name: "unsafe-gate",
        check: unsafe_gate,
    },
    Rule {
        id: "SL0004",
        name: "std-sync-ban",
        check: std_sync_ban,
    },
    Rule {
        id: "SL0005",
        name: "ordering-justify",
        check: ordering_justify,
    },
    Rule {
        id: "SL0006",
        name: "guard-across-io",
        check: guard_across_io,
    },
];

/// Runs every registered rule.
pub fn run_all(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in RULES {
        (rule.check)(rule, ws, &mut out);
    }
    out
}

/// Panic sites (`.unwrap()` / `.expect(`) per file in non-test library
/// code. Shared by the ratchet rule and `--write-baseline`.
pub fn panic_counts(files: &[SourceFile]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for file in files {
        let n: usize = file
            .library_code()
            .map(|(_, code)| code.matches(".unwrap()").count() + code.matches(".expect(").count())
            .sum();
        if n > 0 {
            counts.insert(file.rel.clone(), n);
        }
    }
    counts
}

fn panic_ratchet(rule: &Rule, ws: &Workspace, out: &mut Vec<Violation>) {
    for (file, n) in panic_counts(ws.files) {
        let allowed = ws.baseline.get(&file).copied().unwrap_or(0);
        if n > allowed {
            rule.emit(
                out,
                &file,
                0,
                format!(
                    "{n} unwrap/expect site(s) in non-test library code, baseline allows \
                     {allowed} — handle the error or push the panic into #[cfg(test)]"
                ),
            );
        }
    }
}

fn hot_path_collections(rule: &Rule, ws: &Workspace, out: &mut Vec<Violation>) {
    for file in ws.files {
        let hot = file
            .rel
            .rsplit('/')
            .next()
            .is_some_and(|n| HOT_PATH_FILES.contains(&n));
        if !hot {
            continue;
        }
        for (line, code) in file.library_code() {
            if let Some(name) = HASHED_COLLECTIONS.iter().find(|n| code.contains(*n)) {
                rule.emit(
                    out,
                    &file.rel,
                    line,
                    format!("{name} in a hot-path module — use an interned-symbol dense table"),
                );
            }
        }
    }
}

fn unsafe_gate(rule: &Rule, ws: &Workspace, out: &mut Vec<Violation>) {
    for file in ws.files {
        if !file.is_crate_root {
            continue;
        }
        let gated = file
            .lines
            .iter()
            .any(|l| l.code.contains("#![deny(unsafe_code)]"));
        if !gated {
            rule.emit(
                out,
                &file.rel,
                0,
                "crate root is missing #![deny(unsafe_code)]".into(),
            );
        }
    }
}

fn std_sync_ban(rule: &Rule, ws: &Workspace, out: &mut Vec<Violation>) {
    for file in ws.files {
        if !SHIM_CRATES.iter().any(|p| file.rel.starts_with(p)) {
            continue;
        }
        for (line, code) in file.library_code() {
            for banned in ["std::sync", "std::thread"] {
                if code.contains(banned) {
                    rule.emit(
                        out,
                        &file.rel,
                        line,
                        format!(
                            "direct `{banned}` in a shim-migrated crate — use the loomlite \
                             facade (`loomlite::sync` / `loomlite::thread`) so the model \
                             checker sees this operation"
                        ),
                    );
                }
            }
        }
    }
}

fn ordering_justify(rule: &Rule, ws: &Workspace, out: &mut Vec<Violation>) {
    for file in ws.files {
        for (line, code) in file.library_code() {
            let weak = WEAK_ORDERINGS.iter().find(|o| code.contains(*o));
            let Some(weak) = weak else { continue };
            let idx = line - 1;
            let from = idx.saturating_sub(ORDERING_COMMENT_WINDOW);
            let justified = file.lines[from..=idx]
                .iter()
                .any(|l| l.comment.contains("ordering:"));
            if !justified {
                rule.emit(
                    out,
                    &file.rel,
                    line,
                    format!(
                        "{weak} without a nearby `// ordering:` justification — say why \
                         this weak ordering is sound (or use SeqCst)"
                    ),
                );
            }
        }
    }
}

/// A `let`-bound lock guard that is still live.
struct Guard {
    ident: String,
    /// Brace depth at the start of the binding line; the guard dies when
    /// a later line *starts* below this depth.
    depth: i64,
}

fn guard_across_io(rule: &Rule, ws: &Workspace, out: &mut Vec<Violation>) {
    for file in ws.files {
        let mut depth: i64 = 0;
        let mut guards: Vec<Guard> = Vec::new();
        for (i, l) in file.lines.iter().enumerate() {
            let start_depth = depth;
            for b in l.code.bytes() {
                match b {
                    b'{' => depth += 1,
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            if l.in_test {
                continue;
            }
            guards.retain(|g| start_depth >= g.depth);
            let code = l.code.as_str();
            if !guards.is_empty() {
                if let Some(marker) = IO_MARKERS.iter().find(|m| code.contains(*m)) {
                    let held: Vec<&str> = guards.iter().map(|g| g.ident.as_str()).collect();
                    rule.emit(
                        out,
                        &file.rel,
                        i + 1,
                        format!(
                            "file I/O (`{marker}`) while lock guard(s) `{}` are held — \
                             drop the guard first or move the I/O out of the critical \
                             section",
                            held.join("`, `")
                        ),
                    );
                }
                guards.retain(|g| !code.contains(&format!("drop({})", g.ident)));
            }
            if code.contains(".lock(") {
                if let Some(ident) = let_bound_ident(code) {
                    guards.push(Guard {
                        ident,
                        depth: start_depth,
                    });
                }
            }
        }
    }
}

/// The identifier bound by a `let <ident> = … .lock(…)` line, if the
/// line is such a binding. `match`/`if let` scrutinees are not bindings
/// of the guard itself (the guard dies inside the arm), so they are
/// skipped.
fn let_bound_ident(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    // `let Ok(g) = …` / `let (a, b) = …` destructure the guard away or
    // rebind through a pattern; treat only plain identifiers as guards.
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return None;
    }
    // The `.lock(` must be on the right-hand side of *this* binding, and
    // not inside a `match`/`if` scrutinee (those guards die in the arm).
    let eq = rest.find('=')?;
    let rhs = rest[eq + 1..].trim_start();
    if rhs.starts_with("match ") || rhs.starts_with("if ") {
        return None;
    }
    rhs.contains(".lock(").then_some(ident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ws_run(files: &[SourceFile]) -> Vec<Violation> {
        let baseline = BTreeMap::new();
        run_all(&Workspace {
            files,
            baseline: &baseline,
        })
    }

    fn ids(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    /// A library file every rule accepts.
    fn clean_file() -> SourceFile {
        lex(
            "crates/core/src/ok.rs",
            false,
            "use loomlite::sync::Mutex;\n\
             // ordering: Relaxed is fine here, the counter is advisory.\n\
             fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }\n\
             #[cfg(test)]\n\
             mod tests { use std::sync::Barrier; fn t(x: Option<u8>) { x.unwrap(); } }\n",
        )
    }

    #[test]
    fn clean_fixture_passes_every_rule() {
        assert!(ids(&ws_run(&[clean_file()])).is_empty());
    }

    #[test]
    fn sl0001_fires_on_unbaselined_unwrap_and_respects_baseline() {
        let f = lex(
            "crates/core/src/x.rs",
            false,
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        let v = ws_run(std::slice::from_ref(&f));
        assert_eq!(ids(&v), ["SL0001"]);

        let mut baseline = BTreeMap::new();
        baseline.insert("crates/core/src/x.rs".to_string(), 1);
        let v = run_all(&Workspace {
            files: std::slice::from_ref(&f),
            baseline: &baseline,
        });
        assert!(v.is_empty(), "grandfathered site still fired");
    }

    #[test]
    fn sl0001_ignores_strings_comments_and_tests() {
        let f = lex(
            "crates/core/src/x.rs",
            false,
            "// .unwrap() in a comment\n\
             const S: &str = \".unwrap()\";\n\
             #[cfg(test)]\n\
             mod tests { fn t(x: Option<u8>) { x.unwrap(); } }\n",
        );
        assert!(ids(&ws_run(&[f])).is_empty());
    }

    #[test]
    fn sl0002_fires_only_in_hot_path_files() {
        for path in [
            "crates/core/src/stream.rs",
            "crates/automata/src/checks.rs",
            "crates/core/src/relations.rs",
        ] {
            for collection in ["HashMap", "HashSet"] {
                let hot = lex(
                    path,
                    false,
                    &format!("use std::collections::{collection};\n"),
                );
                let v = ws_run(&[hot]);
                assert!(ids(&v).contains(&"SL0002"), "{collection} in {path}");
            }
        }

        for collection in ["HashMap", "HashSet"] {
            let cold = lex(
                "crates/schema/src/types.rs",
                false,
                &format!("use std::collections::{collection};\n"),
            );
            assert!(!ids(&ws_run(&[cold])).contains(&"SL0002"));
        }
    }

    #[test]
    fn sl0003_fires_on_ungated_crate_root() {
        let bad = lex("crates/core/src/lib.rs", true, "pub mod x;\n");
        assert!(ids(&ws_run(&[bad])).contains(&"SL0003"));
        let good = lex(
            "crates/core/src/lib.rs",
            true,
            "#![deny(unsafe_code)]\npub mod x;\n",
        );
        assert!(!ids(&ws_run(&[good])).contains(&"SL0003"));
    }

    #[test]
    fn sl0004_bans_std_sync_in_shim_crates_only() {
        let bad = lex(
            "crates/engine/src/x.rs",
            false,
            "use std::sync::Mutex;\nuse std::thread;\n",
        );
        let v = ws_run(&[bad]);
        assert_eq!(
            ids(&v).iter().filter(|id| **id == "SL0004").count(),
            2,
            "both the sync and the thread import must fire"
        );

        // Unmigrated crates may still use std directly.
        let other = lex("crates/regex/src/x.rs", false, "use std::sync::Mutex;\n");
        assert!(!ids(&ws_run(&[other])).contains(&"SL0004"));
        // Test code inside a shim crate is exempt.
        let test_only = lex(
            "crates/engine/src/x.rs",
            false,
            "#[cfg(test)]\nmod tests { use std::sync::Barrier; }\n",
        );
        assert!(!ids(&ws_run(&[test_only])).contains(&"SL0004"));
        // Doc comments naming std::thread are prose, not imports.
        let doc = lex(
            "crates/engine/src/x.rs",
            false,
            "//! Built on [`std::thread::scope`] semantics.\n",
        );
        assert!(!ids(&ws_run(&[doc])).contains(&"SL0004"));
    }

    #[test]
    fn sl0005_requires_a_nearby_ordering_comment() {
        let bad = lex(
            "crates/core/src/x.rs",
            false,
            "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }\n",
        );
        assert!(ids(&ws_run(&[bad])).contains(&"SL0005"));

        let good = lex(
            "crates/core/src/x.rs",
            false,
            "fn f(c: &AtomicUsize) {\n\
                 // ordering: Relaxed — the counter is monotonic and advisory.\n\
                 c.fetch_add(1, Ordering::Relaxed);\n\
             }\n",
        );
        assert!(!ids(&ws_run(&[good])).contains(&"SL0005"));

        // A justification too far above does not count.
        let far = lex(
            "crates/core/src/x.rs",
            false,
            &format!(
                "// ordering: way up here.\n{}c.fetch_add(1, Ordering::Relaxed);\n",
                "\n".repeat(ORDERING_COMMENT_WINDOW + 1)
            ),
        );
        assert!(ids(&ws_run(&[far])).contains(&"SL0005"));

        // SeqCst needs no justification.
        let seq = lex(
            "crates/core/src/x.rs",
            false,
            "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::SeqCst); }\n",
        );
        assert!(!ids(&ws_run(&[seq])).contains(&"SL0005"));
    }

    #[test]
    fn sl0006_flags_io_under_a_live_guard() {
        let bad = lex(
            "crates/engine/src/x.rs",
            false,
            "fn f(m: &Mutex<u32>, p: &Path) {\n\
                 let guard = m.lock().unwrap();\n\
                 std::fs::write(p, guard.to_string()).ok();\n\
             }\n",
        );
        let v = ws_run(&[bad]);
        assert!(ids(&v).contains(&"SL0006"));

        // Dropping the guard before the I/O is fine.
        let dropped = lex(
            "crates/engine/src/x.rs",
            false,
            "fn f(m: &Mutex<u32>, p: &Path) {\n\
                 let guard = m.lock().unwrap();\n\
                 let v = guard.to_string();\n\
                 drop(guard);\n\
                 std::fs::write(p, v).ok();\n\
             }\n",
        );
        assert!(!ids(&ws_run(&[dropped])).contains(&"SL0006"));

        // A guard that died with its block does not taint later I/O.
        let scoped = lex(
            "crates/engine/src/x.rs",
            false,
            "fn f(m: &Mutex<u32>, p: &Path) {\n\
                 {\n\
                     let guard = m.lock().unwrap();\n\
                     let _ = *guard;\n\
                 }\n\
                 std::fs::write(p, \"x\").ok();\n\
             }\n",
        );
        assert!(!ids(&ws_run(&[scoped])).contains(&"SL0006"));

        // `match rx.lock()` scrutinees release inside the arm — no guard.
        let matched = lex(
            "crates/engine/src/x.rs",
            false,
            "fn f(m: &Mutex<Receiver<u8>>, p: &Path) {\n\
                 let work = match m.lock() { Ok(g) => g.recv(), Err(_) => return };\n\
                 std::fs::write(p, \"x\").ok();\n\
             }\n",
        );
        assert!(!ids(&ws_run(&[matched])).contains(&"SL0006"));
    }
}
