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
//! | SL0007 | walker-recursion   | no function in the tree walkers or the XML lexers calls itself |
//! | SL0008 | tape-off-validation-path | `core` and `engine` library code never names `StructuralIndex` |

use crate::lexer::SourceFile;
use std::collections::BTreeMap;

/// File names (anywhere under `crates/*/src`) whose bodies may not name
/// a hashed collection: SipHash per lookup is exactly the per-event cost
/// the streaming hot path and its lexer (`pull.rs`) exist to avoid, and
/// the per-type-pair walks of the `R_sub`/`R_nondis` fixpoints
/// (`checks.rs`, `relations.rs`) keep their visited sets and indexes dense
/// for the same reason.
const HOT_PATH_FILES: &[&str] = &[
    "stream.rs",
    "pull.rs",
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

/// The tree walkers, edit structures and XML lexers SL0007 holds to
/// explicit stacks and loops: a function here that calls itself recurses
/// once per document level, or once per comment in a run of them.
const WALKER_FILES: &[&str] = &[
    "crates/core/src/cast.rs",
    "crates/core/src/full.rs",
    "crates/core/src/dtdcast.rs",
    "crates/core/src/explain.rs",
    "crates/core/src/mods.rs",
    "crates/core/src/stream.rs",
    "crates/tree/src/modtrie.rs",
    "crates/tree/src/edit.rs",
    "crates/xml/src/pull.rs",
    "crates/xml/src/scalar.rs",
];

/// Where SL0008 forbids naming the structural index: validation lexes on
/// demand, so a tape built here would be an O(document) pass and buffer
/// that the validator never reads.
const TAPE_FREE_CRATES: &[&str] = &["crates/core/", "crates/engine/"];

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
    Rule {
        id: "SL0007",
        name: "walker-recursion",
        check: walker_recursion,
    },
    Rule {
        id: "SL0008",
        name: "tape-off-validation-path",
        check: tape_off_validation_path,
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

/// A function whose body is open: its name, whether it takes a `self`
/// receiver, and the brace depth inside it.
struct OpenFn {
    name: String,
    method: bool,
    depth: i64,
}

/// A signature seen whose body's `{` is not yet: the name, the `(`/`[`
/// nesting (so that `;` inside `[u8; 4]` does not end it), and whether a
/// `self` receiver has appeared.
struct PendingFn {
    name: String,
    nest: i64,
    method: bool,
}

fn walker_recursion(rule: &Rule, ws: &Workspace, out: &mut Vec<Violation>) {
    for file in ws.files {
        if !WALKER_FILES.contains(&file.rel.as_str()) {
            continue;
        }
        let mut depth: i64 = 0;
        let mut open: Vec<OpenFn> = Vec::new();
        let mut pending: Option<PendingFn> = None;
        for (i, l) in file.lines.iter().enumerate() {
            let code = l.code.as_bytes();
            let mut at = 0;
            while at < code.len() {
                let b = code[at];
                if is_ident_start(b) && (at == 0 || !is_ident_byte(code[at - 1])) {
                    let end = at + code[at..].iter().take_while(|&&c| is_ident_byte(c)).count();
                    let word = &l.code[at..end];
                    let callee = open.iter().rev().find(|f| f.name == word);
                    if word == "fn" {
                        let name = l.code[end..].trim_start();
                        let len = name.bytes().take_while(|&c| is_ident_byte(c)).count();
                        if len > 0 && is_ident_start(name.as_bytes()[0]) {
                            pending = Some(PendingFn {
                                name: name[..len].to_string(),
                                nest: 0,
                                method: false,
                            });
                        }
                    } else if word == "self" && !l.code[end..].starts_with("::") {
                        if let Some(p) = &mut pending {
                            p.method = true;
                        }
                    } else if !l.in_test
                        && callee
                            .is_some_and(|f| is_self_call(&l.code[..at], &l.code[end..], f.method))
                    {
                        rule.emit(
                            out,
                            &file.rel,
                            i + 1,
                            format!(
                                "`{word}` calls itself — walk documents and edit \
                                 structures with an explicit stack, so depth never \
                                 consumes call-stack frames"
                            ),
                        );
                    }
                    at = end;
                    continue;
                }
                match b {
                    b'{' => {
                        depth += 1;
                        if let Some(p) = pending.take() {
                            open.push(OpenFn {
                                name: p.name,
                                method: p.method,
                                depth,
                            });
                        }
                    }
                    b'}' => {
                        depth -= 1;
                        open.retain(|f| f.depth <= depth);
                    }
                    b'(' | b'[' => {
                        if let Some(p) = &mut pending {
                            p.nest += 1;
                        }
                    }
                    b')' | b']' => {
                        if let Some(p) = &mut pending {
                            p.nest -= 1;
                        }
                    }
                    b';' if pending.as_ref().is_some_and(|p| p.nest == 0) => {
                        // A declaration without a body.
                        pending = None;
                    }
                    _ => {}
                }
                at += 1;
            }
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether a name between `before` and `after` on one line is called as a
/// self-call of the enclosing function of that name: `self.name(`,
/// `Self::name(`, or a bare `name(` when that function takes no `self`
/// receiver (Rust never resolves a bare name to a method, so inside a
/// method a bare `name(` calls a free function). A call on any other
/// receiver or path, and the `fn name(` of a signature, are not.
fn is_self_call(before: &str, after: &str, method: bool) -> bool {
    if !after.trim_start().starts_with('(') {
        return false;
    }
    let before = before.trim_end();
    for receiver in ["self.", "Self::"] {
        if let Some(rest) = before.strip_suffix(receiver) {
            return !rest
                .bytes()
                .last()
                .is_some_and(|b| is_ident_byte(b) || b == b'.' || b == b':');
        }
    }
    let bare = !method && !before.ends_with('.') && !before.ends_with("::");
    let signature = before
        .strip_suffix("fn")
        .is_some_and(|rest| !rest.bytes().last().is_some_and(is_ident_byte));
    bare && !signature
}

fn tape_off_validation_path(rule: &Rule, ws: &Workspace, out: &mut Vec<Violation>) {
    for file in ws.files {
        if !TAPE_FREE_CRATES.iter().any(|p| file.rel.starts_with(p)) {
            continue;
        }
        for (line, code) in file.library_code() {
            if code.contains("StructuralIndex") {
                rule.emit(
                    out,
                    &file.rel,
                    line,
                    "`StructuralIndex` on the validation path — the pull parser lexes on \
                     demand; a tape here is an O(document) pass and buffer nothing reads"
                        .into(),
                );
            }
        }
    }
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
    fn sl0007_fires_on_self_calls_in_walker_files_only() {
        let recursive = "impl V {\n\
                 fn walk(&self, n: Node) -> bool {\n\
                     n.children().all(|c| self.walk(c))\n\
                 }\n\
                 fn visit(n: Node) {\n\
                     for c in n.children() { Self::visit(c); }\n\
                 }\n\
             }\n\
             fn outer(path: &[u32]) {\n\
                 fn go(\n\
                     path: &[u32],\n\
                 ) {\n\
                     if let [_, rest @ ..] = path { go(rest) }\n\
                 }\n\
                 go(path);\n\
             }\n";
        let v = ws_run(&[lex("crates/core/src/mods.rs", false, recursive)]);
        let lines: Vec<usize> = v
            .iter()
            .filter(|v| v.rule == "SL0007")
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, [3, 6, 13], "self., Self:: and a nested bare call");

        // The explicit-stack form, calls on other receivers, and a call of
        // an enclosing function from a sibling are all silent.
        let iterative = "impl V {\n\
                 fn walk(&self, root: Node) -> bool {\n\
                     let mut work = vec![root];\n\
                     while let Some(n) = work.pop() {\n\
                         if !self.doc.walk(n) || !Other::walk(n) { return false; }\n\
                         work.extend(n.children());\n\
                     }\n\
                     self.children.is_empty()\n\
                 }\n\
                 fn len(&self) -> usize { ShardedCache::len(&self.cache) }\n\
                 fn declared(x: [u8; 4]);\n\
                 fn after(&self) { self.walk(Node::root()); }\n\
             }\n";
        let v = ws_run(&[lex("crates/core/src/mods.rs", false, iterative)]);
        assert!(!ids(&v).contains(&"SL0007"), "{v:?}");

        // Inside a method a bare `name(` calls a free function of the same
        // name, never the method itself.
        let delegating = "impl P {\n\
                 fn err_at(&self, offset: usize) -> E {\n\
                     err_at(self.bytes, offset)\n\
                 }\n\
                 fn name(\n\
                     &mut self,\n\
                 ) -> E {\n\
                     name(self.bytes)\n\
                 }\n\
             }\n\
             fn err_at(bytes: &[u8], offset: usize) -> E { E::new(bytes, offset) }\n";
        let v = ws_run(&[lex("crates/xml/src/pull.rs", false, delegating)]);
        assert!(!ids(&v).contains(&"SL0007"), "{v:?}");

        // Outside the walker files, and in test code, recursion is allowed.
        let v = ws_run(&[lex("crates/core/src/repair.rs", false, recursive)]);
        assert!(!ids(&v).contains(&"SL0007"));
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{recursive}}}\n");
        let v = ws_run(&[lex("crates/core/src/mods.rs", false, &in_test)]);
        assert!(!ids(&v).contains(&"SL0007"));
    }

    #[test]
    fn sl0008_keeps_the_structural_index_out_of_core_and_engine() {
        for path in ["crates/core/src/stream.rs", "crates/engine/src/corpus.rs"] {
            let tape = lex(
                path,
                false,
                "use schemacast_xml::StructuralIndex;\n\
                 fn f(s: &str) { let t = StructuralIndex::build(s); }\n",
            );
            let v = ws_run(&[tape]);
            assert_eq!(
                ids(&v).iter().filter(|id| **id == "SL0008").count(),
                2,
                "the import and the build in {path}"
            );
        }

        // The index's own crate, the benchmarks, tests and prose may name it.
        for path in ["crates/xml/src/pull.rs", "crates/bench/src/lib.rs"] {
            let elsewhere = lex(path, false, "use crate::StructuralIndex;\n");
            assert!(!ids(&ws_run(&[elsewhere])).contains(&"SL0008"));
        }
        let test_only = lex(
            "crates/core/src/stream.rs",
            false,
            "#[cfg(test)]\nmod tests { use schemacast_xml::StructuralIndex; }\n",
        );
        assert!(!ids(&ws_run(&[test_only])).contains(&"SL0008"));
        let doc = lex(
            "crates/core/src/stream.rs",
            false,
            "//! No [`StructuralIndex`] is built here.\n",
        );
        assert!(!ids(&ws_run(&[doc])).contains(&"SL0008"));
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
