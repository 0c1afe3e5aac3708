//! Repo-level static analysis behind `cargo run -p xtask -- lint` and
//! `cargo run -p xtask -- analyze`.
//!
//! The workspace's correctness story leans on a handful of *global*
//! conventions no single crate can enforce about the others:
//!
//! 1. **No wall-clock time in simulation crates.** Every simulated
//!    figure must be a pure function of the virtual clock
//!    (`simclock::SimDuration`); a stray `std::time::Instant` or
//!    `SystemTime` would leak host timing into "measured" numbers. Only
//!    the criterion micro-benchmarks (`crates/bench/benches/`, the
//!    criterion shim) and this crate may touch real time; the simulator's
//!    own wall time has one owner, `benchmark/`, outside this walk.
//! 2. **All device I/O goes through `BlockDevice::request`.** Consumer
//!    crates must never reach past the queued I/O path into raw device
//!    mutators (`Nand::program`/`erase`, `SsdDisk::ftl_mut`, ...): doing
//!    so would skip the submission queue, the trace sink, and the
//!    invariant audit hooks at the request boundary.
//! 3. **Every `pub enum` carries a doc comment.** The runtime toggles
//!    (PostingsBackend, OffloadMode, ...) are enums; an undocumented one
//!    is an equivalence arm nobody can review.
//! 4. **SSD writes go through the admission gate.** The SSD stores'
//!    raw entry points (`.offer(`, `.seed_static(`) admit data without
//!    consulting the `AdmissionPolicy` tier; only the cache manager
//!    that owns the gate (crates/core) and the store-level
//!    microbenchmarks that deliberately measure below it may call them.
//! 5. **In-flash compute runs only behind `BlockDevice::request`.** The
//!    offload's direct entry point (`.offload_read(`) is the SSD's
//!    implementation detail; a consumer crate calling it would evaluate
//!    predicates without the submission queue, the Host/InFlash toggle,
//!    or the bus-conservation audits seeing the request — the exact
//!    bypass the offload equivalence suite exists to rule out.
//!
//! (`unsafe` needs no rule here: the workspace manifest forbids
//! `unsafe_code` and every member inherits the lint, so the compiler
//! holds it.)
//!
//! The scanner is deliberately std-only (the build environment has no
//! registry access, so `syn` is unavailable). Since PR 10 the rules run
//! over a real token stream ([`lexer`]) and an item-level parse
//! ([`parser`]) instead of stripped text, which kills the remaining
//! path-in-string and macro-token edge cases; [`strip_source`] is kept
//! as the lexer's differential test oracle. On top of the same parse,
//! [`taint`] propagates nondeterminism sources to sim-visible sinks
//! over the [`callgraph`], and [`oracle`] freezes every bit-identity
//! oracle arm behind a token-hash witness (`oracle.lock`).

use std::fmt;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod lexer;
pub mod oracle;
pub mod parser;
pub mod taint;

use lexer::{lex, Tok, TokKind};

/// Path prefixes allowed to use wall-clock time: the criterion
/// micro-benchmarks and this crate. The figure binaries under
/// `crates/bench/src/` print simulated quantities only.
pub const WALL_CLOCK_ALLOW_PREFIXES: &[&str] =
    &["crates/bench/benches/", "crates/xtask/", "shims/criterion/"];

/// Crates that *are* the device layer: raw device mutators are their
/// implementation, not a bypass.
pub const DEVICE_LAYER_PREFIXES: &[&str] =
    &["crates/storagecore/", "crates/flashsim/", "crates/hddsim/"];

/// Path prefixes allowed to call the SSD stores' raw admission entry
/// points directly: the cache manager that owns the `AdmissionPolicy`
/// gate, and the store-level microbenchmarks that measure below it on
/// purpose.
pub const ADMISSION_GATE_ALLOW_PREFIXES: &[&str] = &["crates/core/", "crates/bench/benches/"];

/// Modules whose entire behaviour must be a pure function of the seed:
/// the arrival-process generators and the open-loop serving front-end.
/// A wall-clock read or an ad-hoc RNG here silently breaks the
/// bit-reproducibility contract behind the latency-vs-load curves, so
/// both are forbidden outright — randomness comes from `simclock::Rng`,
/// time from the virtual clock.
pub const SIM_RNG_ONLY_FILES: &[&str] = &[
    "crates/workload/src/arrival.rs",
    "crates/workload/src/ingest.rs",
    "crates/engine/src/serving.rs",
];

/// Path prefix allowed to touch the live index's raw mutation surfaces
/// (`.write_segment_mut(`, `.wal_mut(`): the segment module that owns
/// them. Everyone else must mutate through `LiveIndex`'s public API
/// (`add_document`/`delete_document`/`seal`/`compact`), which is what
/// keeps the WAL, the dirty-term set, and the audit counters coherent.
pub const SEGMENT_ALLOW_PREFIX: &str = "crates/searchidx/";

/// One broken convention: which rule, where, and what matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the offending token (0 for whole-file rules).
    pub line: usize,
    /// Stable machine-matchable rule name.
    pub rule: &'static str,
    /// Human-readable description of what matched.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.detail
        )
    }
}

/// Strip comments and string/char literals from Rust source, preserving
/// newlines (so line numbers survive) and replacing stripped characters
/// with spaces. Handles nested block comments, raw strings with any
/// number of `#`s, byte strings, char literals, and lifetimes (which are
/// *not* char literals and pass through).
///
/// Kept as the differential oracle for [`lexer::lex`]: both views must
/// agree on which identifiers are code (see the lexer's tests).
pub fn strip_source(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let n = b.len();
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let is_ident_char = |c: char| c.is_alphanumeric() || c == '_';
    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // An `r`/`b` that *continues* an identifier (`attr"..."`,
        // `ptr"..."` in macro token soup) is not a literal prefix; only
        // a leading `r`/`br`/`b` can open a raw/byte string.
        let prev_is_ident = i > 0 && is_ident_char(b[i - 1]);
        // Raw (byte) string: r"...", r#"..."#, br#"..."#, ...
        if !prev_is_ident && (c == 'r' || (c == 'b' && i + 1 < n && b[i + 1] == 'r')) {
            let start = if c == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0;
            let mut j = start;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                // Confirmed raw string from b[i]..; blank it out through
                // the closing quote + hashes.
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                while i < n {
                    if b[i] == '"' {
                        let mut k = 0;
                        while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
            // Not a raw string ("r" / "br" identifier prefix): fall
            // through as a normal character.
        }
        // String literal (and byte string b"...").
        if c == '"' || (!prev_is_ident && c == 'b' && i + 1 < n && b[i + 1] == '"') {
            if c == 'b' {
                out.push(' ');
                i += 1;
            }
            out.push(' ');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Byte char b'x': blank the prefix too — `b'` can never start a
        // lifetime, so no disambiguation is needed.
        if !prev_is_ident && c == 'b' && i + 1 < n && b[i + 1] == '\'' {
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                    continue;
                }
                if b[i] == '\'' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: 'x' or '\..' is a literal; 'ident
        // (no closing quote right after) is a lifetime and stays.
        if c == '\'' && i + 1 < n {
            let is_char = b[i + 1] == '\\' || (i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\'');
            if is_char {
                out.push(' ');
                i += 1;
                while i < n {
                    if b[i] == '\\' && i + 1 < n {
                        out.push(' ');
                        out.push(blank(b[i + 1]));
                        i += 2;
                        continue;
                    }
                    if b[i] == '\'' {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

/// True if `needle` occurs in `hay` as a whole identifier (not embedded
/// in a longer one); returns the byte offset of the first such match.
/// Production lints match tokens now; this survives as the assertion
/// helper for the stripper-oracle tests.
#[cfg(test)]
fn find_ident(hay: &str, needle: &str) -> Option<usize> {
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let hb = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(hb[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= hb.len() || !is_ident(hb[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Collect every `.rs` file under `root`'s `crates/` and `shims/` trees,
/// as (workspace-relative path, contents).
fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for top in ["crates", "shims"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" {
                walk(&path, root, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = rel_path(&path, root);
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

fn rel_path(path: &Path, root: &Path) -> String {
    let rel: PathBuf = path
        .strip_prefix(root)
        .unwrap_or(path)
        .components()
        .collect();
    rel.to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/")
}

/// First token that is the identifier `name`.
fn first_ident<'a>(toks: &'a [Tok], name: &str) -> Option<&'a Tok> {
    toks.iter()
        .find(|t| t.kind == TokKind::Ident && t.text == name)
}

/// First `.name(` method-call site (the only shape the bypass lints
/// police; a bare `name(` free call is a different function).
fn first_method_call<'a>(toks: &'a [Tok], name: &str) -> Option<&'a Tok> {
    toks.windows(3).find_map(|w| {
        (w[0].is_punct('.') && w[1].is_ident(name) && w[2].is_punct('(')).then(|| &w[1])
    })
}

/// Run every lint rule over the workspace at `root`. Empty result =
/// clean tree.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    let sources = collect_sources(root)?;
    let mut violations = Vec::new();
    for (file, raw) in &sources {
        let toks = lex(raw);
        check_wall_clock(file, &toks, &mut violations);
        check_device_bypass(file, &toks, &mut violations);
        check_nand_compute_bypass(file, &toks, &mut violations);
        check_admission_bypass(file, &toks, &mut violations);
        check_segment_bypass(file, &toks, &mut violations);
        check_sim_rng_only(file, &toks, &mut violations);
        check_pub_enum_docs(file, raw, &toks, &mut violations);
    }
    Ok(violations)
}

/// Run the syntax-aware determinism analysis (taint propagation + the
/// oracle-freeze witness) over the tree at `root`, with an explicit
/// oracle registry so fixture trees can register scratch arms.
pub fn analyze_tree(root: &Path, specs: &[oracle::OracleSpec]) -> std::io::Result<Vec<Violation>> {
    let sources = collect_sources(root)?;
    let mut files = Vec::new();
    for (file, raw) in &sources {
        if !taint_scope(file) {
            continue;
        }
        files.push(parser::parse_file(file, raw));
    }
    let graph = callgraph::CallGraph::build(&files);
    let allow = std::fs::read_to_string(root.join(taint::ALLOW_REL_PATH)).ok();
    let mut violations = taint::taint_violations(&files, &graph, allow.as_deref());
    violations.extend(oracle::check(root, specs)?);
    violations.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(violations)
}

/// [`analyze_tree`] with the workspace's registered oracle arms.
pub fn analyze_default(root: &Path) -> std::io::Result<Vec<Violation>> {
    analyze_tree(root, &oracle::default_registry())
}

/// Taint analysis covers library/binary sources of the simulation
/// crates: `crates/<name>/src/**`, excluding the analyzer itself.
/// Integration tests, benches, and the shims are out of scope — they
/// never feed a sim figure.
fn taint_scope(file: &str) -> bool {
    let Some(rest) = file.strip_prefix("crates/") else {
        return false;
    };
    let Some((krate, tail)) = rest.split_once('/') else {
        return false;
    };
    krate != "xtask" && tail.starts_with("src/")
}

fn check_wall_clock(file: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    if WALL_CLOCK_ALLOW_PREFIXES
        .iter()
        .any(|p| file.starts_with(p))
    {
        return;
    }
    for token in ["Instant", "SystemTime"] {
        if let Some(t) = first_ident(toks, token) {
            out.push(Violation {
                file: file.to_string(),
                line: t.line as usize,
                rule: "no-wall-clock",
                detail: format!(
                    "`{token}` in a simulation crate — simulated figures must be pure \
                     functions of the virtual clock (use simclock)"
                ),
            });
        }
    }
}

fn check_device_bypass(file: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    if DEVICE_LAYER_PREFIXES.iter().any(|p| file.starts_with(p)) {
        return;
    }
    for name in ["ftl_mut", "program", "program_at", "erase"] {
        if let Some(t) = first_method_call(toks, name) {
            out.push(Violation {
                file: file.to_string(),
                line: t.line as usize,
                rule: "no-device-bypass",
                detail: format!(
                    "raw device mutator `.{name}()` outside the device layer — all I/O must \
                     flow through BlockDevice::request (or the queued submit path) so the \
                     queue, trace sink, and invariant audits see it"
                ),
            });
        }
    }
}

fn check_nand_compute_bypass(file: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    if DEVICE_LAYER_PREFIXES.iter().any(|p| file.starts_with(p)) {
        return;
    }
    if let Some(t) = first_method_call(toks, "offload_read") {
        out.push(Violation {
            file: file.to_string(),
            line: t.line as usize,
            rule: "no-nand-compute-bypass",
            detail: "direct in-flash compute entry point `.offload_read()` outside the \
                     device layer — offload execution must flow through \
                     BlockDevice::request with an OffloadDescriptor so the queue, the \
                     Host/InFlash toggle, and the bus-conservation audits see it"
                .to_string(),
        });
    }
}

fn check_admission_bypass(file: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    if ADMISSION_GATE_ALLOW_PREFIXES
        .iter()
        .any(|p| file.starts_with(p))
    {
        return;
    }
    for name in ["offer", "seed_static"] {
        if let Some(t) = first_method_call(toks, name) {
            out.push(Violation {
                file: file.to_string(),
                line: t.line as usize,
                rule: "no-admission-bypass",
                detail: format!(
                    "raw SSD-store entry point `.{name}()` outside the cache manager — \
                     SSD writes must flow through CacheManager's flush paths so the \
                     AdmissionPolicy gate (static EV or sketch tier) decides them"
                ),
            });
        }
    }
}

fn check_segment_bypass(file: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    if file.starts_with(SEGMENT_ALLOW_PREFIX) {
        return;
    }
    for name in ["write_segment_mut", "wal_mut"] {
        if let Some(t) = first_method_call(toks, name) {
            out.push(Violation {
                file: file.to_string(),
                line: t.line as usize,
                rule: "no-segment-bypass",
                detail: format!(
                    "raw live-index mutation surface `.{name}()` outside crates/searchidx — \
                     mutations must flow through LiveIndex's public API \
                     (add_document/delete_document/seal/compact) so the WAL, the \
                     dirty-term set, and the invariant audits see them"
                ),
            });
        }
    }
}

fn check_sim_rng_only(file: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    if !SIM_RNG_ONLY_FILES.contains(&file) {
        return;
    }
    for token in [
        "thread_rng",
        "from_entropy",
        "rand",
        "random",
        "RandomState",
        "Instant",
        "SystemTime",
    ] {
        if let Some(t) = first_ident(toks, token) {
            out.push(Violation {
                file: file.to_string(),
                line: t.line as usize,
                rule: "sim-rng-only",
                detail: format!(
                    "`{token}` in an arrival/serving module — the open-loop schedule must \
                     be a pure function of the seed; draw randomness from simclock::Rng \
                     and time from the virtual clock"
                ),
            });
        }
    }
}

fn check_pub_enum_docs(file: &str, raw: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    let raw_lines: Vec<&str> = raw.lines().collect();
    for w in toks.windows(2) {
        if !(w[0].is_ident("pub") && w[1].is_ident("enum")) {
            continue;
        }
        let idx = w[0].line as usize - 1;
        // Walk upward over attributes to the nearest non-attribute line;
        // it must be a doc comment.
        let mut j = idx;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let prev = raw_lines.get(j).map_or("", |l| l.trim());
            if prev.starts_with("#[") || prev.starts_with("#![") {
                continue;
            }
            documented = prev.starts_with("///") || prev.ends_with("*/");
            break;
        }
        if !documented {
            out.push(Violation {
                file: file.to_string(),
                line: idx + 1,
                rule: "pub-enum-doc",
                detail: "undocumented `pub enum` — runtime toggles are enums; every arm \
                         switch needs a reviewable doc comment"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_preserves_code_and_lines() {
        let src = "let a = 1; // unsafe in a comment\nlet s = \"unsafe in a string\";\nlet c = 'u'; let r = r#\"unsafe raw\"#;\n/* unsafe /* nested */ still comment */ let done = true;\n";
        let stripped = strip_source(src);
        assert_eq!(stripped.matches('\n').count(), src.matches('\n').count());
        assert!(find_ident(&stripped, "unsafe").is_none());
        assert!(stripped.contains("let a = 1;"));
        assert!(stripped.contains("let done = true;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let stripped = strip_source("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(stripped.contains("fn f<'a>(x: &'a str) -> &'a str { x }"));
    }

    #[test]
    fn ident_matching_requires_word_boundaries() {
        assert!(find_ident("let InstantX = 1;", "Instant").is_none());
        assert!(find_ident("let x: Instant = now();", "Instant").is_some());
        assert!(find_ident("my_unsafe_fn()", "unsafe").is_none());
    }

    #[test]
    fn raw_strings_with_interior_quotes_and_hash_runs_strip_fully() {
        // The satellite's named edge cases: interior `"` and nested `#`
        // counts inside r#-strings must not leak literal text as code.
        let src = r###"let a = r#"interior " quote unsafe"#; let b = r##"x "# y unsafe"##; let ok = 1;"###;
        let stripped = strip_source(src);
        assert!(find_ident(&stripped, "unsafe").is_none(), "{stripped}");
        assert!(stripped.contains("let ok = 1;"));
    }

    #[test]
    fn identifier_adjacent_quote_is_not_a_raw_string_prefix() {
        // `attr"..."` / `ptr"..."` (macro token soup): the trailing `r`
        // of an identifier must not open raw-string mode — the old
        // scanner did exactly that and, because raw mode ignores
        // escapes, closed at the wrong quote and leaked string bytes
        // back out as code.
        for src in [
            "m!(attr\"\\\" unsafe\"); let tail = 1;",
            "let x = ptr\"a\\\" unsafe\"; let tail = 1;",
            "m!(abr\"z\\\" unsafe\"); let tail = 1;",
        ] {
            let stripped = strip_source(src);
            assert!(
                find_ident(&stripped, "unsafe").is_none(),
                "{src} -> {stripped}"
            );
            assert!(stripped.contains("let tail = 1;"), "{src} -> {stripped}");
        }
        // Genuine raw / byte-raw strings still strip.
        let genuine = "let a = r\"unsafe\"; let b = br\"unsafe\"; let tail = 1;";
        let stripped = strip_source(genuine);
        assert!(find_ident(&stripped, "unsafe").is_none(), "{stripped}");
        assert!(stripped.contains("let tail = 1;"));
    }

    #[test]
    fn taint_scope_covers_crate_src_only() {
        assert!(taint_scope("crates/core/src/mem.rs"));
        assert!(taint_scope("crates/bench/src/bin/fig03.rs"));
        assert!(!taint_scope("crates/core/tests/equivalence.rs"));
        assert!(!taint_scope("crates/bench/benches/micro.rs"));
        assert!(!taint_scope("crates/xtask/src/lib.rs"));
        assert!(!taint_scope("shims/proptest/src/lib.rs"));
    }
}
