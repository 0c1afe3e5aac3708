//! Taint propagation from nondeterminism *sources* to sim-visible
//! *sinks* over the [`crate::callgraph`] call graph.
//!
//! Sources (detected per function body):
//! - `wall-clock` — `Instant` / `SystemTime` mentions
//! - `adhoc-rng` — `thread_rng` / `from_entropy` / `OsRng` (anything
//!   seeding outside the sim's owned RNG)
//! - `unordered-iter` — iteration over a `std::collections`
//!   `HashMap`/`HashSet` (per-process `RandomState` seeding makes the
//!   order nondeterministic); `FxHashMap`/`BTreeMap` are exempt
//! - `env-read` — `std::env::var`/`vars`/`var_os`
//! - `thread-parallelism` — `available_parallelism` (host-shaped)
//! - `float-nan-cmp` — `partial_cmp` whose `None` is *swallowed* by
//!   `unwrap_or*` (silent reorder); `.expect()`/`.unwrap()` fail stop
//!   and stay deterministic, so they are clean
//!
//! Sinks: any non-test function that names a report/stats type or a
//! figure emitter. A finding is a shortest source→sink call path; each
//! must be fixed or carried in `crates/xtask/determinism.allow` with a
//! written justification.

use crate::callgraph::{CallGraph, FnId};
use crate::lexer::{Tok, TokKind};
use crate::parser::{type_names_std_unordered, FileAst};
use crate::Violation;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Workspace-relative path of the reviewed allowlist.
pub const ALLOW_REL_PATH: &str = "crates/xtask/determinism.allow";

/// Type / emitter names whose mention marks a function as sim-visible.
pub const SINK_TYPE_IDENTS: &[&str] = &[
    "RunReport",
    "ClusterReport",
    "FlashReport",
    "SituationTable",
    "IoStats",
    "QueueDepthStats",
    "CacheStats",
    "AdmissionStats",
    "MutationStats",
    "ComputeStats",
    "BusStats",
    "ServingReport",
    "LoadPoint",
    "print_table",
];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

const SWALLOWING: &[&str] = &["unwrap_or", "unwrap_or_else", "unwrap_or_default"];

/// One taint category. `rule()` is the stable lint name CI prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    WallClock,
    AdhocRng,
    UnorderedIter,
    EnvRead,
    ThreadParallelism,
    FloatNanCmp,
}

impl Category {
    pub fn rule(self) -> &'static str {
        match self {
            Category::WallClock => "taint-wall-clock",
            Category::AdhocRng => "taint-adhoc-rng",
            Category::UnorderedIter => "taint-unordered-iter",
            Category::EnvRead => "taint-env-read",
            Category::ThreadParallelism => "taint-thread-parallelism",
            Category::FloatNanCmp => "taint-float-nan-cmp",
        }
    }

    pub fn name(self) -> &'static str {
        // Allowlist entries use the rule name minus the `taint-` prefix.
        &self.rule()[6..]
    }

    fn from_name(s: &str) -> Option<Category> {
        Some(match s {
            "wall-clock" => Category::WallClock,
            "adhoc-rng" => Category::AdhocRng,
            "unordered-iter" => Category::UnorderedIter,
            "env-read" => Category::EnvRead,
            "thread-parallelism" => Category::ThreadParallelism,
            "float-nan-cmp" => Category::FloatNanCmp,
            _ => return None,
        })
    }
}

/// A source occurrence inside one function body.
#[derive(Debug)]
struct SourceHit {
    category: Category,
    line: usize,
    what: String,
}

/// Detect every source occurrence in one function's body tokens.
fn detect_sources(fa: &FileAst, body: &[Tok]) -> Vec<SourceHit> {
    let mut hits = Vec::new();
    let unordered_vars = unordered_bindings(fa, body);
    let n = body.len();
    let mut i = 0;
    while i < n {
        let t = &body[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" => hits.push(SourceHit {
                category: Category::WallClock,
                line: t.line as usize,
                what: t.text.clone(),
            }),
            "thread_rng" | "from_entropy" | "OsRng" => hits.push(SourceHit {
                category: Category::AdhocRng,
                line: t.line as usize,
                what: t.text.clone(),
            }),
            "available_parallelism" => hits.push(SourceHit {
                category: Category::ThreadParallelism,
                line: t.line as usize,
                what: t.text.clone(),
            }),
            "env"
                if body.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && body.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && body.get(i + 3).is_some_and(|t| {
                        matches!(t.text.as_str(), "var" | "vars" | "var_os" | "vars_os")
                    }) =>
            {
                hits.push(SourceHit {
                    category: Category::EnvRead,
                    line: t.line as usize,
                    what: format!("env::{}", body[i + 3].text),
                });
            }
            "partial_cmp" => {
                // Skip the argument parens, then look at what consumes
                // the Option: `unwrap_or*` swallows NaN silently.
                let mut j = i + 1;
                if body.get(j).is_some_and(|t| t.is_punct('(')) {
                    let mut depth = 1;
                    j += 1;
                    while j < n && depth > 0 {
                        if body[j].is_punct('(') {
                            depth += 1;
                        } else if body[j].is_punct(')') {
                            depth -= 1;
                        }
                        j += 1;
                    }
                }
                if body.get(j).is_some_and(|t| t.is_punct('.'))
                    && body
                        .get(j + 1)
                        .is_some_and(|t| SWALLOWING.contains(&t.text.as_str()))
                {
                    hits.push(SourceHit {
                        category: Category::FloatNanCmp,
                        line: t.line as usize,
                        what: format!("partial_cmp(..).{}", body[j + 1].text),
                    });
                }
            }
            _ => {}
        }
        // Unordered iteration: `v.iter()`-family on a std map binding,
        // or `self.field.iter()` on a std-map struct field.
        if ITER_METHODS.contains(&t.text.as_str())
            && body.get(i + 1).is_some_and(|t| t.is_punct('('))
            && i >= 2
            && body[i - 1].is_punct('.')
        {
            let recv = &body[i - 2];
            let via_field = recv.kind == TokKind::Ident
                && fa.unordered_fields.contains(&recv.text)
                && i >= 4
                && body[i - 3].is_punct('.')
                && body[i - 4].is_ident("self");
            let via_var = recv.kind == TokKind::Ident
                && unordered_vars.contains(&recv.text)
                && !(i >= 3 && body[i - 3].is_punct('.'));
            if via_field || via_var {
                hits.push(SourceHit {
                    category: Category::UnorderedIter,
                    line: t.line as usize,
                    what: format!("{}.{}()", recv.text, t.text),
                });
            }
        }
        // `for pat in [&][mut] v` / `for pat in [&][mut] self.field`.
        if t.is_ident("in") && i > 0 {
            let mut j = i + 1;
            while body
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                j += 1;
            }
            let (recv, after) = if body.get(j).is_some_and(|t| t.is_ident("self"))
                && body.get(j + 1).is_some_and(|t| t.is_punct('.'))
            {
                (body.get(j + 2), j + 3)
            } else {
                (body.get(j), j + 1)
            };
            if let Some(recv) = recv {
                let is_unordered = recv.kind == TokKind::Ident
                    && (unordered_vars.contains(&recv.text)
                        || (after > j + 1 && fa.unordered_fields.contains(&recv.text)));
                // Only flag direct iteration (`{` next), not chained
                // adaptors, which the method-call arm already covers.
                if is_unordered && body.get(after).is_some_and(|t| t.is_punct('{')) {
                    hits.push(SourceHit {
                        category: Category::UnorderedIter,
                        line: t.line as usize,
                        what: format!("for .. in {}", recv.text),
                    });
                }
            }
        }
        i += 1;
    }
    hits
}

/// Local bindings (and fn params) whose type is a std unordered map.
fn unordered_bindings(fa: &FileAst, body: &[Tok]) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    let n = body.len();
    let mut i = 0;
    while i < n {
        let t = &body[i];
        // `let [mut] name : TYPE =` or `let [mut] name = HashMap::new()`
        if t.is_ident("let") {
            let mut j = i + 1;
            if body.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = body.get(j).filter(|t| t.kind == TokKind::Ident) {
                let name = name.text.clone();
                if body.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                    // Type annotation runs to the `=` or `;` at depth 0.
                    let mut depth = 0i32;
                    let start = j + 2;
                    let mut e = start;
                    while e < n {
                        let t = &body[e];
                        if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                            depth += 1;
                        } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                            depth -= 1;
                        } else if (t.is_punct('=') || t.is_punct(';')) && depth <= 0 {
                            break;
                        }
                        e += 1;
                    }
                    if type_names_std_unordered(&fa.uses, &body[start..e]) {
                        vars.insert(name.clone());
                    }
                    i = e;
                    continue;
                }
                if body.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                    // Constructor form.
                    let ctor = body.get(j + 2);
                    let is_map = ctor.is_some_and(|t| {
                        t.kind == TokKind::Ident
                            && type_names_std_unordered(&fa.uses, std::slice::from_ref(t))
                    });
                    let is_inline_std = ctor.is_some_and(|t| t.is_ident("std"))
                        && body.get(j + 3).is_some_and(|t| t.is_punct(':'))
                        && body
                            .iter()
                            .skip(j + 3)
                            .take(8)
                            .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"));
                    if is_map || is_inline_std {
                        vars.insert(name);
                    }
                }
            }
        }
        i += 1;
    }
    // Params typed as std maps (signature tokens precede the body; the
    // caller hands us only the body, so params are detected by the
    // separate signature scan in `fn_param_unordered`).
    let _ = &fa.file;
    vars
}

/// Params in the signature run typed as std unordered maps.
fn fn_param_unordered(fa: &FileAst, sig: &[Tok]) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    // Param list is the first balanced `( ... )` after the fn name.
    let Some(open) = sig.iter().position(|t| t.is_punct('(')) else {
        return vars;
    };
    let mut depth = 1;
    let mut i = open + 1;
    let mut item_start = i;
    let n = sig.len();
    let mut close = n;
    while i < n {
        let t = &sig[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                close = i;
                break;
            }
        } else if t.is_punct(',') && depth == 1 {
            param_entry(fa, &sig[item_start..i], &mut vars);
            item_start = i + 1;
        }
        i += 1;
    }
    if item_start < close {
        param_entry(fa, &sig[item_start..close], &mut vars);
    }
    vars
}

fn param_entry(fa: &FileAst, toks: &[Tok], vars: &mut BTreeSet<String>) {
    // `name : TYPE` (skip `self` receivers and `mut` patterns).
    let mut i = 0;
    while toks
        .get(i)
        .is_some_and(|t| t.is_ident("mut") || t.is_punct('&'))
    {
        i += 1;
    }
    let Some(name) = toks.get(i).filter(|t| t.kind == TokKind::Ident) else {
        return;
    };
    if !toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
        return;
    }
    if type_names_std_unordered(&fa.uses, &toks[i + 2..]) {
        vars.insert(name.text.clone());
    }
}

/// Allowlist entry matchers.
#[derive(Debug)]
enum Matcher {
    Fn(String),
    File(String),
    Prefix(String),
}

#[derive(Debug)]
struct AllowEntry {
    category: Option<Category>, // None = `*`
    matcher: Matcher,
    has_justification: bool,
    line: usize,
}

fn parse_allowlist(text: &str, out: &mut Vec<Violation>) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (entry, justification) = match line.split_once('#') {
            Some((e, j)) => (e.trim(), j.trim()),
            None => (line, ""),
        };
        let mut parts = entry.split_whitespace();
        let (Some(cat), Some(target)) = (parts.next(), parts.next()) else {
            out.push(Violation {
                file: ALLOW_REL_PATH.to_string(),
                line: line_no,
                rule: "allow-syntax",
                detail: format!("unparseable allowlist entry: `{line}`"),
            });
            continue;
        };
        let category = if cat == "*" {
            None
        } else {
            match Category::from_name(cat) {
                Some(c) => Some(c),
                None => {
                    out.push(Violation {
                        file: ALLOW_REL_PATH.to_string(),
                        line: line_no,
                        rule: "allow-syntax",
                        detail: format!("unknown taint category `{cat}`"),
                    });
                    continue;
                }
            }
        };
        let matcher = if let Some(f) = target.strip_prefix("fn:") {
            Matcher::Fn(f.to_string())
        } else if let Some(f) = target.strip_prefix("file:") {
            Matcher::File(f.to_string())
        } else if let Some(p) = target.strip_prefix("prefix:") {
            Matcher::Prefix(p.to_string())
        } else {
            out.push(Violation {
                file: ALLOW_REL_PATH.to_string(),
                line: line_no,
                rule: "allow-syntax",
                detail: format!("target must be fn:/file:/prefix:, got `{target}`"),
            });
            continue;
        };
        entries.push(AllowEntry {
            category,
            matcher,
            has_justification: !justification.is_empty(),
            line: line_no,
        });
    }
    entries
}

impl AllowEntry {
    fn matches(&self, category: Category, qualified: &str, file: &str) -> bool {
        if self.category.is_some_and(|c| c != category) {
            return false;
        }
        match &self.matcher {
            Matcher::Fn(f) => f == qualified,
            Matcher::File(f) => f == file,
            Matcher::Prefix(p) => file.starts_with(p.as_str()),
        }
    }
}

/// Run the full taint pass. `allow_text` is the contents of
/// `determinism.allow` (None when the file does not exist).
pub fn taint_violations(
    files: &[FileAst],
    graph: &CallGraph,
    allow_text: Option<&str>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let entries = match allow_text {
        Some(t) => parse_allowlist(t, &mut out),
        None => Vec::new(),
    };

    // Sink set: non-test fns naming a report type or emitter.
    let file_idx: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.file.as_str(), i))
        .collect();
    let mut sinks: BTreeSet<FnId> = BTreeSet::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let fa = &files[file_idx[f.file.as_str()]];
        let span = &fa.toks[f.sig_start..f.body_end];
        if span
            .iter()
            .any(|t| t.kind == TokKind::Ident && SINK_TYPE_IDENTS.contains(&t.text.as_str()))
        {
            sinks.insert(id);
        }
    }

    // Source detection + propagation, deduped by (category, source fn).
    let mut seen: BTreeSet<(Category, String)> = BTreeSet::new();
    let mut used_entries: BTreeSet<usize> = BTreeSet::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if f.is_test || !f.has_body() {
            continue;
        }
        let fa = &files[file_idx[f.file.as_str()]];
        let body = &fa.toks[f.body_start..f.body_end];
        let mut hits = detect_sources(fa, body);
        // Param-typed std maps count only when the body iterates them.
        let params = fn_param_unordered(fa, &fa.toks[f.sig_start..f.body_start]);
        if !params.is_empty() {
            for (i, t) in body.iter().enumerate() {
                if t.kind == TokKind::Ident
                    && ITER_METHODS.contains(&t.text.as_str())
                    && i >= 2
                    && body[i - 1].is_punct('.')
                    && params.contains(&body[i - 2].text)
                {
                    hits.push(SourceHit {
                        category: Category::UnorderedIter,
                        line: t.line as usize,
                        what: format!("{}.{}() [param]", body[i - 2].text, t.text),
                    });
                }
            }
        }
        for hit in hits {
            let key = (hit.category, f.qualified());
            if seen.contains(&key) {
                continue;
            }
            let Some(path) = graph.shortest_path_to(id, &sinks) else {
                continue;
            };
            seen.insert(key);
            let qualified = f.qualified();
            // Allowlist?
            let mut allowed = false;
            for (ei, e) in entries.iter().enumerate() {
                if e.matches(hit.category, &qualified, &f.file) {
                    used_entries.insert(ei);
                    if !e.has_justification {
                        out.push(Violation {
                            file: ALLOW_REL_PATH.to_string(),
                            line: e.line,
                            rule: "allow-justification",
                            detail: format!(
                                "allowlist entry for `{qualified}` ({}) has no justification",
                                hit.category.name()
                            ),
                        });
                    }
                    allowed = true;
                    break;
                }
            }
            if allowed {
                continue;
            }
            let chain: Vec<String> = path.iter().map(|&p| graph.fns[p].qualified()).collect();
            out.push(Violation {
                file: f.file.clone(),
                line: hit.line,
                rule: hit.category.rule(),
                detail: format!(
                    "nondeterminism source `{}` reaches a sim-visible sink: {}",
                    hit.what,
                    chain.join(" -> ")
                ),
            });
        }
    }

    // Stale entries: reviewed text that no longer suppresses anything
    // must be pruned, or it hides future regressions.
    for (ei, e) in entries.iter().enumerate() {
        if !used_entries.contains(&ei) {
            out.push(Violation {
                file: ALLOW_REL_PATH.to_string(),
                line: e.line,
                rule: "allow-stale",
                detail: "allowlist entry matches no current finding; remove it".to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn run(srcs: &[(&str, &str)], allow: Option<&str>) -> Vec<Violation> {
        let files: Vec<FileAst> = srcs.iter().map(|(f, s)| parse_file(f, s)).collect();
        let graph = CallGraph::build(&files);
        taint_violations(&files, &graph, allow)
    }

    #[test]
    fn direct_source_in_sink_is_flagged_with_unit_path() {
        let v = run(
            &[(
                "crates/demo/src/lib.rs",
                "use std::time::Instant;\npub fn emit(r: &mut RunReport) { let t = Instant::now(); r.elapsed = t; }",
            )],
            None,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "taint-wall-clock");
        assert!(v[0].detail.contains("crates/demo/src/lib.rs::emit"));
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn transitive_taint_reports_full_chain() {
        let v = run(
            &[(
                "crates/demo/src/lib.rs",
                "fn leaf() -> u64 { std::time::Instant::now(); 0 }\nfn mid() -> u64 { leaf() }\nfn hop() -> u64 { mid() }\npub fn report() -> RunReport { RunReport { t: hop() } }",
            )],
            None,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "taint-wall-clock");
        let d = &v[0].detail;
        let leaf = d.find("::leaf").unwrap();
        let mid = d.find("::mid").unwrap();
        let hop = d.find("::hop").unwrap();
        let sink = d.find("::report").unwrap();
        assert!(leaf < mid && mid < hop && hop < sink, "chain order: {d}");
    }

    #[test]
    fn source_without_sink_path_is_not_flagged() {
        let v = run(
            &[(
                "crates/demo/src/lib.rs",
                "pub fn tool_only() { let t = std::time::Instant::now(); drop(t); }",
            )],
            None,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unordered_iteration_variants_are_flagged_and_ordered_maps_are_not() {
        let v = run(
            &[(
                "crates/demo/src/lib.rs",
                "use std::collections::HashMap;\npub fn emit() -> RunReport {\n let m: HashMap<u32, u32> = HashMap::new();\n for (k, v) in &m { log(k, v); }\n RunReport::default()\n}",
            )],
            None,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "taint-unordered-iter");

        let clean = run(
            &[(
                "crates/demo/src/lib.rs",
                "use fxmap::FxHashMap;\nuse std::collections::BTreeMap;\npub fn emit() -> RunReport {\n let m: FxHashMap<u32, u32> = FxHashMap::default();\n for (k, v) in m.iter() { log(k, v); }\n let b: BTreeMap<u32, u32> = BTreeMap::new();\n for x in b.values() { log2(x); }\n RunReport::default()\n}",
            )],
            None,
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn get_only_hashmap_use_is_clean() {
        let v = run(
            &[(
                "crates/demo/src/lib.rs",
                "use std::collections::HashMap;\npub fn emit(m: &HashMap<u32, u32>) -> RunReport { let x = m.get(&1); RunReport { x } }",
            )],
            None,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn struct_field_map_iteration_is_flagged() {
        let v = run(
            &[(
                "crates/demo/src/lib.rs",
                "use std::collections::HashMap;\nstruct Cache { map: HashMap<u64, u64> }\nimpl Cache {\n pub fn stats(&self) -> CacheStats { let s: u64 = self.map.values().sum(); CacheStats { s } }\n}",
            )],
            None,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "taint-unordered-iter");
        assert!(v[0].detail.contains("map.values()"));
    }

    #[test]
    fn nan_swallowing_sort_is_flagged_fail_stop_is_clean() {
        let bad = run(
            &[(
                "crates/demo/src/lib.rs",
                "pub fn emit(mut xs: Vec<f64>) -> RunReport {\n xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));\n RunReport { xs }\n}",
            )],
            None,
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "taint-float-nan-cmp");

        let good = run(
            &[(
                "crates/demo/src/lib.rs",
                "pub fn emit(mut xs: Vec<f64>) -> RunReport {\n xs.sort_by(|a, b| a.partial_cmp(b).expect(\"NaN\"));\n RunReport { xs }\n}",
            )],
            None,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn env_and_parallelism_sources_are_flagged() {
        let v = run(
            &[(
                "crates/demo/src/lib.rs",
                "pub fn emit() -> RunReport {\n let w = std::thread::available_parallelism();\n let e = std::env::var(\"MODE\");\n RunReport { w, e }\n}",
            )],
            None,
        );
        let rules: Vec<&str> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"taint-thread-parallelism"), "{v:?}");
        assert!(rules.contains(&"taint-env-read"), "{v:?}");
    }

    #[test]
    fn allowlist_suppresses_with_justification_and_flags_without() {
        let src = [(
            "crates/demo/src/lib.rs",
            "use std::time::Instant;\npub fn emit(r: &mut RunReport) { r.t = Instant::now(); }",
        )];
        let ok = run(
            &src,
            Some("wall-clock fn:crates/demo/src/lib.rs::emit # host timing shown for info only\n"),
        );
        assert!(ok.is_empty(), "{ok:?}");

        let missing = run(&src, Some("wall-clock fn:crates/demo/src/lib.rs::emit\n"));
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].rule, "allow-justification");
    }

    #[test]
    fn stale_allow_entries_are_flagged() {
        let v = run(
            &[("crates/demo/src/lib.rs", "pub fn clean() {}")],
            Some("wall-clock fn:crates/demo/src/lib.rs::gone # was removed\n"),
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "allow-stale");
    }

    #[test]
    fn prefix_and_file_matchers_work() {
        let src = [(
            "crates/bench/src/bin/fig.rs",
            "pub fn emit(r: &mut RunReport) { r.t = std::time::Instant::now(); }",
        )];
        let by_prefix = run(
            &src,
            Some("* prefix:crates/bench/ # harness timing, not sim\n"),
        );
        assert!(by_prefix.is_empty(), "{by_prefix:?}");
        let by_file = run(
            &src,
            Some("wall-clock file:crates/bench/src/bin/fig.rs # harness timing\n"),
        );
        assert!(by_file.is_empty(), "{by_file:?}");
    }

    #[test]
    fn test_fns_are_ignored_as_sources() {
        let v = run(
            &[(
                "crates/demo/src/lib.rs",
                "#[cfg(test)]\nmod tests {\n pub fn emit(r: &mut RunReport) { r.t = std::time::Instant::now(); }\n}",
            )],
            None,
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
