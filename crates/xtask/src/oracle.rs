//! Oracle-freeze witness: every bit-identity oracle arm (the verbatim
//! Reference/Static/ClosedLoop/Scan functions each toggle PR kept as
//! its ground truth) gets a normalized token-stream
//! hash committed to `crates/xtask/oracle.lock`. Any edit to an oracle
//! function — even one that preserves behavior — fails `xtask analyze`
//! until deliberately re-witnessed with `xtask bless-oracles`, forcing
//! the diff into review instead of slipping past as an incidental hunk.
//!
//! Normalization: the hash covers token (kind, text) pairs from the
//! `fn` keyword through the body's closing brace. Comments, whitespace
//! and formatting changes do NOT change the hash; any code token does.

use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::TokKind;
use crate::parser::{parse_file, FnItem};
use crate::Violation;

/// Workspace-relative path of the witness lock file.
pub const LOCK_REL_PATH: &str = "crates/xtask/oracle.lock";

/// One registered oracle arm.
#[derive(Debug, Clone)]
pub struct OracleSpec {
    /// Stable key naming the arm in the lock file.
    pub key: String,
    /// Workspace-relative file holding the function.
    pub file: String,
    /// Enclosing impl type, if a method.
    pub ctx: Option<String>,
    /// Function name.
    pub name: String,
}

impl OracleSpec {
    pub fn new(key: &str, file: &str, ctx: Option<&str>, name: &str) -> OracleSpec {
        OracleSpec {
            key: key.to_string(),
            file: file.to_string(),
            ctx: ctx.map(str::to_string),
            name: name.to_string(),
        }
    }

    fn qualified(&self) -> String {
        match &self.ctx {
            Some(c) => format!("{}::{}::{}", self.file, c, self.name),
            None => format!("{}::{}", self.file, self.name),
        }
    }
}

/// The workspace's registered oracle arms — one per toggle's verbatim
/// ground-truth path. Additions here require a matching `bless-oracles`
/// run; removals require pruning the lock (checked both ways).
pub fn default_registry() -> Vec<OracleSpec> {
    vec![
        OracleSpec::new(
            "reference-postings-scan",
            "crates/searchidx/src/topk.rs",
            Some("TopKProcessor"),
            "process_reference",
        ),
        OracleSpec::new(
            "static-admission-gate",
            "crates/core/src/selection.rs",
            None,
            "admit_list",
        ),
        OracleSpec::new(
            "closedloop-serving",
            "crates/engine/src/cluster.rs",
            Some("SearchCluster"),
            "run_queries",
        ),
    ]
}

/// FNV-1a 64-bit over the normalized token stream.
fn fnv1a64(chunks: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in chunks {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn kind_tag(k: TokKind) -> u8 {
    match k {
        TokKind::Ident => 1,
        TokKind::Lifetime => 2,
        TokKind::Num => 3,
        TokKind::Str => 4,
        TokKind::Char => 5,
        TokKind::Punct => 6,
    }
}

/// Hash one parsed fn item's token extent (signature + body).
fn hash_item(toks: &[crate::lexer::Tok], item: &FnItem) -> u64 {
    let bytes = toks[item.sig_start..item.body_end].iter().flat_map(|t| {
        std::iter::once(kind_tag(t.kind))
            .chain(t.text.bytes())
            .chain(std::iter::once(0u8))
    });
    fnv1a64(bytes)
}

/// Compute the current witness for every registered oracle whose file
/// exists under `root`. Missing files are skipped so scratch fixture
/// trees stay usable; the real-workspace test pins their existence.
/// A present file whose registered fn cannot be found is a violation.
pub fn compute_witness(
    root: &Path,
    specs: &[OracleSpec],
    violations: &mut Vec<Violation>,
) -> io::Result<Vec<(String, u64, String)>> {
    let mut out = Vec::new();
    for spec in specs {
        let path = root.join(&spec.file);
        if !path.is_file() {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        let ast = parse_file(&spec.file, &src);
        let found = ast
            .fns
            .iter()
            .find(|f| f.name == spec.name && f.ctx.as_deref() == spec.ctx.as_deref());
        match found {
            Some(item) if item.has_body() => {
                out.push((
                    spec.key.clone(),
                    hash_item(&ast.toks, item),
                    spec.qualified(),
                ));
            }
            _ => violations.push(Violation {
                file: spec.file.clone(),
                line: 1,
                rule: "oracle-missing-fn",
                detail: format!(
                    "registered oracle `{}` ({}) not found in file",
                    spec.key,
                    spec.qualified()
                ),
            }),
        }
    }
    Ok(out)
}

/// Render the lock file text for the current witness.
pub fn bless_text(root: &Path, specs: &[OracleSpec]) -> io::Result<(String, Vec<Violation>)> {
    let mut violations = Vec::new();
    let witness = compute_witness(root, specs, &mut violations)?;
    let mut text = String::from(
        "# Oracle-freeze witness. One line per registered bit-identity arm:\n\
         #   <key> <fnv1a64 of normalized token stream> <file::Ctx::fn>\n\
         # Regenerate ONLY via: cargo run -p xtask -- bless-oracles\n",
    );
    for (key, hash, qualified) in &witness {
        text.push_str(&format!("{key} {hash:016x} {qualified}\n"));
    }
    Ok((text, violations))
}

/// Check the committed lock against the current witness.
pub fn check(root: &Path, specs: &[OracleSpec]) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    let witness = compute_witness(root, specs, &mut violations)?;
    if witness.is_empty() {
        // Scratch tree with none of the registered files: nothing to
        // freeze, nothing to check.
        return Ok(violations);
    }
    let lock_path = root.join(LOCK_REL_PATH);
    let lock = match fs::read_to_string(&lock_path) {
        Ok(t) => t,
        Err(_) => {
            violations.push(Violation {
                file: LOCK_REL_PATH.to_string(),
                line: 1,
                rule: "oracle-lock-missing",
                detail: format!(
                    "{} oracle arm(s) registered but no lock file; run `cargo run -p xtask -- bless-oracles`",
                    witness.len()
                ),
            });
            return Ok(violations);
        }
    };
    let mut locked: Vec<(String, u64, usize)> = Vec::new();
    for (idx, raw) in lock.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(hash)) = (parts.next(), parts.next()) else {
            violations.push(Violation {
                file: LOCK_REL_PATH.to_string(),
                line: line_no,
                rule: "oracle-lock-syntax",
                detail: format!("unparseable lock line: `{line}`"),
            });
            continue;
        };
        let Ok(hash) = u64::from_str_radix(hash, 16) else {
            violations.push(Violation {
                file: LOCK_REL_PATH.to_string(),
                line: line_no,
                rule: "oracle-lock-syntax",
                detail: format!("bad hash on lock line: `{line}`"),
            });
            continue;
        };
        locked.push((key.to_string(), hash, line_no));
    }
    for (key, hash, qualified) in &witness {
        match locked.iter().find(|(k, _, _)| k == key) {
            Some((_, locked_hash, _)) if locked_hash == hash => {}
            Some((_, locked_hash, _)) => violations.push(Violation {
                file: specs
                    .iter()
                    .find(|s| &s.key == key)
                    .map(|s| s.file.clone())
                    .unwrap_or_else(|| LOCK_REL_PATH.to_string()),
                line: 1,
                rule: "oracle-freeze",
                detail: format!(
                    "oracle `{key}` ({qualified}) was edited: witness {hash:016x} != lock {locked_hash:016x}; if intentional, run `cargo run -p xtask -- bless-oracles`"
                ),
            }),
            None => violations.push(Violation {
                file: LOCK_REL_PATH.to_string(),
                line: 1,
                rule: "oracle-lock-missing",
                detail: format!(
                    "oracle `{key}` ({qualified}) has no lock entry; run `cargo run -p xtask -- bless-oracles`"
                ),
            }),
        }
    }
    for (key, _, line_no) in &locked {
        if !witness.iter().any(|(k, _, _)| k == key) {
            violations.push(Violation {
                file: LOCK_REL_PATH.to_string(),
                line: *line_no,
                rule: "oracle-lock-stale",
                detail: format!("lock entry `{key}` matches no registered oracle in this tree"),
            });
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct Scratch {
        root: PathBuf,
    }

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let root =
                std::env::temp_dir().join(format!("xtask-oracle-{}-{}", tag, std::process::id()));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).unwrap();
            Scratch { root }
        }

        fn write(&self, rel: &str, contents: &str) {
            let p = self.root.join(rel);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(p, contents).unwrap();
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    fn specs() -> Vec<OracleSpec> {
        vec![OracleSpec::new(
            "toy-arm",
            "crates/toy/src/lib.rs",
            Some("Engine"),
            "reference",
        )]
    }

    const ARM_V1: &str =
        "pub struct Engine;\nimpl Engine {\n    pub fn reference(&self, x: u32) -> u32 {\n        x + 1\n    }\n}\n";

    #[test]
    fn bless_then_check_roundtrips() {
        let s = Scratch::new("roundtrip");
        s.write("crates/toy/src/lib.rs", ARM_V1);
        let (lock, v) = bless_text(&s.root, &specs()).unwrap();
        assert!(v.is_empty());
        s.write(LOCK_REL_PATH, &lock);
        let v = check(&s.root, &specs()).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn comment_and_whitespace_edits_keep_the_witness() {
        let s = Scratch::new("ws");
        s.write("crates/toy/src/lib.rs", ARM_V1);
        let (lock, _) = bless_text(&s.root, &specs()).unwrap();
        s.write(LOCK_REL_PATH, &lock);
        s.write(
            "crates/toy/src/lib.rs",
            "pub struct Engine;\nimpl Engine {\n    // reformatted, commented — still the same tokens\n    pub fn reference(&self, x: u32) -> u32 { x + 1 }\n}\n",
        );
        let v = check(&s.root, &specs()).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn code_edit_without_bless_fails_then_rebless_passes() {
        let s = Scratch::new("edit");
        s.write("crates/toy/src/lib.rs", ARM_V1);
        let (lock, _) = bless_text(&s.root, &specs()).unwrap();
        s.write(LOCK_REL_PATH, &lock);
        s.write(
            "crates/toy/src/lib.rs",
            "pub struct Engine;\nimpl Engine {\n    pub fn reference(&self, x: u32) -> u32 {\n        x + 2\n    }\n}\n",
        );
        let v = check(&s.root, &specs()).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "oracle-freeze");
        assert!(v[0].detail.contains("toy-arm"));
        let (lock2, _) = bless_text(&s.root, &specs()).unwrap();
        s.write(LOCK_REL_PATH, &lock2);
        assert!(check(&s.root, &specs()).unwrap().is_empty());
    }

    #[test]
    fn missing_lock_and_stale_entries_are_flagged() {
        let s = Scratch::new("lock");
        s.write("crates/toy/src/lib.rs", ARM_V1);
        let v = check(&s.root, &specs()).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "oracle-lock-missing");

        let (lock, _) = bless_text(&s.root, &specs()).unwrap();
        s.write(
            LOCK_REL_PATH,
            &format!("{lock}ghost-arm 00000000deadbeef gone.rs::x\n"),
        );
        let v = check(&s.root, &specs()).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "oracle-lock-stale");
    }

    #[test]
    fn registered_fn_missing_from_present_file_is_flagged() {
        let s = Scratch::new("missing");
        s.write("crates/toy/src/lib.rs", "pub fn unrelated() {}\n");
        let mut v = Vec::new();
        let w = compute_witness(&s.root, &specs(), &mut v).unwrap();
        assert!(w.is_empty());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "oracle-missing-fn");
    }

    #[test]
    fn default_registry_keys_are_unique() {
        let specs = default_registry();
        let mut keys: Vec<&str> = specs.iter().map(|s| s.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), specs.len());
    }
}
