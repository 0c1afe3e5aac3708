//! The lint gate gating itself: the real workspace must scan clean, and
//! each rule must fire on a deliberately planted violation (so a silent
//! scanner regression cannot pass CI).

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// A scratch workspace tree that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("xtask-lint-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.0.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, contents).unwrap();
    }

    fn lint(&self) -> Vec<xtask::Violation> {
        xtask::lint_tree(&self.0).unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn the_real_workspace_is_clean() {
    let root = repo_root();
    let violations = xtask::lint_tree(&root).unwrap();
    assert!(
        violations.is_empty(),
        "workspace lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Pin that the seed-pure serving modules really exist: a rename
    // would turn the sim-rng-only rule into a silent no-op.
    for file in xtask::SIM_RNG_ONLY_FILES {
        assert!(
            root.join(file).is_file(),
            "{file} missing from the workspace"
        );
    }
}

#[test]
fn planted_wall_clock_is_caught() {
    let s = Scratch::new("clock");
    s.write(
        "crates/flashsim/src/lib.rs",
        "#![forbid(unsafe_code)]\nuse std::time::Instant;\npub fn t() { let _ = Instant::now(); }\n",
    );
    let v = s.lint();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "no-wall-clock");
    assert_eq!(v[0].line, 2);
    // The same token in a criterion micro-benchmark is allowed.
    let s2 = Scratch::new("clock-allow");
    s2.write(
        "crates/bench/benches/x.rs",
        "use std::time::Instant;\npub fn t() { let _ = Instant::now(); }\n",
    );
    assert!(s2.lint().is_empty());
    // A figure binary and the cluster module are not harnesses: only
    // `benchmark/` times the simulator.
    for file in ["crates/bench/src/bin/x.rs", "crates/engine/src/cluster.rs"] {
        let s3 = Scratch::new("clock-deny");
        s3.write(
            file,
            "use std::time::Instant;\npub fn t() { let _ = Instant::now(); }\n",
        );
        let v = s3.lint();
        assert_eq!(v.len(), 1, "{file}: {v:?}");
        assert_eq!(v[0].rule, "no-wall-clock");
    }
}

#[test]
fn planted_device_bypass_is_caught() {
    let s = Scratch::new("bypass");
    s.write(
        "crates/engine/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn sneak(d: &mut flashsim::Nand) { d.erase(0); }\n",
    );
    let v = s.lint();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "no-device-bypass");
    // Inside the device layer the same call is implementation, not bypass.
    let s2 = Scratch::new("bypass-allow");
    s2.write(
        "crates/flashsim/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn gc(d: &mut Nand) { d.erase(0); }\n",
    );
    assert!(s2.lint().is_empty());
}

#[test]
fn planted_nand_compute_bypass_is_caught() {
    let s = Scratch::new("compute-bypass");
    s.write(
        "crates/searchidx/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn sneak(d: &mut SsdDisk, e: Extent, desc: &OffloadDescriptor) { d.offload_read(e, desc); }\n",
    );
    let v = s.lint();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "no-nand-compute-bypass");
    assert_eq!(v[0].line, 2);
    // The engine routing around the request path is the same bypass.
    let s2 = Scratch::new("compute-bypass-engine");
    s2.write(
        "crates/engine/src/engine.rs",
        "pub fn fast(d: &mut SsdDisk, e: Extent, desc: &OffloadDescriptor) { d.offload_read(e, desc); }\n",
    );
    let v2 = s2.lint();
    assert_eq!(v2.len(), 1, "{v2:?}");
    assert_eq!(v2[0].rule, "no-nand-compute-bypass");
    // Inside the device layer the same call is the implementation of the
    // request path, not a bypass.
    let s3 = Scratch::new("compute-bypass-allow");
    s3.write(
        "crates/flashsim/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn dispatch(d: &mut SsdDisk, e: Extent, desc: &OffloadDescriptor) { d.offload_read(e, desc); }\n",
    );
    assert!(s3.lint().is_empty());
    // Mentions in comments and strings are not calls.
    let s4 = Scratch::new("compute-bypass-prose");
    s4.write(
        "crates/demo/src/lib.rs",
        "// documented: the SSD's .offload_read( entry point\npub const HELP: &str = \".offload_read( is device-internal\";\n",
    );
    assert!(s4.lint().is_empty());
}

#[test]
fn planted_admission_bypass_is_caught() {
    let s = Scratch::new("admission");
    s.write(
        "crates/engine/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn sneak(s: &mut Store, d: &mut Dev) { s.offer(1, 2, 3, 4, d); }\n",
    );
    let v = s.lint();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "no-admission-bypass");
    assert_eq!(v[0].line, 2);
    // Seeding below the gate is the same bypass.
    let s2 = Scratch::new("admission-seed");
    s2.write(
        "crates/workload/src/gen.rs",
        "pub fn warm(s: &mut Store, d: &mut Dev) { s.seed_static(7, 1, 128, d); }\n",
    );
    let v2 = s2.lint();
    assert_eq!(v2.len(), 1, "{v2:?}");
    assert_eq!(v2[0].rule, "no-admission-bypass");
    // Inside the cache manager the same call *is* the gate's output, and
    // the store-level microbenchmarks deliberately measure below it.
    let s3 = Scratch::new("admission-allow");
    s3.write(
        "crates/core/src/manager.rs",
        "pub fn flush(s: &mut Store, d: &mut Dev) { s.offer(1, 2, 3, 4, d); }\n",
    );
    s3.write(
        "crates/bench/benches/cache_ops.rs",
        "fn bench(s: &mut Store, d: &mut Dev) { s.offer(1, 2, 3, 4, d); s.seed_static(7, 1, 128, d); }\n",
    );
    assert!(s3.lint().is_empty());
    // `seed_static_from_log` is the engine's *gated* warm-up path, not a
    // match for the raw token.
    let s4 = Scratch::new("admission-fromlog");
    s4.write(
        "crates/engine/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn warm(e: &mut Engine) { e.seed_static_from_log(100); }\n",
    );
    assert!(s4.lint().is_empty());
}

#[test]
fn planted_segment_bypass_is_caught() {
    let s = Scratch::new("segment");
    s.write(
        "crates/engine/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn sneak(l: &mut LiveIndex<I>) { l.write_segment_mut().add_doc(&[(0, 1)]); }\n",
    );
    let v = s.lint();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "no-segment-bypass");
    assert_eq!(v[0].line, 2);
    // Reaching into the WAL is the same bypass.
    let s2 = Scratch::new("segment-wal");
    s2.write(
        "crates/bench/src/mutation.rs",
        "pub fn sneak(l: &mut LiveIndex<I>) { l.wal_mut().truncate(0); }\n",
    );
    let v2 = s2.lint();
    assert_eq!(v2.len(), 1, "{v2:?}");
    assert_eq!(v2[0].rule, "no-segment-bypass");
    // Inside crates/searchidx the same calls are the segment module's
    // own implementation and tests.
    let s3 = Scratch::new("segment-allow");
    s3.write(
        "crates/searchidx/src/segment/live.rs",
        "pub fn grow(l: &mut LiveIndex<I>) { l.write_segment_mut().add_doc(&[(0, 1)]); l.wal_mut().truncate(0); }\n",
    );
    assert!(s3.lint().is_empty());
    // Mentions in comments and strings are not calls.
    let s4 = Scratch::new("segment-prose");
    s4.write(
        "crates/demo/src/lib.rs",
        "// `.write_segment_mut(` and `.wal_mut(` are searchidx-internal\npub const HELP: &str = \".wal_mut( bypasses the WAL\";\n",
    );
    assert!(s4.lint().is_empty());
}

#[test]
fn undocumented_pub_enum_is_caught() {
    let s = Scratch::new("enumdoc");
    s.write(
        "crates/demo/src/lib.rs",
        "#[derive(Debug)]\npub enum Toggle {\n    On,\n    Off,\n}\n",
    );
    let v = s.lint();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "pub-enum-doc");
    assert_eq!(v[0].line, 2);
    // A doc comment above the attributes satisfies the rule.
    let s2 = Scratch::new("enumdoc-ok");
    s2.write(
        "crates/demo/src/lib.rs",
        "/// The toggle.\n#[derive(Debug)]\npub enum Toggle {\n    On,\n    Off,\n}\n",
    );
    assert!(s2.lint().is_empty());
}

#[test]
fn planted_adhoc_rng_in_serving_modules_is_caught() {
    let s = Scratch::new("simrng");
    s.write(
        "crates/workload/src/arrival.rs",
        "pub fn jitter() -> u64 { thread_rng().next_u64() }\n",
    );
    let v = s.lint();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "sim-rng-only");
    assert_eq!(v[0].file, "crates/workload/src/arrival.rs");
    assert_eq!(v[0].line, 1);

    let s2 = Scratch::new("simrng-serving");
    s2.write(
        "crates/engine/src/serving.rs",
        "use std::collections::hash_map::RandomState;\npub fn h() -> RandomState { RandomState::new() }\n",
    );
    let v2 = s2.lint();
    assert!(!v2.is_empty(), "{v2:?}");
    assert!(v2.iter().all(|v| v.rule == "sim-rng-only"), "{v2:?}");
    assert_eq!(v2[0].line, 1);

    // The same token outside the seed-pure modules is not this rule's
    // business (no other rule claims `thread_rng` either).
    let s3 = Scratch::new("simrng-elsewhere");
    s3.write(
        "crates/demo/src/lib.rs",
        "pub fn jitter() -> u64 { thread_rng().next_u64() }\n",
    );
    assert!(s3.lint().is_empty());
}

#[test]
fn planted_wall_clock_in_serving_modules_trips_both_rules() {
    // `Instant` in the serving front-end is doubly wrong: it is a
    // simulation crate (no-wall-clock) and a seed-pure module
    // (sim-rng-only). Both rules must report it.
    let s = Scratch::new("simrng-clock");
    s.write(
        "crates/engine/src/serving.rs",
        "use std::time::Instant;\npub fn t() { let _ = Instant::now(); }\n",
    );
    let v = s.lint();
    let rules: Vec<&str> = v.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&"no-wall-clock"), "{v:?}");
    assert!(rules.contains(&"sim-rng-only"), "{v:?}");
}
