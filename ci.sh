#!/usr/bin/env bash
# Local CI: the gate every change must pass.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
# Clippy carries the workspace rules (clippy.toml: no wall clock, no
# unordered std maps, no environment or core-count reads, no SSD write
# past the admission gate) and fails in seconds, before the test stages.
cargo clippy --workspace --all-targets -- -D warnings

echo "== non-test source size ratchet =="
# The ROADMAP's measure. Deleting code lowers the ceiling; a change that
# needs to raise it says why in its own PR. Last raised by 188: the
# accumulator's shut-run path and packed rank, and the doc walk's
# prime-factor test (+71 non-test lines), and their unit tests in topk.rs
# and corpus.rs (+117), which need private items (the accumulator, the
# rank, `doc_walk` and its `gcd` oracle). Last lowered by 26: the cache
# tiers' side maps (`MemResultCache::map`, `MemListCache::map`, the
# dynamic half of `ListStore::entries`) and their `list-map-agree`,
# `list-link-count` and `lru-map-agree` validators went when the recency
# list took ownership of its entries (-37 non-test lines, +11 in the
# `lru`/`segmented` unit tests, which now check the values they carry).
MAX_SRC_LINES=23517
src_lines=$(find crates -path '*/src/*' -name '*.rs' -print0 | xargs -0 cat | wc -l)
if [ "$src_lines" -gt "$MAX_SRC_LINES" ]; then
  echo "non-test source is $src_lines lines, above the ratchet of $MAX_SRC_LINES" >&2
  exit 1
fi
echo "$src_lines lines (ceiling $MAX_SRC_LINES)"

echo "== build (release) =="
cargo build --release --workspace

echo "== build bench binaries + micro-benchmarks =="
cargo build --release -p bench --bins --benches

echo "== committed figures: every figure, ablation and extension bin against results/ =="
# These bins print simulated quantities only, so their stdout is a pure
# function of the code. A change that moves any figure fails here; one
# that means to move it regenerates the file in the same change:
#   cargo run --release -q -p bench --bin <bin> > results/scale-0.1/<bin>.txt
for expected in results/scale-0.1/*.txt; do
  bin=$(basename "$expected" .txt)
  if ! cargo run --release -q -p bench --bin "$bin" | diff -u "$expected" -; then
    echo "$bin no longer prints $expected" >&2
    exit 1
  fi
done

echo "== tests =="
cargo test -q --workspace

echo "== postings equivalence (explicit) =="
cargo test --release -q -p searchidx --test postings_equivalence
# Release-only: the two backends in per-query lockstep over the pinned
# 400k-doc x 30k-query workload, block-max probe/prune counts pinned.
cargo test --release -q -p engine --test postings_lockstep

echo "== the one I/O path: deep-queue occupancy, golden ledger (explicit) =="
cargo test --release -q -p engine --test io_path_equivalence --test golden_ledger

echo "== admission equivalence (explicit) =="
cargo test --release -q -p engine --test admission_equivalence --test admission_audit

echo "== serving equivalence (explicit) =="
cargo test --release -q -p engine --test serving_equivalence

echo "== mutation equivalence (explicit) =="
cargo test --release -q -p engine --test mutation_equivalence
cargo test --release -q -p searchidx --test live_index

echo "== benchmark of record: its own tests + a smoke run of the suite =="
# benchmark/ is a package of its own, so the workspace stages above never
# build it: a crates/ change that breaks its correctness gate (fingerprints
# across reps, oracle agreement, refused ops) would otherwise pass CI.
(cd benchmark && cargo test --release --offline -q)
benchmark/run.sh --smoke --seconds 1

echo "== victim selection + equivalence suites under INVARIANT_AUDIT (debug) =="
INVARIANT_AUDIT=1 cargo test -q -p hybridcache --test victim_selection
INVARIANT_AUDIT=1 cargo test -q -p engine --test io_path_equivalence
# Every ledger row under per-mutation audits, depth 1 and deep; the rows
# run in parallel (~3.5 min on two cores: each FTL write re-validates the
# page map).
INVARIANT_AUDIT=1 cargo test -q -p engine --test golden_ledger
INVARIANT_AUDIT=1 cargo test -q -p engine --test admission_audit
INVARIANT_AUDIT=1 cargo test -q -p engine --test serving_equivalence --test serving_audit
INVARIANT_AUDIT=1 cargo test -q -p engine --test mutation_equivalence --test mutation_audit
INVARIANT_AUDIT=1 cargo test -q -p searchidx --test postings_equivalence

echo "CI OK"
