#!/usr/bin/env bash
# The one command: build the benchmark package, then run it.
#
#   benchmark/run.sh [--seed 42] [--seconds 10] [--workload NAME] [--smoke]
#                    [--out benchmark/out/result.json]
#       the suite: every workload, timed run then traced run, each in its own
#       child process; prints one line per "workload metric value unit",
#       writes the result file and one trace JSONL per workload.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run in one process; the last line of standard output is one JSON
#       object (the form the PR driver calls).
#
# Run it from the root of the checkout. Exits non-zero if the build fails
# (as it must where the repository's crates are absent) or any correctness
# check does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
# Build chatter goes to standard error: standard output carries results only.
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/benchmark" run "$@"
