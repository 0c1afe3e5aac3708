#!/usr/bin/env bash
# A/A check: run the suite twice on the same tree and compare the two result
# files with the benchmark's own bounds. Passes only if every workload ×
# end-to-end metric row is "unchanged" and every sim_fingerprint is equal.
# Arguments (--seed, --seconds, --workload, --smoke) go to both runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
"$here/run.sh" "$@" --out "$here/out/aa-1.json"
"$here/run.sh" "$@" --out "$here/out/aa-2.json"
"$target/release/benchmark" compare "$here/out/aa-1.json" "$here/out/aa-2.json"
