#!/usr/bin/env bash
# Build the benchmark offline and run it; arguments go to the program.
#
#   bash benchmark/run.sh                                   the suite, every workload
#   bash benchmark/run.sh --trace                           the per-layer ladder
#   bash benchmark/run.sh --smoke                           ~1/20 size, for CI
#   bash benchmark/run.sh --compare benchmark/baseline/result.json
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Works from any directory: paths are taken from the repository root.
# The build goes to $CARGO_TARGET_DIR when set, else benchmark/target.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
