#!/usr/bin/env bash
# Builds the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default `.bench_build`); build output goes to stderr so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2

exec "$target/release/perfbench" "$@"
