#!/usr/bin/env bash
# Builds the program (the release `experiments` and `softwatt-serve`
# binaries) and the benchmark from source, then runs the benchmark:
#
#   bash perfbench/run.sh --workload paper_cold --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p softwatt-bench \
    --bin experiments --bin softwatt-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
