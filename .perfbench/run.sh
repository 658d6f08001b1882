#!/usr/bin/env bash
# Build the `szx` CLI (repository workspace) and this harness in release
# mode, then run the harness with the given arguments. From the repository
# root:
#   bash .perfbench/run.sh --workload cesm-dram-rel --seed 1 --seconds 25 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); scratch
# files, and the span file of a traced run, to .perfbench-work/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p szx-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --szx "$CARGO_TARGET_DIR/release/szx" \
  --work "$root/.perfbench-work" "$@"
