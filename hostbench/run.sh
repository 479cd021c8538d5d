#!/usr/bin/env bash
# Builds the `sachi` binary and the benchmark in release mode, then runs
# the benchmark. Run from the repository root:
#
#   bash hostbench/run.sh --workload lattice_sparse --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --locked --quiet --manifest-path "$root/Cargo.toml" -p sachi-cli >&2
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/sachi-hostbench" --sachi-bin "$target/release/sachi" \
  --trace-out "$target/hostbench-spans" "$@"
