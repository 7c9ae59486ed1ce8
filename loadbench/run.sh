#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it from the repository
# root:
#   bash loadbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
# Build output goes to $CARGO_TARGET_DIR, or loadbench/target when unset.
set -euo pipefail
target="${CARGO_TARGET_DIR:-loadbench/target}"
cargo build --release --offline --quiet --manifest-path loadbench/Cargo.toml --bins 1>&2
exec "$target/release/loadbench" "$@"
