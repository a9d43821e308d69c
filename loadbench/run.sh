#!/usr/bin/env bash
# Builds the release `iyp` binary and the load benchmark from source,
# then runs the benchmark against that binary. Arguments are passed
# through, e.g.:
#
#   bash loadbench/run.sh --workload paper_mix --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Cargo output goes to stderr;
# the last line of stdout is the JSON result.
set -euo pipefail

here="$(dirname "$0")"
# Both builds share one target directory (relative to the working
# directory, as Cargo resolves it).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"

cargo build --release --offline --quiet --bin iyp 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/loadbench" --iyp "$target/release/iyp" "$@"
