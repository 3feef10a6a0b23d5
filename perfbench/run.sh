#!/usr/bin/env bash
# Builds the release lopacityd from this checkout and the perfbench load
# generator, then runs one benchmark workload.
#
#   bash perfbench/run.sh --workload sweep|fresh|churn --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root); scratch state and span files go under it too. The
# last line of stdout is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/daemon" || ! -d "$root/crates/client" ]]; then
    echo "perfbench: no lopacity workspace next to $here; nothing to build or measure" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

(cd "$root" && cargo build --release --offline --quiet -p lopacity-daemon --bin lopacityd) >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin perfbench >&2

exec "$target/release/perfbench" \
    --daemon "$target/release/lopacityd" \
    --work "$target/perfbench-work" \
    --trace-dir "$target/perfbench-traces" \
    --root "$root" \
    --rustc "$(rustc --version)" \
    "$@"
