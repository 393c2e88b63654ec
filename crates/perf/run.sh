#!/usr/bin/env bash
# The benchmark's one command. Builds the workspace's release binaries
# (the benchmark and the executor the Unix-transport workload spawns)
# from the checkout this runs in, then hands its arguments to `dp-perf`:
#
#   bash crates/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash crates/perf/run.sh all | aa | compare A B
#
# Run it from the repository root. The build is offline. It is made
# against the published crates.io dependencies when cargo can resolve
# them without a network (a vendored directory or a filled registry
# cache); only when it cannot, every one of them is patched to the
# stand-in under crates/perf/stubs (see crates/perf/README.md). Which of
# the two was measured is printed with every result and stamped on
# every result file (`deps`): numbers from the two builds are not
# comparable.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
if [[ ! -f Cargo.toml || ! -f "$here/offline.toml" || "$here" != crates/perf ]]; then
    echo "run.sh: run me as \`bash crates/perf/run.sh\` from the repository root" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"

# Either build resolves the workspace anew and writes Cargo.lock; a lock
# file that was here before is put back as it was.
[[ -f Cargo.lock ]] && cp Cargo.lock "$CARGO_TARGET_DIR/Cargo.lock.before"
build() {
    cargo build --release --offline --quiet "$@" -p dp-perf -p sparklet --bins
}
status=0
if build 2>"$CARGO_TARGET_DIR/registry-build.log"; then
    export DP_PERF_DEPS=registry
elif build --config crates/perf/offline.toml >&2; then
    export DP_PERF_DEPS=stand-ins
else
    status=$?
    echo "run.sh: neither build succeeded; the one against the registry said:" >&2
    cat "$CARGO_TARGET_DIR/registry-build.log" >&2
fi
if [[ -f "$CARGO_TARGET_DIR/Cargo.lock.before" ]]; then
    mv "$CARGO_TARGET_DIR/Cargo.lock.before" Cargo.lock
fi
[[ $status -eq 0 ]] || exit "$status"

# Sockets and scratch files go under the build directory, inside the
# checkout; a relative path keeps Unix socket names short.
tmp="$(realpath -m --relative-to=. "$CARGO_TARGET_DIR")/tmp"
mkdir -p "$tmp"
TMPDIR="$tmp" exec "$CARGO_TARGET_DIR/release/dp-perf" "$@"
