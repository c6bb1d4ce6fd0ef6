#!/usr/bin/env bash
# Gate for the benchmark crate: formatting, lints, unit tests, the
# zero-external-crate policy, and the smoke run. Offline; run from
# anywhere. The root workspace's ci.sh does not cover this crate.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --release --offline --all-targets -- -D warnings

echo "==> cargo test"
cargo test --release --offline

echo "==> dependency policy (zero external crates)"
# Every resolved dependency must live in this tree (path deps only):
# any line without an in-tree path is a smuggled external crate.
EXTERNAL="$(cargo tree --offline -e normal,build,dev --prefix none | grep -v '^$' | grep -v ' (/' || true)"
if [ -n "$EXTERNAL" ]; then
    echo "non-path dependencies detected:"
    echo "$EXTERNAL"
    exit 1
fi

echo "==> smoke run (one tiny round per workload)"
cargo run --release --offline --quiet -- --smoke
