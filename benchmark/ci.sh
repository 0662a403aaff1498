#!/usr/bin/env bash
# Format, lint, unit-test and smoke-run the benchmark package. Not wired
# into .github/workflows/ci.yml yet; run it from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release --quiet

# Every workload, untraced then traced, 3 s windows; then the bounds
# applied to the file against itself (exits non-zero on `regressed`).
cargo run --offline --release --quiet -- all --seconds 3 --sets 1 --out out/ci.json
cargo run --offline --release --quiet -- compare out/ci.json out/ci.json
