#!/usr/bin/env bash
# Smoke tier of the benchmark, ready for CI to call: the unit tests,
# then all five workloads for half a second each with the correctness
# gate on. Writes no numbers; exits non-zero on any miss.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --offline --quiet
cargo run --release --offline --quiet -- all --smoke
