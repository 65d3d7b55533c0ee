#!/bin/sh
# Everything the root CI cannot see: format, lints, tests and a quick run
# of the nested workspace. Run from anywhere; needs no network.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --release --all-targets --offline -- -D warnings
cargo test --release --offline
cargo run --release --offline --quiet -- run --quick
# No deprecated or roadmap-doomed entry point may creep in: the changes
# this benchmark judges are not allowed to edit it.
if grep -rnE "run_trial|set_injection|set_message_fault|set_net_fault|run_(chaos|perturb|ft|coverage)_engine" src; then
    echo "check.sh: forbidden entry point used in benchmark/src" >&2
    exit 1
fi
echo "check.sh: all good"
