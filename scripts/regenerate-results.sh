#!/bin/sh
# Regenerate the committed results/* artifacts. The campaign artifacts
# are spec lists (results/specs/<artifact>.jsonl, one `faultlab spec`
# line per app) run by `faultlab run-config`; what a spec cannot state
# yet still has a binary. Everything is deterministic in (spec, seed), so
# `git diff --exit-code results/` afterwards must be clean. Exits
# non-zero when a run misses a contract floor. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."

cargo build --release -p fl-cli -p fl-bench
for list in results/specs/*.jsonl; do
    target/release/faultlab run-config "$list" --out results > /dev/null
done
# <binary>:<trial count of the committed file>
for run in table1: table5: table6: table7: message_analysis:100 \
    ablations:60 ulfm_coverage:25 fault_models:40; do
    target/release/"${run%%:*}" ${run#*:} > /dev/null
done
sh results/embed_results.sh > /dev/null
scripts/tracked-numbers.sh > results/tracked_numbers.txt
