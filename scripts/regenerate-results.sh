#!/bin/sh
# Regenerate the committed results/* artifacts. The campaign artifacts
# are spec lists (results/specs/<artifact>.jsonl, one `faultlab spec`
# line per app) run by `faultlab run-config`; Table 1 is `faultlab
# profile` and Tables 5-7 are `faultlab trace`; what a spec cannot state
# yet still has a binary. Everything is deterministic in (spec, seed), so
# `git diff --exit-code results/` afterwards must be clean. Exits
# non-zero when a run misses a contract floor. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."

cargo build --release -p fl-cli -p fl-bench
faultlab=target/release/faultlab
for list in results/specs/*.jsonl; do
    $faultlab run-config "$list" --out results > /dev/null
done
$faultlab profile wavetoy moldyn climsim > results/table1.txt
# <table number>:<app>
for table in 5:wavetoy 6:moldyn 7:climsim; do
    out=results/table${table%%:*}
    $faultlab trace "${table#*:}" --samples 80 > "$out.txt"
    $faultlab trace "${table#*:}" --samples 80 --tsv > "$out.tsv"
done
# <binary>:<trial count of the committed file>
for run in message_analysis:100 ablations:60 fault_models:40; do
    target/release/"${run%%:*}" ${run#*:} > /dev/null
done
sh results/embed_results.sh > /dev/null
scripts/tracked-numbers.sh > results/tracked_numbers.txt
