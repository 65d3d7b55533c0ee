#!/bin/sh
# Regenerate the "Measured results" section of EXPERIMENTS.md from the
# artifacts in results/. Run from the workspace root;
# `scripts/regenerate-results.sh` runs it last.
{
  echo "## Measured results (verbatim artifacts)"
  echo
  for f in table1 table2 table3 table4 table5 table6 table7 message_analysis ablations fault_models; do
    if [ -f "results/$f.txt" ]; then
      echo '```text'
      cat "results/$f.txt"
      echo '```'
      echo
    fi
  done
} > results/measured_section.md
echo "wrote results/measured_section.md"
