#!/bin/sh
# The numbers ROADMAP aim 2 tracks, computed the same way every time:
#
#   code lines    lines of crates/<crate>/src/**/*.rs before the file's
#                 test module (the first unindented `#[cfg(test)]`),
#                 neither blank nor `//` comments
#   root names    names a crate's lib.rs re-exports with `pub use`
#   shim lines    code lines, same rule, of shims/<crate>/src/**/*.rs
#   CI steps      `      - name:` lines of .github/workflows/ci.yml
#   cold starts   `MpiWorld::new(` / `new_with_code(` calls in the code
#                 lines (same rule) of crates/{core,ft,guard,snapshot}/src,
#                 then of crates/bench/src: worlds that load the image
#                 instead of taking a `Launch`
#   round-0 starts  `launch.world(` calls, same lines: worlds that start
#                 at round 0 instead of forking from a checkpoint
#   hidden items  `#[doc(hidden)]` attributes in the code lines (same
#                 rule) of crates/*/src: public items kept out of the docs
#
# Prints to stdout; CI regenerates results/tracked_numbers.txt from it
# and diffs. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."

code_lines() { # files...
    awk 'FNR == 1 { live = 1 }
         /^#\[cfg\(test\)\]/ { live = 0 }
         live && !/^[[:space:]]*($|\/\/)/ { n++ }
         END { print n + 0 }' "$@"
}

per_dir() { # total-label src-dirs...
    label=$1 total=0
    shift
    for dir; do
        n=$(code_lines $(find "$dir" -name '*.rs' | sort))
        total=$((total + n))
        printf '%-28s %6d\n' "$dir" "$n"
    done
    printf '%-28s %6d\n' "$label" "$total"
}

calls() { # regex files...
    re=$1
    shift
    awk -v re="$re" 'FNR == 1 { live = 1 }
         /^#\[cfg\(test\)\]/ { live = 0 }
         live && !/^[[:space:]]*\/\// { n += gsub(re, "") }
         END { print n + 0 }' "$@"
}

cold_starts() { # files...
    calls 'MpiWorld::new\\(|new_with_code\\(' "$@"
}

root_names() { # lib.rs
    awk '/^pub use / { live = 1 }
         live { text = text $0 }
         live && /;/ { live = 0 }
         END {
             gsub(/pub use [a-z_:]*::\{?/, ",", text)
             n = split(text, names, /[,;{}[:space:]]+/)
             for (i = 1; i <= n; i++) if (names[i] != "") count++
             print count + 0
         }' "$1"
}

echo "# code lines per crate (scripts/tracked-numbers.sh)"
per_dir "all crates" crates/*/src
echo
echo "# tracked sums"
printf '%-28s %6d\n' "crates/mpi/src/world.rs" "$(code_lines crates/mpi/src/world.rs)"
printf '%-28s %6d\n' "mpi + core + ft + guard" \
    "$(code_lines $(find crates/mpi/src crates/core/src crates/ft/src crates/guard/src -name '*.rs' | sort))"
printf '%-28s %6d\n' "core + cli + serve" \
    "$(code_lines $(find crates/core/src crates/cli/src crates/serve/src -name '*.rs' | sort))"
echo
echo "# names re-exported at the crate root"
printf '%-28s %6d\n' "fl_machine" "$(root_names crates/machine/src/lib.rs)"
printf '%-28s %6d\n' "fl_mpi" "$(root_names crates/mpi/src/lib.rs)"
printf '%-28s %6d\n' "fl_inject" "$(root_names crates/core/src/lib.rs)"
echo
echo "# code lines per shim"
per_dir "all shims" shims/*/src
echo
echo "# named CI steps"
printf '%-28s %6d\n' ".github/workflows/ci.yml" \
    "$(grep -c '^      - name:' .github/workflows/ci.yml)"
echo
echo "# worlds built by loading the image (non-test call sites)"
printf '%-28s %6d\n' "core + ft + guard + snapshot" \
    "$(cold_starts $(find crates/core/src crates/ft/src crates/guard/src crates/snapshot/src -name '*.rs' | sort))"
printf '%-28s %6d\n' "crates/bench/src" "$(cold_starts $(find crates/bench/src -name '*.rs' | sort))"
echo
echo "# worlds started at round 0 (non-test \`launch.world(\` call sites)"
printf '%-28s %6d\n' "core + ft + guard + snapshot" \
    "$(calls 'launch\\.world\\(' $(find crates/core/src crates/ft/src crates/guard/src crates/snapshot/src -name '*.rs' | sort))"
echo
echo "# hidden public items (non-test \`#[doc(hidden)]\` attributes)"
printf '%-28s %6d\n' "crates/*/src" \
    "$(calls '#\\[doc\\(hidden\\)\\]' $(find crates/*/src -name '*.rs' | sort))"
