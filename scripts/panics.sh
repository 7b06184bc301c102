#!/usr/bin/env bash
# Panic sites per file: in the non-test part of every crates/*/src/**/*.rs
# except crates/bench (the lines before a file's first `#[cfg(test)]`, as
# in src-lines.sh), the occurrences of `.unwrap()`, `.expect("`,
# `panic!(` and `unreachable!(` outside `//` comments.  Prints one
# `count  file` row per file that has any, then the total.
#
#   scripts/panics.sh            the table
#   scripts/panics.sh --max N    the same, and exit 1 when the total exceeds N
set -euo pipefail
cd "$(dirname "$0")/.."

max=-1
case "${1:-}" in
  "") ;;
  --max) max="${2:?--max needs a number}" ;;
  *) echo "usage: scripts/panics.sh [--max N]" >&2; exit 2 ;;
esac

# shellcheck disable=SC2046  # paths under crates/ contain no spaces
awk -v max="$max" '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting {
        line = $0
        sub(/\/\/.*$/, "", line)
        n = gsub(/\.unwrap\(\)|\.expect\("|panic!\(|unreachable!\(/, "", line)
        if (n) { sites[FILENAME] += n; total += n }
    }
    END {
        for (file in sites) printf "%5d  %s\n", sites[file], file | "sort -k2"
        close("sort -k2")
        printf "%5d  total\n", total
        if (max >= 0 && total > max) {
            printf "panics: %d sites, more than --max %d\n", total, max > "/dev/stderr"
            exit 1
        }
    }' $(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort)
