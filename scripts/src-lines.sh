#!/usr/bin/env bash
# Non-test source lines per crate: in every crates/*/src/**/*.rs, the
# lines before the first `#[cfg(test)]` (the whole file when it has
# none).  The count the simplicity PRs in CHANGES.md quote.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { split(FILENAME, path, "/"); lines[path[2]]++; total++ }
    END {
        for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
