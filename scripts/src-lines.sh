#!/usr/bin/env bash
# Non-test source lines per crate: in every crates/*/src/**/*.rs, the
# lines before the first `#[cfg(test)]` (the whole file when it has
# none).  The count the simplicity PRs in CHANGES.md quote; `total` is
# the crates/ rows.  The vendored serde stand-ins every durable byte is
# encoded through are listed after it, counted the same way, and then
# the five largest files under crates/, so the monoliths show.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src vendor/serde/src vendor/serde_derive/src vendor/serde_json/src -name '*.rs' |
    sort | xargs awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting {
        split(FILENAME, path, "/")
        if (path[1] == "vendor") vendored[path[1] "/" path[2]]++
        else { lines[path[2]]++; files[FILENAME]++; total++ }
    }
    END {
        for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
        for (crate in vendored) printf "%7d  %s\n", vendored[crate], crate | "sort -k2"
        close("sort -k2")
        for (file in files) printf "%7d  %s\n", files[file], file | "sort -rn | head -5"
    }'
