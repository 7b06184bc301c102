#!/usr/bin/env bash
# Reader-less public surface: every `pub fn|struct|enum|trait|const|type`
# declared in the non-test part of a crates/*/src file (the lines before
# its first `#[cfg(test)]`, as in src-lines.sh) whose identifier occurs
# as a word in no other file under crates/, tests/, examples/ or
# benchmark/src/ and nowhere else in its own non-test part.  Comments do
# not count as readers, except fenced code in doc comments (doc-tests);
# nor do `use` declarations (a re-export or an import is not a use) or
# `impl` headers (implementing a trait for a type reads neither);
# crates/bench and benchmark/src count like any other reader, which is
# why the surface kept only for the frozen benchmark (`workers`,
# `threads`, agents' `net` / `wire`) passes without an entry below — its
# declarations say so instead.  Matching is by bare identifier, so an
# item sharing its name with anything that is read passes; what is
# listed has no reader at all.
#
# Prints one `file:line: name` per finding, then the summary line CI
# quotes; exits 1 when anything is listed or an allowlist entry no
# longer suppresses anything.
set -euo pipefail
cd "$(dirname "$0")/.."

# Items kept although nothing reads them: `name<TAB>reason`, the reason a
# paper section or an example; at most ten.
allow='
matchmake_with_history	paper §1: a deadline search "must be complemented by ... history information about the past execution of the task" (DESIGN.md §9 row)
'

# shellcheck disable=SC2046  # paths under these roots contain no spaces
awk -v allow="$allow" '
    BEGIN {
        n = split(allow, rows, "\n")
        for (i = 1; i <= n; i++)
            if (split(rows[i], cols, "\t") == 2) { allowed[cols[1]] = 0; nallowed++ }
    }
    FNR == 1 {
        own = (FILENAME ~ /^crates\/[^\/]+\/src\//)
        intest = 0
        fence = 0
        inuse = 0
    }
    {
        line = $0
        if (own && line ~ /^[[:space:]]*#\[cfg\(test\)\]/) intest = 1
        isdoc = match(line, /^[[:space:]]*\/\/[\/!]/)
        if (isdoc) {
            line = substr(line, RSTART + RLENGTH)
            if (line ~ /^[[:space:]]*```/) { fence = !fence; next }
            if (!fence) next
        } else {
            sub(/\/\/.*$/, "", line)
        }
        if (inuse || line ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?use[[:space:]]/) {
            inuse = (line !~ /;/)
            next
        }
        if (line ~ /^[[:space:]]*impl[[:space:]<]/) next
        if (own && !intest && !isdoc &&
            match(line, /(^|[[:space:]])pub +((const|unsafe|async) +)*(fn|struct|enum|trait|const|type) +[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/^.* /, "", name)
            ndecl++
            decl_name[ndecl] = name
            decl_file[ndecl] = FILENAME
            decl_line[ndecl] = FNR
            decls_here[FILENAME, name]++
        }
        n = split(line, toks, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            tok = toks[i]
            if (tok == "") continue
            if (!((tok, FILENAME) in seen)) { seen[tok, FILENAME] = 1; nfiles[tok]++ }
            if (own && !intest) uses_here[FILENAME, tok]++
        }
    }
    END {
        for (d = 1; d <= ndecl; d++) {
            name = decl_name[d]; file = decl_file[d]
            if (nfiles[name] > 1) continue
            if (uses_here[file, name] > decls_here[file, name]) continue
            if (name in allowed) { allowed[name]++; continue }
            printf "%s:%d: %s\n", file, decl_line[d], name
            found++
        }
        for (name in allowed)
            if (!allowed[name]) { printf "allowlist: `%s` suppresses nothing\n", name; found++ }
        printf "readerless: %d (%d allowlisted)\n", found, nallowed
        exit (found > 0)
    }' $(find crates tests examples benchmark/src -name '*.rs' | sort)
