#!/usr/bin/env bash
# What moved between two `dump_goldens` outputs — the evidence a re-pin
# of tests/trace_golden.rs quotes.  Produce one directory per commit with
#   cargo test -p gridflow-harness --test trace_golden -- --ignored dump_goldens
# (written to target/tmp/trace_golden/), then
#   scripts/golden-diff.sh <dirA> <dirB>
# prints `diff -rq` over the dumped `.jsonl` traces and, for each dumped
# `.json` payload (the kill→recover snapshot, the last checkpoints), a
# JSON-pointer diff: `- ptr` only in A, `+ ptr` only in B, `~ ptr a -> b`
# for a changed leaf.  Array indices are folded to `*` and equal lines
# counted, so a fleet of renumbered ids reads as a few lines.  Exits 1
# when anything differs.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 <dirA> <dirB>" >&2; exit 2; }

status=0
diff -rq --exclude='*.json' "$1" "$2" || status=1
python3 - "$1" "$2" <<'PY' || status=1
import collections, json, pathlib, sys

def leaves(value, pointer=""):
    """(pointer, index-folded pointer, leaf) for every leaf under value."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            yield from leaves(child, f"{pointer}/{key}")
    elif isinstance(value, list) and value:
        for i, child in enumerate(value):
            yield from leaves(child, f"{pointer}/{i}")
    else:
        folded = "/".join("*" if part.isdigit() else part for part in pointer.split("/"))
        yield pointer, folded, json.dumps(value)

a_dir, b_dir = (pathlib.Path(p) for p in sys.argv[1:])
moved = False
for name in sorted({p.name for d in (a_dir, b_dir) for p in d.glob("*.json")}):
    if not ((a_dir / name).exists() and (b_dir / name).exists()):
        print(f"{name}: only in one directory")
        moved = True
        continue
    a, b = ({p: (f, v) for p, f, v in leaves(json.loads((d / name).read_text()))}
            for d in (a_dir, b_dir))
    lines = collections.Counter()
    for pointer in a.keys() | b.keys():
        if pointer not in b:
            lines[f"- {a[pointer][0]}"] += 1
        elif pointer not in a:
            lines[f"+ {b[pointer][0]}"] += 1
        elif a[pointer][1] != b[pointer][1]:
            lines[f"~ {a[pointer][0]} {a[pointer][1]} -> {b[pointer][1]}"] += 1
    if lines:
        moved = True
        print(f"{name}:")
        for line in sorted(lines, key=lambda l: (l[2:], l[0])):
            print(f"  {line}" + (f"  (x{lines[line]})" if lines[line] > 1 else ""))
sys.exit(1 if moved else 0)
PY
exit $status
