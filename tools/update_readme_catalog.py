#!/usr/bin/env python3
"""Regenerate README.md's scenario catalog table from the registry.

Reads `nexit_run --list-scenarios=tsv` on stdin and rewrites the block
between the `<!-- scenario-catalog:begin -->` / `:end` markers in the README
given as argv[1]. CI runs this (via tools/regen_docs.sh) and fails on any
diff, so the catalog can never drift from the registry.
"""

import sys


def main() -> int:
    readme_path = sys.argv[1] if len(sys.argv) > 1 else "README.md"
    begin, end = "<!-- scenario-catalog:begin -->", "<!-- scenario-catalog:end -->"

    rows = ["| scenario | reproduces |", "|---|---|"]
    for line in sys.stdin:
        name, desc = line.rstrip("\n").split("\t")
        rows.append(f"| `{name}` | {desc} |")
    table = "\n".join(rows)

    text = open(readme_path, encoding="utf-8").read()
    head, _, rest = text.partition(begin)
    if not rest:
        sys.exit(f"{readme_path}: missing {begin} marker")
    _, _, tail = rest.partition(end)
    if not tail:
        sys.exit(f"{readme_path}: missing {end} marker")
    open(readme_path, "w", encoding="utf-8").write(
        f"{head}{begin}\n{table}\n{end}{tail}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
