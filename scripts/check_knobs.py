#!/usr/bin/env python3
"""Check that README's knob table and the code agree on every MPS_* knob.

A knob is a full string literal "MPS_<NAME>" in a C++ source under src/,
tools/, bench/ or examples/ (what util/env.hpp's readers are handed).
The table is the first Markdown table after README's
"Knobs (environment variables):" line; its first column names knobs in
backticks, each written out in full.

Exits 1, listing the offenders, when:
  * code reads a knob the table does not name;
  * the table names a knob no code reads;
  * a table entry is shorthand (`_OFFSET`, `MPS_SHARD_*`) instead of a
    full name.

Usage:
    check_knobs.py [--root <repo root>]
"""

import argparse
import pathlib
import re
import sys

CODE_DIRS = ("src", "tools", "bench", "examples")
CODE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
LITERAL = re.compile(r'"(MPS_[A-Z0-9_]+)"')
TABLE_MARKER = "Knobs (environment variables):"
FULL_NAME = re.compile(r"MPS_[A-Z0-9_]*[A-Z0-9]")


def code_knobs(root):
    """Map each knob literal to the files that contain it."""
    found = {}
    for d in CODE_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in CODE_SUFFIXES or not path.is_file():
                continue
            for name in LITERAL.findall(path.read_text(encoding="utf-8")):
                found.setdefault(name, set()).add(str(path.relative_to(root)))
    return found


def table_knobs(readme):
    """(full knob names, shorthand entries) from the README knob table."""
    lines = readme.read_text(encoding="utf-8").splitlines()
    try:
        start = lines.index(TABLE_MARKER)
    except ValueError:
        sys.exit(f"check_knobs: no '{TABLE_MARKER}' line in {readme}")
    names, shorthand = set(), []
    in_table = False
    for line in lines[start + 1:]:
        if not line.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        first_cell = line.split("|")[1]
        for token in re.findall(r"`([^`]*)`", first_cell):
            if FULL_NAME.fullmatch(token):
                names.add(token)
            else:
                shorthand.append(token)
    if not in_table:
        sys.exit(f"check_knobs: no table after '{TABLE_MARKER}' in {readme}")
    return names, shorthand


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent)
    args = ap.parse_args()

    code = code_knobs(args.root)
    table, shorthand = table_knobs(args.root / "README.md")
    problems = []
    for name in sorted(set(code) - table):
        where = ", ".join(sorted(code[name]))
        problems.append(f"read in code but missing from README: {name} ({where})")
    for name in sorted(table - set(code)):
        problems.append(f"in README but read by no code: {name}")
    for token in shorthand:
        problems.append(f"README entry is not a full knob name: `{token}`")
    if problems:
        print("\n".join(problems))
        return 1
    print(f"check_knobs: {len(code)} knobs, README table and code agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
