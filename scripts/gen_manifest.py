#!/usr/bin/env python3
"""Regenerate stdlib/MANIFEST from the stdlib sources.

Each line is ``name<TAB>file<TAB>type`` where the type is the declared
surface type, printed back from its resolved form.  The acceptance
harness replays every line as a ``#check name : type`` pragma.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from differential import STDLIB, STDLIB_ORDER
from hott.parser import DefItem, PostulateItem, parse, resolve_expr
from hott.pretty import pretty


def manifest_lines() -> list[str]:
    """The lines of ``stdlib/MANIFEST``, from the sources and the printer."""
    names: set[str] = set()
    lines = []
    for filename in STDLIB_ORDER:
        module = parse((STDLIB / filename).read_text(), filename)
        for item in module.items:
            if isinstance(item, (DefItem, PostulateItem)):
                ty = resolve_expr(item.type, [], names)
                lines.append(f"{item.name}\t{filename}\t{pretty(ty)}")
                names.add(item.name)
    return lines


def main() -> None:
    lines = manifest_lines()
    (STDLIB / "MANIFEST").write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} entries")


if __name__ == "__main__":
    main()
