"""
Structure files and the command line
====================================

Structures travel as a plain text format: named blocks with element
lists and operation tables.  The CLI parses, validates, checks, and
writes tightened corners; reports are stable key/value lines, so runs
are diffable byte for byte.
"""

import tempfile
from pathlib import Path

from tightrep.cli import main

FILE = """\
# the two-element chain onto one atom of P(2)

@semilattice E
elements: 0 1
zero: 0
meet:
0 0
0 1

@algebra B
elements: 0 1 2 12
zero: 0
meet:
0 0 0 0
0 1 0 1
0 0 2 2
0 1 2 12
join:
0 1 2 12
1 1 12 12
2 12 2 12
12 12 12 12

@representation pi
domain: E
codomain: B
map:
0 -> 0
1 -> 1
"""

with tempfile.TemporaryDirectory(prefix="tightrep_demo_") as name:
    workdir = Path(name)
    source = workdir / "counterexample.struct"
    source.write_text(FILE, encoding="utf-8")

    print("$ tightrep validate", source.name)
    main(["validate", str(source)])

    print("\n$ tightrep check", source.name, "--rep pi --view full")
    main(["check", str(source), "--rep", "pi", "--view", "full"])

    print("\n$ tightrep tighten", source.name, "--rep pi --out tightened.struct")
    corner = workdir / "tightened.struct"
    main(["tighten", str(source), "--rep", "pi", "--out", str(corner)])

    print("\n$ tightrep check tightened.struct --rep pi_tightened")
    main(["check", str(corner), "--rep", "pi_tightened"])

    print("\n$ tightrep search-gap --max-e 2 --atoms 2")
    main(["search-gap", "--max-e", "2", "--atoms", "2"])

    print("\n$ tightrep verify --max-e 3 --atoms 2")
    main(["verify", "--max-e", "3", "--atoms", "2"])
