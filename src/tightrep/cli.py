"""Command-line front end.

Subcommands: validate, check, tighten, enumerate, search-gap, verify.
Reports are stable key/value lines; witness sets render sorted by the
declared element order, the empty set as {}.  Exit codes: 0 the command
ran (verdicts are data, not errors), 1 input or validation error, 2
internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .enumeration import (
    UniverseSpec,
    enumerate_semilattices,
    search_gap,
    verify_theorems,
)
from .inverse_semigroups import tighten_homomorphism
from .lattices import InvariantError, ValidationError
from .representations import (
    Representation,
    TightnessReport,
    restrict_to_generated_ideal,
    tighten,
    tightness_report,
)
from .structfile import (
    Block,
    ParseError,
    StructureFile,
    parse,
    render,
    render_block,
)


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for internal
    # breaches here, so route usage errors to code 1 instead.
    def error(self, message):
        raise CliInputError(message)


def _set_text(order_source, items) -> str:
    ordered = order_source.sort(items)
    return "{" + ", ".join(ordered) + "}"


def _report_lines(name: str, view: str, rep: Representation,
                  report: TightnessReport) -> list[str]:
    lines = [f"rep: {name}", f"view: {view}"]
    lines.append(f"cover_to_join: {report.cover_to_join.label}")
    if not report.cover_to_join.ok:
        w = report.cover_to_join.witness
        lines.append(f"witness_x: {w.element}")
        lines.append(f"witness_Z: {_set_text(rep.domain, w.cover)}")
    lines.append(f"tight: {report.tight.label}")
    if not report.tight.ok:
        w = report.tight.witness
        lines.append(f"witness_X: {_set_text(rep.domain, w.above)}")
        lines.append(f"witness_Y: {_set_text(rep.domain, w.disjoint)}")
        lines.append(f"witness_Z: {_set_text(rep.domain, w.cover)}")
    lines.append(f"nondegenerate: {report.nondegenerate.label}")
    if not report.nondegenerate.ok:
        lines.append(f"witness_a: {report.nondegenerate.witness}")
    return lines


def _representation_of(block: Block) -> Representation:
    if block.kind == "representation":
        return block.structure
    if block.kind == "homomorphism":
        return block.structure.restriction()
    raise CliInputError(
        f"'{block.name}' is @{block.kind}, need a representation or homomorphism")


def _apply_view(rep: Representation, view: str) -> Representation:
    if view == "full":
        return rep
    if view == "generated-ideal":
        return restrict_to_generated_ideal(rep)
    return tighten(rep).representation


def _read_structures(path) -> StructureFile:
    """Parse a structure file; bytes that are not UTF-8 are an input error."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len((data[:err.start].decode("utf-8") + "x").splitlines())
        raise CliInputError(
            f"line {line}: not valid UTF-8 (byte 0x{data[err.start]:02x} "
            f"at offset {err.start})") from None
    return parse(text)


def cmd_validate(args) -> int:
    sf = _read_structures(args.path)
    if not len(sf):
        raise CliInputError("no structures")
    print(f"ok: {len(sf)} structures")
    return 0


def cmd_check(args) -> int:
    sf = _read_structures(args.path)
    block = sf[args.rep]
    rep = _apply_view(_representation_of(block), args.view)
    report = tightness_report(rep)
    for line in _report_lines(args.rep, args.view, rep, report):
        print(line)
    return 0


def cmd_tighten(args) -> int:
    sf = _read_structures(args.path)
    block = sf[args.rep]
    if block.kind == "representation":
        tightening = tighten(block.structure)
        corner_kind, corner = "algebra", tightening.codomain.as_algebra()
        corestricted = block.structure.with_codomain(corner)
    elif block.kind == "homomorphism":
        tightening = tighten_homomorphism(block.structure)
        corner_kind, corner = "inverse_semigroup", tightening.corner
        corestricted = tightening.homomorphism
    else:
        raise CliInputError(
            f"'{block.name}' is @{block.kind}, need a representation or homomorphism")
    domain_block = sf[block.refs["domain"]]
    corner_name = block.refs["codomain"] + "_tightened"
    print(f"unit: {tightening.unit}")
    blocks = [
        domain_block,
        Block(corner_kind, corner_name, 0, corner, {}),
        Block(block.kind, block.name + "_tightened", 0, corestricted,
              {"domain": domain_block.name, "codomain": corner_name}),
    ]
    Path(args.out).write_text(render(StructureFile(blocks)), encoding="utf-8")
    print(f"wrote: {args.out}")
    return 0


def cmd_enumerate(args) -> int:
    count = 0
    for sl in enumerate_semilattices(args.size, args.up_to_iso):
        count += 1
        name = f"S{args.size}_{count}"
        print(render_block(Block("semilattice", name, 0, sl, {})))
        print()
    print(f"# count: {count}")
    return 0


def _spec_from_args(args) -> UniverseSpec:
    return UniverseSpec(
        max_semilattice_size=args.max_e,
        atom_counts=tuple(args.atoms),
        up_to_iso=args.up_to_iso)


def cmd_search_gap(args) -> int:
    found = 0
    for gap in search_gap(_spec_from_args(args)):
        found += 1
        E = gap.semilattice
        meet_rows = " | ".join(
            " ".join(E.meet(a, b) for b in E.elements) for a in E.elements)
        atoms = len(gap.algebra).bit_length() - 1
        w = gap.report.tight.witness
        print(f"gap: {found}")
        print(f"semilattice: size={len(E)} meet=[{meet_rows}]")
        print(f"algebra: P({atoms})")
        print("map: " + " ".join(
            f"{x}->{gap.representation.image(x)}" for x in E.elements))
        print(f"witness_X: {_set_text(E, w.above)}")
        print(f"witness_Y: {_set_text(E, w.disjoint)}")
        print(f"witness_Z: {_set_text(E, w.cover)}")
        print()
    print(f"found: {found}")
    return 0


def cmd_verify(args) -> int:
    summary = verify_theorems(_spec_from_args(args))
    for violation in summary.violations:
        print(f"violation: {violation}")
    print(f"semilattices: {summary.semilattices}")
    print(f"algebras: {summary.algebras}")
    print(f"representations: {summary.representations}")
    print(f"checks: {summary.checks}")
    print(f"violations: {len(summary.violations)}")
    return 0 if summary.ok else 1


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and shared by later ones.

    Each parse starts from a fresh namespace and `append` actions copy
    their list, so no value carries over from one `main` call to the next.
    """
    parser = _Parser(prog="tightrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a structure file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="tight / cover-to-join / non-degenerate verdicts")
    p.add_argument("path")
    p.add_argument("--rep", required=True, help="representation or homomorphism name")
    p.add_argument("--view", default="full",
                   choices=["full", "generated-ideal", "tightened"])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tighten", help="write the tightening corner to a new file")
    p.add_argument("path")
    p.add_argument("--rep", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tighten)

    p = sub.add_parser("enumerate", help="emit all semilattices of one size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search-gap",
                       help="stream cover-to-join representations that are not tight")
    p.add_argument("--max-e", type=int, required=True)
    p.add_argument("--atoms", type=int, action="append", required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.set_defaults(func=cmd_search_gap)

    p = sub.add_parser("verify", help="exhaustively verify the theorems on a universe")
    p.add_argument("--max-e", type=int, required=True)
    p.add_argument("--atoms", type=int, action="append", required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (CliInputError, ParseError, ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InvariantError as err:
        print(f"internal invariant breach: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
