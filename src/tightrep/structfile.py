"""The line-oriented structure file format.

A file is a sequence of named blocks.  Each block starts with a header
line `@kind NAME` and carries key/value directives; operation tables
follow their `meet:` / `join:` / `mul:` line as n rows of n
whitespace-separated element names, and maps follow `map:` as lines
`x -> y`.  `#` starts a comment, blank lines separate blocks.  Example:

    @semilattice E
    elements: 0 1
    zero: 0
    meet:
    0 0
    0 1

    @representation pi
    domain: E
    codomain: B
    map:
    0 -> 0
    1 -> 1

Cross-references (domain:/codomain:) must name earlier blocks.  Every
block is validated as it is parsed; the first failure is reported with
its line number.  Rendering is canonical, so parse–render round-trips
are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattices import FiniteGenBoolAlg, FiniteMeetSemilattice, ValidationError
from .inverse_semigroups import FiniteInverseSemigroup, ISHomomorphism
from .representations import Representation


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


BLOCK_KINDS = ("semilattice", "algebra", "representation",
               "inverse_semigroup", "homomorphism")
# the class and the tables, in file order, of each table-defined kind
_TABLE_KINDS = {
    "semilattice": (FiniteMeetSemilattice, ("meet",)),
    "algebra": (FiniteGenBoolAlg, ("meet", "join")),
    "inverse_semigroup": (FiniteInverseSemigroup, ("mul",)),
}
# the class and the domain and codomain kinds of each map kind
_MAP_KINDS = {
    "representation": (Representation, "semilattice", "algebra"),
    "homomorphism": (ISHomomorphism, "inverse_semigroup", "inverse_semigroup"),
}


@dataclass
class Block:
    kind: str
    name: str
    line: int
    structure: object
    refs: dict[str, str]


class StructureFile:
    """Parsed blocks, in file order, addressable by name."""

    def __init__(self, blocks: list[Block]):
        self.blocks = list(blocks)
        self.by_name = {b.name: b for b in self.blocks}

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, name: str) -> Block:
        try:
            return self.by_name[name]
        except KeyError:
            raise ValidationError(f"unknown structure '{name}'") from None

    def __contains__(self, name):
        return name in self.by_name


class _Cursor:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def peek(self):
        """Next meaningful line as (lineno, stripped content), or None."""
        i = self.pos
        while i < len(self.lines):
            content = self.lines[i].split("#", 1)[0].strip()
            if content:
                return i + 1, content
            i += 1
        return None

    def take(self):
        found = self.peek()
        if found is None:
            return None
        lineno, content = found
        self.pos = lineno
        return lineno, content


def _parse_table(cursor, n, label, header_line):
    rows = []
    for _ in range(n):
        got = cursor.take()
        if got is None:
            raise ParseError(header_line,
                             f"{label} table needs {n} rows, file ended early")
        lineno, content = got
        entries = content.split()
        if len(entries) != n:
            raise ParseError(lineno,
                             f"expected {n} entries, got {len(entries)}")
        rows.append(entries)
    return rows


def _parse_map(cursor):
    entries = {}
    while True:
        found = cursor.peek()
        if found is None or found[1].startswith("@"):
            return entries
        lineno, content = found
        cursor.take()
        parts = [p.strip() for p in content.split("->")]
        if len(parts) != 2 or not all(parts):
            raise ParseError(lineno, f"expected 'x -> y', got '{content}'")
        if parts[0] in entries:
            raise ParseError(lineno, f"duplicate map entry for '{parts[0]}'")
        entries[parts[0]] = parts[1]


def _directive(content):
    key, sep, rest = content.partition(":")
    if not sep or " " in key.strip() or not key.strip():
        return None
    return key.strip(), rest.strip()


def _parse_block(cursor, blocks_so_far):
    got = cursor.take()
    if got is None:
        return None
    lineno, content = got
    if not content.startswith("@"):
        raise ParseError(lineno, f"expected a block header, got '{content}'")
    parts = content[1:].split()
    if len(parts) != 2 or parts[0] not in BLOCK_KINDS:
        kinds = ", ".join("@" + k for k in BLOCK_KINDS)
        raise ParseError(lineno,
                         f"block header must be one of {kinds} followed by a name")
    kind, name = parts
    if name in blocks_so_far:
        raise ParseError(lineno, f"duplicate structure name '{name}'")

    fields = {}
    tables = {}
    mapping = None
    while True:
        found = cursor.peek()
        if found is None or found[1].startswith("@"):
            break
        dline, dcontent = found
        cursor.take()
        directive = _directive(dcontent)
        if directive is None:
            raise ParseError(dline, f"expected 'key: value', got '{dcontent}'")
        key, value = directive
        if key == "elements":
            fields["elements"] = value.split()
            if not fields["elements"]:
                raise ParseError(dline, "elements list is empty")
        elif key in ("zero", "domain", "codomain"):
            if not value or len(value.split()) != 1:
                raise ParseError(dline, f"'{key}:' takes exactly one name")
            fields[key] = value
        elif key in ("meet", "join", "mul"):
            if value:
                raise ParseError(dline, f"'{key}:' starts a table on its own line")
            if "elements" not in fields:
                raise ParseError(dline, f"'{key}:' requires elements first")
            tables[key] = _parse_table(cursor, len(fields["elements"]), key, dline)
        elif key == "map":
            if value:
                raise ParseError(dline, "'map:' starts its entries on its own line")
            mapping = _parse_map(cursor)
        else:
            raise ParseError(dline, f"unknown directive '{key}:'")

    def need(*keys):
        for k in keys:
            present = (k in fields or k in tables
                       or (k == "map" and mapping is not None))
            if not present:
                raise ParseError(lineno, f"@{kind} {name} is missing '{k}:'")

    def resolve(ref_key, wanted_kinds):
        ref = fields[ref_key]
        block = blocks_so_far.get(ref)
        if block is None:
            raise ParseError(lineno, f"unknown structure '{ref}'")
        if block.kind not in wanted_kinds:
            wanted = " or ".join("@" + k for k in wanted_kinds)
            raise ParseError(
                lineno, f"{ref_key} of @{kind} must name {wanted}, "
                f"'{ref}' is @{block.kind}")
        return block

    try:
        if kind in _TABLE_KINDS:
            cls, labels = _TABLE_KINDS[kind]
            need("elements", "zero", *labels)
            structure = cls(fields["elements"], fields["zero"],
                            *(tables[label] for label in labels))
            refs = {}
        else:
            cls, dom_kind, cod_kind = _MAP_KINDS[kind]
            need("domain", "codomain", "map")
            dom = resolve("domain", (dom_kind,))
            cod = resolve("codomain", (cod_kind,))
            structure = cls(dom.structure, cod.structure, mapping)
            refs = {"domain": dom.name, "codomain": cod.name}
    except ValidationError as err:
        raise ParseError(lineno, f"in @{kind} {name}: {err}") from err

    return Block(kind, name, lineno, structure, refs)


def parse(text: str) -> StructureFile:
    """Parse and validate a structure file; errors carry line numbers."""
    cursor = _Cursor(text)
    blocks = []
    by_name = {}
    while True:
        block = _parse_block(cursor, by_name)
        if block is None:
            break
        blocks.append(block)
        by_name[block.name] = block
    return StructureFile(blocks)


def _render_table(out, label, elements, op):
    out.append(f"{label}:")
    for a in elements:
        out.append(" ".join(op(a, b) for b in elements))


def render_block(block: Block) -> str:
    s = block.structure
    out = [f"@{block.kind} {block.name}"]
    if block.kind in _TABLE_KINDS:
        out.append("elements: " + " ".join(s.elements))
        out.append(f"zero: {s.zero}")
        for label in _TABLE_KINDS[block.kind][1]:
            _render_table(out, label, s.elements, getattr(s, label))
    else:
        out.append(f"domain: {block.refs['domain']}")
        out.append(f"codomain: {block.refs['codomain']}")
        out.append("map:")
        for x in s.domain.elements:
            out.append(f"{x} -> {s.mapping[x]}")
    return "\n".join(out)


def render(structure_file: StructureFile) -> str:
    """Canonical text for a structure file; ends with a newline."""
    return "\n\n".join(render_block(b) for b in structure_file.blocks) + "\n"
