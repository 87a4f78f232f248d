"""The line-oriented structure file format.

A file is a sequence of named blocks.  Each block starts with a header
line `@kind NAME` and carries key/value directives; operation tables
follow their `meet:` / `join:` / `mul:` line as n rows of n
whitespace-separated element names (a block header that is not a row of
elements ends a short table, an error at the table's line), and maps
follow `map:` as lines `x -> y`.  Lines end at LF, CR LF or CR only; `#`
starts a comment that runs to the end of its line, and blank lines
separate blocks.  An element name is one token without whitespace or
`#`; a map line cannot name an element that contains `->`, nor a domain
element that starts with `@`.  Example:

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

A block holds each directive of its kind exactly once (tables after
`elements:`, `map:` last); any other directive, or a repeat, is an
error at its line.  Cross-references (domain:/codomain:) must name
earlier blocks.  Every block is validated as it is parsed; the first
failure is reported with its line number.  Rendering is canonical, so
parse–render round-trips are byte-stable.
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
# the class of each table-defined kind; it names its tables in `_TABLES`
_TABLE_KINDS = {"semilattice": FiniteMeetSemilattice,
                "algebra": FiniteGenBoolAlg,
                "inverse_semigroup": FiniteInverseSemigroup}
# the class and the domain and codomain kinds of each map kind
_MAP_KINDS = {
    "representation": (Representation, "semilattice", "algebra"),
    "homomorphism": (ISHomomorphism, "inverse_semigroup", "inverse_semigroup"),
}
# the directives, in file order, of each block kind (a table kind's are
# its class's constructor arguments)
_DIRECTIVES = {kind: ("elements", "zero", *cls._TABLES)
               for kind, cls in _TABLE_KINDS.items()}
_DIRECTIVES.update(dict.fromkeys(_MAP_KINDS, ("domain", "codomain", "map")))
_KNOWN_DIRECTIVES = set().union(*_DIRECTIVES.values())


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


def _lines(text: str) -> list[str]:
    r"""The lines of a text, broken only at "\n", "\r\n" and "\r"."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


class _Cursor:
    """A text's meaningful lines, as (lineno, content without its comment),
    kept last line first so that taking one pops it."""

    def __init__(self, text):
        self.rest = [(i, content) for i, line in enumerate(_lines(text), 1)
                     if (content := line.split("#", 1)[0].strip())][::-1]

    def take(self):
        """The next line, or None at the end."""
        return self.rest.pop() if self.rest else None

    def body(self):
        """Take the lines up to the next block header."""
        while self.rest and not self.rest[-1][1].startswith("@"):
            yield self.rest.pop()


def _header(content):
    """The (kind, name) of a block header line, or None."""
    parts = content[1:].split() if content.startswith("@") else ()
    return tuple(parts) if len(parts) == 2 and parts[0] in BLOCK_KINDS else None


def _parse_table(cursor, elements, label, header_line):
    """n rows of n entries; a block header with a non-element ends it early."""
    n = len(elements)
    rows = []
    for _ in range(n):
        got = cursor.take()
        if got is None:
            raise ParseError(header_line,
                             f"{label} table needs {n} rows, file ended early")
        lineno, content = got
        entries = content.split()
        if _header(content) and not set(entries) <= set(elements):
            raise ParseError(
                header_line, f"{label} table needs {n} rows, got {len(rows)} "
                f"before the block header at line {lineno}")
        if len(entries) != n:
            raise ParseError(lineno,
                             f"expected {n} entries, got {len(entries)}")
        rows.append(entries)
    return rows


def _parse_map(cursor):
    entries = {}
    for lineno, content in cursor.body():
        parts = [p.strip() for p in content.split("->")]
        if len(parts) != 2 or not all(parts):
            raise ParseError(lineno, f"expected 'x -> y', got '{content}'")
        if parts[0] in entries:
            raise ParseError(lineno, f"duplicate map entry for '{parts[0]}'")
        entries[parts[0]] = parts[1]
    return entries


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
    header = _header(content)
    if header is None:
        kinds = ", ".join("@" + k for k in BLOCK_KINDS)
        raise ParseError(lineno,
                         f"block header must be one of {kinds} followed by a name")
    kind, name = header
    if name in blocks_so_far:
        raise ParseError(lineno, f"duplicate structure name '{name}'")

    directives = _DIRECTIVES[kind]
    fields = {}
    for dline, dcontent in cursor.body():
        directive = _directive(dcontent)
        if directive is None:
            raise ParseError(dline, f"expected 'key: value', got '{dcontent}'")
        key, value = directive
        if key not in directives:
            if key in _KNOWN_DIRECTIVES:
                raise ParseError(dline, f"'{key}:' does not belong in @{kind}")
            raise ParseError(dline, f"unknown directive '{key}:'")
        if key in fields:
            raise ParseError(dline, f"duplicate '{key}:'")
        if key == "elements":
            value = value.split()
            if not value:
                raise ParseError(dline, "elements list is empty")
        elif key in ("zero", "domain", "codomain"):
            if len(value.split()) != 1:
                raise ParseError(dline, f"'{key}:' takes exactly one name")
        elif key == "map":
            if value:
                raise ParseError(dline, "'map:' starts its entries on its own line")
            value = _parse_map(cursor)
        else:   # a table
            if value:
                raise ParseError(dline, f"'{key}:' starts a table on its own line")
            if "elements" not in fields:
                raise ParseError(dline, f"'{key}:' requires elements first")
            value = _parse_table(cursor, fields["elements"], key, dline)
        fields[key] = value
    for key in directives:
        if key not in fields:
            raise ParseError(lineno, f"@{kind} {name} is missing '{key}:'")

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
            structure = _TABLE_KINDS[kind](*(fields[k] for k in directives))
            refs = {}
        else:
            cls, dom_kind, cod_kind = _MAP_KINDS[kind]
            dom = resolve("domain", (dom_kind,))
            cod = resolve("codomain", (cod_kind,))
            structure = cls(dom.structure, cod.structure, fields["map"])
            refs = {"domain": dom.name, "codomain": cod.name}
    except ValidationError as err:
        raise ParseError(lineno, f"in @{kind} {name}: {err}") from err

    return Block(kind, name, lineno, structure, refs)


def parse(text: str) -> StructureFile:
    """Parse and validate a structure file; errors carry line numbers.
    One leading byte-order mark (U+FEFF) is dropped."""
    cursor = _Cursor(text.removeprefix("\ufeff"))
    sf = StructureFile([])
    while (block := _parse_block(cursor, sf.by_name)) is not None:
        sf.blocks.append(block)
        sf.by_name[block.name] = block
    return sf


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
        for label in _TABLE_KINDS[block.kind]._TABLES:
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
