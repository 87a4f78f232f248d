"""The structure file format: parsing, rendering, and error locations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from tightrep import (
    FiniteMeetSemilattice,
    ISHomomorphism,
    ParseError,
    ValidationError,
    enumerate_representations,
    enumerate_semilattices,
    parse,
    powerset_algebra,
    render,
)
from tightrep.structfile import Block, StructureFile, render_block

from conftest import make_i2, make_chain2, semigroup_from_semilattice


COUNTEREXAMPLE = """\
# two-element chain mapped onto a single atom of P(2)

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


def test_counterexample_file_parses_to_three_blocks():
    sf = parse(COUNTEREXAMPLE)
    assert len(sf) == 3
    assert [b.kind for b in sf.blocks] == ["semilattice", "algebra", "representation"]
    rep = sf["pi"].structure
    assert rep.image("1") == "1"
    assert sf["pi"].refs == {"domain": "E", "codomain": "B"}


def test_round_trip_is_byte_stable():
    once = render(parse(COUNTEREXAMPLE))
    again = render(parse(once))
    assert once == again
    sf = parse(once)
    assert sf["B"].structure.top == "12"


def homomorphism_file():
    i2 = make_i2()
    chain2 = semigroup_from_semilattice(make_chain2())
    hom = ISHomomorphism(chain2, i2, {"0": "z", "1": "e1"})
    return StructureFile([
        Block("inverse_semigroup", "S", 0, chain2, {}),
        Block("inverse_semigroup", "T", 0, i2, {}),
        Block("homomorphism", "phi", 0, hom, {"domain": "S", "codomain": "T"}),
    ])


def test_homomorphism_blocks_round_trip():
    text = render(homomorphism_file())
    parsed = parse(text)
    assert parsed["phi"].structure.image("1") == "e1"
    assert render(parsed) == text


def test_wrong_arity_reports_the_line():
    bad = "@semilattice E\nelements: 0 1\nzero: 0\nmeet:\n0 0\n0\n"
    with pytest.raises(ParseError, match="line 6: expected 2 entries, got 1"):
        parse(bad)


def test_unknown_reference_is_reported():
    bad = COUNTEREXAMPLE + "\n@representation q\ndomain: E\ncodomain: B9\nmap:\n0 -> 0\n1 -> 0\n"
    with pytest.raises(ParseError, match="unknown structure 'B9'"):
        parse(bad)


def test_reference_must_point_at_the_right_kind():
    bad = COUNTEREXAMPLE + "\n@representation q\ndomain: B\ncodomain: B\nmap:\n0 -> 0\n"
    with pytest.raises(ParseError, match="domain of @representation must name @semilattice"):
        parse(bad)


def test_duplicate_names_are_rejected():
    bad = "@semilattice E\nelements: 0\nzero: 0\nmeet:\n0\n" * 2
    with pytest.raises(ParseError, match="duplicate structure name 'E'"):
        parse(bad)


def test_validation_failure_carries_block_location():
    bad = ("@semilattice E\nelements: 0 a b\nzero: 0\nmeet:\n"
           "0 0 0\n0 a a\n0 b b\n")
    with pytest.raises(ParseError, match=r"line 1: in @semilattice E: meet not commutative"):
        parse(bad)


def test_header_and_directive_errors():
    with pytest.raises(ParseError, match="expected a block header"):
        parse("elements: 0\n")
    with pytest.raises(ParseError, match="block header must be one of"):
        parse("@poset P\n")
    with pytest.raises(ParseError, match="unknown directive 'order:'"):
        parse("@semilattice E\nelements: 0\norder: up\n")
    with pytest.raises(ParseError, match="missing 'zero:'"):
        parse("@semilattice E\nelements: 0\nmeet:\n0\n")
    with pytest.raises(ParseError, match="requires elements first"):
        parse("@semilattice E\nmeet:\n0\n")
    with pytest.raises(ParseError, match="^line 2: elements list is empty$"):
        parse("@semilattice E\nelements:\n")
    with pytest.raises(ParseError, match="file ended early"):
        parse("@semilattice E\nelements: 0 1\nzero: 0\nmeet:\n0 0\n")


# the semilattice E and the algebra B of the counterexample: lines 1-23
STRUCTURES = COUNTEREXAMPLE[:COUNTEREXAMPLE.index("@representation")]
REP_HEAD = STRUCTURES + "@representation pi\n"     # line 24


@pytest.mark.parametrize("text, message", [
    ("@semilattice E\nelements: 0 1\nelements: 0 1\n",
     "line 3: duplicate 'elements:'"),
    ("@semilattice E\nelements: 0 1\nzero: 1\nzero: 0\nmeet:\n0 0\n0 1\n",
     "line 4: duplicate 'zero:'"),
    # a broken table and then a good one
    ("@semilattice E\nelements: 0 1\nzero: 0\nmeet:\n0 1\n1 1\nmeet:\n0 0\n0 1\n",
     "line 7: duplicate 'meet:'"),
    (STRUCTURES.replace("join:", "join:\n0 1 2 12\n1 1 12 12\n2 12 2 12\n"
                                 "12 12 12 12\njoin:"),
     "line 23: duplicate 'join:'"),
    (REP_HEAD + "domain: E\ndomain: E\n", "line 26: duplicate 'domain:'"),
    (REP_HEAD + "domain: E\ncodomain: B\ncodomain: B\n",
     "line 27: duplicate 'codomain:'"),
], ids=["elements", "zero", "meet", "join", "domain", "codomain"])
def test_a_repeated_directive_is_reported_at_its_line(text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


@pytest.mark.parametrize("text, message", [
    ("@semilattice E\nelements: 0 1\nzero: 0\nmeet:\n0 0\n0 1\njoin:\n0 1\n1 1\n",
     "line 7: 'join:' does not belong in @semilattice"),
    ("@semilattice E\nelements: 0\nzero: 0\ndomain: X\nmeet:\n0\n",
     "line 4: 'domain:' does not belong in @semilattice"),
    ("@algebra B\nelements: 0\nmap:\n0 -> 0\n",
     "line 3: 'map:' does not belong in @algebra"),
    (REP_HEAD + "domain: E\ncodomain: B\nmeet:\n0 0\n0 1\n",
     "line 27: 'meet:' does not belong in @representation"),
    (REP_HEAD + "elements: 0 1\n",
     "line 25: 'elements:' does not belong in @representation"),
], ids=["join", "domain", "map", "meet", "elements"])
def test_a_directive_of_another_kind_is_reported_at_its_line(text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


@pytest.mark.parametrize("elements, row", [("0 1", "0 0"), ("0 1 2", "0 0 0")])
def test_a_table_cut_short_by_a_block_header_is_reported_at_the_table(elements, row):
    text = (f"@semilattice E\nelements: {elements}\nzero: 0\nmeet:\n{row}\n\n"
            "@algebra B\nelements: 0\nzero: 0\nmeet:\n0\njoin:\n0\n")
    n = len(elements.split())
    with pytest.raises(ParseError, match=(
            f"^line 4: meet table needs {n} rows, got 1 "
            "before the block header at line 7$")):
        parse(text)


def test_a_row_of_element_names_that_reads_as_a_header_stays_a_row():
    E = FiniteMeetSemilattice(["@semilattice", "E"], "@semilattice",
                              [["@semilattice"] * 2, ["@semilattice", "E"]])
    sf = StructureFile([Block("semilattice", "S", 0, E, {})])
    assert render(parse(render(sf))) == render(sf)


def test_map_entry_errors():
    with pytest.raises(ParseError, match="expected 'x -> y'"):
        parse("@semilattice E\nelements: 0\nzero: 0\nmeet:\n0\n\n"
              "@algebra B\nelements: 0\nzero: 0\nmeet:\n0\njoin:\n0\n\n"
              "@representation pi\ndomain: E\ncodomain: B\nmap:\n0 = 0\n")
    with pytest.raises(ParseError, match="duplicate map entry"):
        parse("@semilattice E\nelements: 0\nzero: 0\nmeet:\n0\n\n"
              "@algebra B\nelements: 0\nzero: 0\nmeet:\n0\njoin:\n0\n\n"
              "@representation pi\ndomain: E\ncodomain: B\nmap:\n0 -> 0\n0 -> 0\n")
    with pytest.raises(ParseError,
                       match="^line 18: 'map:' starts its entries on its own line$"):
        parse("@semilattice E\nelements: 0\nzero: 0\nmeet:\n0\n\n"
              "@algebra B\nelements: 0\nzero: 0\nmeet:\n0\njoin:\n0\n\n"
              "@representation pi\ndomain: E\ncodomain: B\nmap: 0 -> 0\n")


def test_comments_and_blank_lines_are_ignored():
    text = ("# leading comment\n\n@semilattice E  # trailing comment\n"
            "elements: 0 1\n# interior\n\nzero: 0\nmeet:\n0 0  # row\n0 1\n")
    sf = parse(text)
    assert sf["E"].structure.elements == ("0", "1")


def test_a_form_feed_does_not_end_a_comment():
    sf = parse("# page one\x0c still comment\n"
               "@semilattice E\nelements: 0\nzero: 0\nmeet:\n0\n")
    assert len(sf) == 1


def test_a_line_separator_in_a_comment_keeps_later_lines_located():
    text = ("@semilattice E\nelements: 0 1\nzero: 0\nmeet:\n0 0\n"
            "0 1  # x\u2028x\n\n@semilattice E\n")
    with pytest.raises(ParseError, match="^line 8: duplicate structure name 'E'$"):
        parse(text)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_line_ends_parse_and_locate(end):
    sf = parse(COUNTEREXAMPLE.replace("\n", end))
    assert render(sf) == render(parse(COUNTEREXAMPLE))
    bad = "@semilattice E\nelements: 0 1\nzero: 0\nmeet:\n0 0\n0\n"
    with pytest.raises(ParseError, match="^line 6: expected 2 entries, got 1$"):
        parse(bad.replace("\n", end))


def test_one_leading_byte_order_mark_is_dropped():
    sf = parse("\ufeff" + COUNTEREXAMPLE)
    assert render(sf) == render(parse(COUNTEREXAMPLE))
    bad = "\ufeff@semilattice E\nelements: 0 1\nzero: 0\nmeet:\n0 0\n0\n"
    with pytest.raises(ParseError, match="^line 6: expected 2 entries, got 1$"):
        parse(bad)
    # a second mark, or one later in the text, is read as it is
    header = "@semilattice E\nelements: 0\nzero: 0\nmeet:\n0\n"
    with pytest.raises(ParseError, match="^line 1: expected a block header, "
                                         "got '\ufeff@semilattice E'$"):
        parse("\ufeff\ufeff" + header)
    with pytest.raises(ParseError, match="^line 6: expected 'key: value', "
                                         "got '\ufeff@semilattice F'$"):
        parse("\ufeff" + header + "\ufeff@semilattice F\n")


@pytest.mark.parametrize("name", ["a#b", "@a", "a->b", "a:b"])
def test_an_element_name_is_refused_or_survives_a_round_trip(name):
    # a name a file cannot carry must not be read back as another name
    try:
        E = FiniteMeetSemilattice(["0", name], "0", [["0", "0"], ["0", name]])
    except ValidationError as err:
        assert repr(name) in str(err)
        return
    sf = StructureFile([Block("semilattice", "E", 0, E, {})])
    assert parse(render(sf))["E"].structure.elements == ("0", name)


def test_empty_input_parses_to_no_structures():
    assert len(parse("")) == 0
    assert len(parse("# only comments\n\n")) == 0


def test_render_block_of_each_kind():
    sf = parse(COUNTEREXAMPLE)
    for block in sf.blocks:
        assert render_block(block).startswith(f"@{block.kind} {block.name}")


def test_unknown_structure_lookup():
    sf = parse(COUNTEREXAMPLE)
    with pytest.raises(ValidationError, match="unknown structure 'nope'"):
        sf["nope"]
    assert "E" in sf
    assert "nope" not in sf


# -- properties ------------------------------------------------------------

SEED_TEXTS = (COUNTEREXAMPLE, render(homomorphism_file()))
# pieces of the format, so that edits reach past the header checks
TOKENS = ("\n", " ", ":", "->", "@", "#", "0", "1", "12", "z", "e1",
          "elements:", "zero:", "meet:", "join:", "mul:", "map:",
          "domain:", "codomain:", "@semilattice E", "@algebra B",
          "@representation pi", "@inverse_semigroup S", "@homomorphism phi")


@st.composite
def edited_structure_texts(draw):
    """A valid structure text with a few short slices replaced."""
    text = draw(st.sampled_from(SEED_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 12)))
        insert = draw(st.one_of(st.text(max_size=6), st.sampled_from(TOKENS)))
        text = text[:start] + insert + text[stop:]
    return text


@settings(max_examples=400, derandomize=True, database=None)
@given(st.one_of(st.text(), edited_structure_texts()))
def test_parse_raises_only_parse_errors(text):
    try:
        parse(text)
    except ParseError:
        pass


SEMILATTICES = [E for n in range(1, 5) for E in enumerate_semilattices(n)]
ALGEBRAS = [powerset_algebra(k) for k in range(3)]


@settings(derandomize=True, database=None)
@given(st.data())
def test_render_then_parse_is_a_fixed_point_on_generated_files(data):
    E = data.draw(st.sampled_from(SEMILATTICES))
    B = data.draw(st.sampled_from(ALGEBRAS))
    reps = data.draw(st.lists(
        st.sampled_from(list(enumerate_representations(E, B))), max_size=3))
    sf = StructureFile(
        [Block("semilattice", "E", 0, E, {}), Block("algebra", "B", 0, B, {})]
        + [Block("representation", f"pi{i}", 0, rep,
                 {"domain": "E", "codomain": "B"})
           for i, rep in enumerate(reps)])
    text = render(sf)
    parsed = parse(text)
    assert render(parsed) == text
    assert [b.structure.mapping for b in parsed.blocks[2:]] == \
        [rep.mapping for rep in reps]


def table_rows(lines):
    """The indices of the table rows in rendered lines."""
    rows, n = [], 0
    for i, line in enumerate(lines):
        if line.startswith("elements:"):
            n = len(line.split()) - 1
        elif line in ("meet:", "join:", "mul:"):
            rows.extend(range(i + 1, i + 1 + n))
    return rows


@settings(derandomize=True, database=None)
@given(st.data())
def test_a_deleted_table_row_is_reported_inside_its_block(data):
    E = data.draw(st.sampled_from(SEMILATTICES))
    B = data.draw(st.sampled_from(ALGEBRAS))
    F = data.draw(st.sampled_from(SEMILATTICES))
    rep = data.draw(st.sampled_from(list(enumerate_representations(E, B))))
    text = data.draw(st.sampled_from([
        render(StructureFile([
            Block("semilattice", "E", 0, E, {}), Block("algebra", "B", 0, B, {}),
            Block("representation", "pi", 0, rep, {"domain": "E", "codomain": "B"}),
            Block("semilattice", "F", 0, F, {})])),
        render(homomorphism_file())]))
    lines = text.split("\n")
    cut = data.draw(st.sampled_from(table_rows(lines)))
    damaged = lines[:cut] + lines[cut + 1:]
    headers = [i + 1 for i, line in enumerate(damaged) if line.startswith("@")]
    start = max(h for h in headers if h <= cut)
    end = min([h - 1 for h in headers if h > cut] + [len(damaged)])
    with pytest.raises(ParseError) as err:
        parse("\n".join(damaged))
    assert start <= err.value.line <= end, (cut + 1, str(err.value))
