"""Lattice-core: validation, order, complements, ideals."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tightrep
from tightrep import (
    FiniteGenBoolAlg,
    FiniteInverseSemigroup,
    FiniteMeetSemilattice,
    IdealView,
    ValidationError,
    enumerate_semilattices,
    ideal_generated_by,
    is_generalized_boolean_inverse_semigroup,
    is_ideal,
    powerset_algebra,
    principal_ideal,
)
from tightrep.cli import main
from tightrep.lattices import InvariantError

from conftest import (
    make_diamond,
    make_i2,
    make_i3,
    make_z2_with_zero,
    subsets_of,
)


# -- semilattice validation -------------------------------------------------

def test_chain2_is_valid(chain2):
    assert chain2.elements == ("0", "1")
    assert repr(chain2) == "FiniteMeetSemilattice(['0', '1'], zero='0')"
    assert chain2.meet("1", "1") == "1"
    assert chain2.leq("0", "1")


def test_diamond_is_valid_against_direct_axiom_scan(diamond):
    # independent re-check of every axiom instance on the validated table
    els = diamond.elements
    for a in els:
        assert diamond.meet(a, a) == a
        assert diamond.meet("0", a) == "0"
        for b in els:
            assert diamond.meet(a, b) == diamond.meet(b, a)
            for c in els:
                assert (diamond.meet(diamond.meet(a, b), c)
                        == diamond.meet(a, diamond.meet(b, c)))


def test_non_commutative_table_is_rejected():
    with pytest.raises(ValidationError, match=r"not commutative at \(a, b\)"):
        FiniteMeetSemilattice(
            ["0", "a", "b"], "0",
            [["0", "0", "0"], ["0", "a", "a"], ["0", "b", "b"]])
    # also not associative at (a, b, a); commutativity is reported first
    with pytest.raises(ValidationError,
                       match=r"^meet not commutative at \(a, b\)$"):
        FiniteMeetSemilattice(
            ["0", "a", "b"], "0",
            [["0", "0", "0"], ["0", "a", "0"], ["0", "a", "b"]])


# commutative, idempotent, zero absorbing, but (a ∧ b) ∧ c != a ∧ (b ∧ c)
NON_ASSOCIATIVE_MEET = [["0", "0", "0", "0"],
                        ["0", "a", "0", "0"],
                        ["0", "0", "b", "a"],
                        ["0", "0", "a", "c"]]


def test_non_associative_table_reports_the_first_triple():
    with pytest.raises(ValidationError,
                       match=r"^meet not associative at \(a, b, c\)$"):
        FiniteMeetSemilattice(["0", "a", "b", "c"], "0", NON_ASSOCIATIVE_MEET)


def test_non_idempotent_table_is_rejected():
    with pytest.raises(ValidationError, match="not idempotent at a"):
        FiniteMeetSemilattice(
            ["0", "a"], "0", [["0", "0"], ["0", "0"]])


def test_non_absorbing_zero_is_rejected():
    with pytest.raises(ValidationError, match="zero not absorbing at a"):
        FiniteMeetSemilattice(
            ["0", "a"], "0", [["0", "a"], ["a", "a"]])


def test_duplicate_and_unknown_elements_are_rejected():
    with pytest.raises(ValidationError, match="duplicate element"):
        FiniteMeetSemilattice(["0", "0"], "0", [["0", "0"], ["0", "0"]])
    with pytest.raises(ValidationError, match="unknown element 'q'"):
        FiniteMeetSemilattice(["0", "a"], "0", [["0", "0"], ["0", "q"]])
    with pytest.raises(ValidationError, match="zero 'z'"):
        FiniteMeetSemilattice(["0", "a"], "z", [["0", "0"], ["0", "a"]])
    with pytest.raises(ValidationError, match="^element list is empty$"):
        FiniteMeetSemilattice([], "0", [])


def test_a_refused_zero_cannot_pass_for_a_listed_name():
    for zero, message in [(0, "zero 0 (int) is not a listed element"),
                          (["0"], "zero '['0']' is not a listed element")]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FiniteMeetSemilattice(["0", "a"], zero, [["0", "0"], ["0", "a"]])


@pytest.mark.parametrize("name", ["a b", "", "a\tb", " a", "a#b", 1, None])
def test_element_names_a_file_cannot_carry_are_refused(name):
    with pytest.raises(ValidationError, match=f"element name {re.escape(repr(name))} "):
        FiniteMeetSemilattice(["0", name], "0", [["0", "0"], ["0", name]])
    with pytest.raises(ValidationError, match=re.escape(repr(name))):
        FiniteInverseSemigroup([name], name, [[name]])


def test_table_refusals_name_the_first_fault_in_row_order():
    els = ["0", "a"]
    for rows, message in [
            ([["0", "q"], ["p", "a"]], "unknown element 'q' in meet table"),
            ([["0", "0"], ["x", "y"]], "unknown element 'x' in meet table"),
            ([["0", "0"], ["x"]], "meet table row has 1 entries, expected 2"),
            ([["0", "x"], ["0"]], "unknown element 'x' in meet table"),
            ([["0", "0"], ["0", None]], "unknown element 'None' in meet table"),
            ([["0", "0"], ["0", 1]], "unknown element '1' in meet table"),
            ([["0", "0"], ["0", ["a"]]], "unknown element '['a']' in meet table"),
            ([["0", "0"], ["0", 0]], "unknown element 0 (int) in meet table")]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FiniteMeetSemilattice(els, "0", rows)
    with pytest.raises(ValidationError,
                       match="^unknown element 'z' in join table$"):
        FiniteGenBoolAlg(["0", "1"], "0", [["0", "0"], ["0", "1"]],
                         [["0", "1"], ["1", "z"]])
    with pytest.raises(ValidationError, match="^unknown element 'w' in mul table$"):
        FiniteInverseSemigroup(["0"], "0", [["w"]])


def test_wrong_arity_is_rejected():
    with pytest.raises(ValidationError, match="expected 2"):
        FiniteMeetSemilattice(["0", "a"], "0", [["0"], ["0", "a"]])
    with pytest.raises(ValidationError, match="1 rows, expected 2"):
        FiniteMeetSemilattice(["0", "a"], "0", [["0", "0"]])


# -- algebra validation ------------------------------------------------------

def test_powerset_algebras_pass_all_axioms():
    # the constructor runs the exhaustive axiom suite; spot-check derived data
    for k in range(5):
        alg = powerset_algebra(k)
        assert len(alg) == 2 ** k
        assert alg.top == "".join(str(d) for d in range(1, k + 1)) if k else "0"
        for a in alg.elements:
            assert alg.meet(alg.top, a) == a
            assert alg.join(a, "0") == a


def test_powerset_dual_laws_by_direct_scan(p3):
    # join associativity and join-over-meet distributivity, re-derived
    els = p3.elements
    for a in els:
        for b in els:
            assert p3.meet(a, p3.join(a, b)) == a
            assert p3.join(a, p3.meet(a, b)) == a
            for c in els:
                assert (p3.join(p3.join(a, b), c)
                        == p3.join(a, p3.join(b, c)))
                assert (p3.join(a, p3.meet(b, c))
                        == p3.meet(p3.join(a, b), p3.join(a, c)))


def test_relative_complements_are_unique_by_direct_count(p3):
    for a in p3.elements:
        for b in p3.elements:
            if not p3.leq(a, b):
                continue
            found = [x for x in p3.elements
                     if p3.join(x, a) == b and p3.meet(x, a) == "0"]
            assert len(found) == 1
            assert p3.relative_complement(a, b) == found[0]


def test_complement_identity_elementwise():
    # a ∧ ¬b = a ∖ (a ∧ b), for every pair in every validated algebra
    for k in range(4):
        alg = powerset_algebra(k)
        for a in alg.elements:
            for b in alg.elements:
                lhs = alg.meet(a, alg.complement(b))
                rhs = alg.relative_complement(alg.meet(a, b), a)
                assert lhs == rhs


def test_four_element_chain_has_no_complements():
    rows_meet = [["0", "0", "0", "0"],
                 ["0", "a", "a", "a"],
                 ["0", "a", "b", "b"],
                 ["0", "a", "b", "1"]]
    rows_join = [["0", "a", "b", "1"],
                 ["a", "a", "b", "1"],
                 ["b", "b", "b", "1"],
                 ["1", "1", "1", "1"]]
    with pytest.raises(ValidationError, match="relative complement missing"):
        FiniteGenBoolAlg(["0", "a", "b", "1"], "0", rows_meet, rows_join)


def test_every_small_join_table_is_refused_or_read_back_by_the_masks():
    # every labeled 4-element meet table against every commutative,
    # idempotent join table with a neutral zero (19 x 64 candidates):
    # what validation accepts, meet and join read back from the masks
    accepted = 0
    for E in enumerate_semilattices(4):
        els = E.elements
        meet = [[E.meet(a, b) for b in els] for a in els]
        pairs = [(i, j) for i in range(1, 4) for j in range(i + 1, 4)]
        for values in product(els, repeat=len(pairs)):
            join = [[b if a == "0" else a if b == "0" or a == b else None
                     for b in els] for a in els]
            for (i, j), v in zip(pairs, values):
                join[i][j] = join[j][i] = v
            try:
                alg = FiniteGenBoolAlg(els, "0", meet, join)
            except ValidationError:
                continue
            accepted += 1
            assert all(alg.meet(a, b) == meet[i][j] and alg.join(a, b) == join[i][j]
                       for i, a in enumerate(els) for j, b in enumerate(els))
    assert accepted == 3    # P(2), its top labeled 1, 2 or 3


CHAIN4 = """\
@algebra C
elements: 0 a b 1
zero: 0
meet:
0 0 0 0
0 a a a
0 a b b
0 a b 1
join:
0 a b 1
a a b 1
b b b 1
1 1 1 1
"""


def test_an_algebra_that_is_not_a_powerset_breaches_an_invariant(
        monkeypatch, tmp_path, capsys):
    # the 4-chain passes every axiom but the complements; without that
    # check it reaches the powerset check, which is an invariant
    monkeypatch.setattr(FiniteGenBoolAlg, "_check_complements", lambda self: None)
    rows = [line.split() for line in CHAIN4.splitlines()]
    with pytest.raises(InvariantError, match="not the powerset of its atoms"):
        FiniteGenBoolAlg(rows[1][1:], "0", rows[4:8], rows[9:13])
    path = tmp_path / "chain4.struct"
    path.write_text(CHAIN4, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        "internal invariant breach: "
        "a validated algebra is not the powerset of its atoms\n")


def test_join_commutativity_is_reported_before_meet_associativity():
    join = [["0", "a", "b", "c"],
            ["a", "a", "c", "c"],
            ["b", "b", "b", "c"],
            ["c", "c", "c", "c"]]
    with pytest.raises(ValidationError,
                       match=r"^join not commutative at \(a, b\)$"):
        FiniteGenBoolAlg(["0", "a", "b", "c"], "0", NON_ASSOCIATIVE_MEET, join)


def test_non_distributive_lattice_is_rejected():
    # three atoms below a common top: meets give 0, joins give 1
    els = ["0", "a", "b", "c", "1"]
    def meet(x, y):
        if x == y:
            return x
        if x == "1":
            return y
        if y == "1":
            return x
        return "0"
    def join(x, y):
        if x == y:
            return x
        if x == "0":
            return y
        if y == "0":
            return x
        return "1"
    rows_meet = [[meet(x, y) for y in els] for x in els]
    rows_join = [[join(x, y) for y in els] for x in els]
    with pytest.raises(ValidationError, match="distributivity fails"):
        FiniteGenBoolAlg(els, "0", rows_meet, rows_join)


# -- order and complements ----------------------------------------------------

def test_leq_examples(p2, vee):
    assert p2.leq("1", "12")
    assert not p2.leq("12", "1")
    for a in p2.elements:
        assert p2.leq("0", a)
    assert not vee.leq("a", "b")


def test_leq_is_a_partial_order(p3, diamond):
    for structure in (p3, diamond):
        els = structure.elements
        for a in els:
            assert structure.leq(a, a)
            for b in els:
                if structure.leq(a, b) and structure.leq(b, a):
                    assert a == b
                for c in els:
                    if structure.leq(a, b) and structure.leq(b, c):
                        assert structure.leq(a, c)


def test_relative_complement_examples(p3):
    assert p3.relative_complement("1", "12") == "2"
    for b in p3.elements:
        assert p3.relative_complement("0", b) == b
        assert p3.relative_complement(b, b) == "0"
    with pytest.raises(ValidationError, match="requires"):
        p3.relative_complement("12", "1")


def test_unknown_element_errors(p2):
    with pytest.raises(ValidationError, match="unknown element"):
        p2.meet("1", "nope")
    with pytest.raises(ValidationError, match="unknown element"):
        p2.leq("nope", "1")
    with pytest.raises(ValidationError, match=r"^unknown element '\['a'\]'$"):
        p2.meet(["a"], "1")


def test_semilattice_meet_all_reads_every_name(chain2):
    assert chain2.meet_all(["1"]) == "1"
    assert chain2.meet_all(iter(["1", "0", "1"])) == "0"
    with pytest.raises(ValidationError, match="^unknown element 'nope'$"):
        chain2.meet_all(["nope"])
    with pytest.raises(ValidationError, match="^empty meet in a semilattice$"):
        chain2.meet_all([])


# Each reader of a collection of names, called with three unknown ones.
# The refusal must cite the first, whatever order `set` gives them.
ARGUMENT_ORDER_SCRIPT = """
from tightrep import (IdealView, ValidationError, covers_of, ideal_generated_by,
                      is_cover, is_ideal, powerset_algebra)
B = powerset_algebra(2)
E = B.as_meet_semilattice()
names = ["x", "y", "z"]
for call in (B.sort, lambda xs: is_ideal(B, xs), lambda xs: IdealView(B, xs),
             lambda xs: ideal_generated_by(B, xs), lambda xs: is_cover(E, [], xs),
             lambda xs: list(covers_of(E, xs))):
    try:
        call(names)
    except ValidationError as err:
        print(err)
"""


def test_a_refused_collection_cites_its_first_unknown_name_under_every_hash_seed():
    src = Path(tightrep.__file__).resolve().parent.parent
    for seed in range(6):
        proc = subprocess.run(
            [sys.executable, "-c", ARGUMENT_ORDER_SCRIPT],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "unknown element 'x'\n" * 6, seed


# -- ideals --------------------------------------------------------------------

def brute_ideal_closure(alg, seed):
    """Close a set downward and under joins until it stops growing."""
    members = set(seed)
    while True:
        grown = set(members)
        for a in list(members):
            for b in list(members):
                grown.add(alg.join(a, b))
        for b in list(grown):
            for a in alg.elements:
                if alg.leq(a, b):
                    grown.add(a)
        if grown == members:
            return members
        members = grown


def test_generated_ideal_matches_brute_closure(p3):
    assert (set(ideal_generated_by(p3, ["1", "2"]).elements)
            == brute_ideal_closure(p3, ["1", "2"])
            == {"0", "1", "2", "12"})
    assert set(ideal_generated_by(p3, [p3.top]).elements) == set(p3.elements)
    assert ideal_generated_by(p3, ["0"]).elements == ("0",)
    with pytest.raises(ValidationError, match="empty"):
        ideal_generated_by(p3, [])
    with pytest.raises(ValidationError, match="unknown element"):
        ideal_generated_by(p3, ["nope"])


def test_generated_ideal_is_smallest_exhaustively(p3):
    # all ideals of P(3), found by filtering every subset
    all_ideals = [set(c) for c in subsets_of(p3.elements)
                  if is_ideal(p3, c).ok]
    for seed in subsets_of(p3.elements):
        if not seed:
            continue
        generated = set(ideal_generated_by(p3, seed).elements)
        assert is_ideal(p3, generated).ok
        assert set(seed) <= generated
        for ideal in all_ideals:
            if set(seed) <= ideal:
                assert generated <= ideal


def test_every_ideal_of_a_finite_algebra_is_principal(p3):
    for c in subsets_of(p3.elements):
        if is_ideal(p3, c).ok:
            assert set(c) == set(principal_ideal(p3, p3.join_all(c)).elements)


@settings(derandomize=True, database=None)
@given(st.data())
def test_generated_ideal_smallest_on_sampled_p4(data):
    alg = powerset_algebra(4)
    seed = data.draw(st.sets(st.sampled_from(alg.elements), min_size=1))
    generated = set(ideal_generated_by(alg, seed).elements)
    assert is_ideal(alg, generated).ok
    assert seed <= generated
    # finite algebras only have principal ideals, verified exhaustively above
    for e in alg.elements:
        ideal = set(principal_ideal(alg, e).elements)
        if seed <= ideal:
            assert generated <= ideal


def test_is_ideal_examples(p2):
    assert is_ideal(p2, ["0", "1"]).ok
    bad_join = is_ideal(p2, ["0", "1", "2"])
    assert not bad_join.ok
    assert bad_join.reason == "join"
    assert bad_join.witness == ("1", "2")
    missing_zero = is_ideal(p2, ["1"])
    assert not missing_zero.ok
    assert not bool(missing_zero)
    assert missing_zero.reason == "downward"
    assert missing_zero.witness == ("0", "1")
    assert not is_ideal(p2, []).ok
    with pytest.raises(ValidationError, match="unknown element"):
        is_ideal(p2, ["nope"])


def test_principal_ideal_examples(p2):
    view = principal_ideal(p2, "1")
    assert view.elements == ("0", "1")
    assert view.top == "1"
    assert set(principal_ideal(p2, p2.top).elements) == set(p2.elements)
    assert principal_ideal(p2, "0").elements == ("0",)


def principal_views():
    """(algebra, generator, view) for every principal ideal of P(2) and P(3)."""
    for k in (2, 3):
        alg = powerset_algebra(k)
        for e in alg.elements:
            yield alg, e, principal_ideal(alg, e)


def test_ideal_view_index_is_a_position_in_its_own_elements():
    for _, _, view in principal_views():
        for a in view.elements:
            assert view.elements[view.index(a)] == a


def test_ideal_view_operations_agree_with_the_parent():
    for alg, _, view in principal_views():
        for a in view.elements:
            for b in view.elements:
                assert view.meet(a, b) == alg.meet(a, b)
                assert view.join(a, b) == alg.join(a, b)
                assert view.leq(a, b) == alg.leq(a, b)
                if alg.leq(a, b):
                    assert (view.relative_complement(a, b)
                            == alg.relative_complement(a, b))
                else:
                    with pytest.raises(ValidationError,
                                       match=f"^relative complement requires {a} ≤ {b}$"):
                        view.relative_complement(a, b)


def test_ideal_view_complement_is_relative_to_view_top(p2):
    view = principal_ideal(p2, "1")
    assert view.complement("1") == "0"
    assert view.complement("0") == "1"
    assert p2.complement("1") == "2"     # the parent disagrees
    for alg, e, view in principal_views():
        assert view.top == e
        assert view.meet_all([]) == e
        for a in view.elements:
            assert view.complement(a) == alg.relative_complement(a, e)
            assert view.meet_all([a, e]) == a


def test_ideal_view_membership_guard():
    for alg, e, view in principal_views():
        uses = [view.index, lambda x: view.meet(x, e), lambda x: view.meet(e, x),
                lambda x: view.join(x, e), lambda x: view.leq(x, e),
                lambda x: view.relative_complement("0", x), view.complement,
                lambda x: view.meet_all([x]), lambda x: view.join_all([x]),
                lambda x: view.sort([x])]
        for use in uses:
            for a in alg.elements:
                if a not in view:
                    with pytest.raises(ValidationError,
                                       match=f"^element '{a}' is outside this ideal view$"):
                        use(a)
            with pytest.raises(ValidationError, match="^unknown element 'nope'$"):
                use("nope")


def test_ideal_view_as_algebra_revalidates(p2):
    alg = principal_ideal(p2, "1").as_algebra()
    assert alg.elements == ("0", "1")
    assert alg.top == "1"


def test_view_of_view_flattens_to_base(p3):
    outer = principal_ideal(p3, "12")
    inner = principal_ideal(outer, "1")
    assert inner.base is p3
    assert inner.elements == ("0", "1")


def test_invalid_ideal_views_are_rejected(p2):
    with pytest.raises(ValidationError, match="nonempty"):
        IdealView(p2, [])
    with pytest.raises(ValidationError, match="downward"):
        IdealView(p2, ["0", "12"])
    with pytest.raises(ValidationError, match="join"):
        IdealView(p2, ["0", "1", "2"])


# -- misc -----------------------------------------------------------------------

def test_join_all_and_meet_all_conventions(p2):
    assert p2.join_all([]) == "0"
    assert p2.meet_all([]) == "12"
    view = principal_ideal(p2, "1")
    assert view.join_all([]) == "0"
    assert view.meet_all([]) == "1"


def test_sort_uses_declared_order(p2):
    assert p2.sort(["12", "1", "0"]) == ("0", "1", "12")
    with pytest.raises(ValidationError, match="unknown element"):
        p2.sort(["what"])


def test_meet_reduct_of_powerset(p2):
    reduct = p2.as_meet_semilattice()
    assert reduct.elements == p2.elements
    for a in p2.elements:
        for b in p2.elements:
            assert reduct.meet(a, b) == p2.meet(a, b)


@settings(derandomize=True, database=None)
@given(st.data())
def test_meet_all_agrees_with_pairwise_folding(data):
    diamond = make_diamond()
    xs = data.draw(st.lists(st.sampled_from(diamond.elements), min_size=1))
    acc = xs[0]
    for x in xs[1:]:
        acc = diamond.meet(acc, x)
    assert diamond.meet_all(xs) == acc


# -- the refusal order of algebras ---------------------------------------------

def full_check_order(els, zero, meet, join):
    """The message of the first failure when every algebra check runs, in
    order, on well-shaped tables, or None if none fails.

    A transcription of the axiom scans and of both complement checks,
    existence and uniqueness.  The constructor runs the scans only after
    its powerset test refuses a table, and leaves uniqueness out because
    the axioms imply it.
    """
    ix = {e: i for i, e in enumerate(els)}
    m = [[ix[v] for v in row] for row in meet]
    j = [[ix[v] for v in row] for row in join]
    z, rng = ix[zero], range(len(els))
    for a in rng:
        for b in range(a + 1, len(els)):
            if j[a][b] != j[b][a]:
                return f"join not commutative at ({els[a]}, {els[b]})"
            if m[a][b] != m[b][a]:
                return f"meet not commutative at ({els[a]}, {els[b]})"
    for a, b, c in product(rng, repeat=3):
        if m[m[a][b]][c] != m[a][m[b][c]]:
            return f"meet not associative at ({els[a]}, {els[b]}, {els[c]})"
        if m[a][j[b][c]] != j[m[a][b]][m[a][c]]:
            return f"distributivity fails at ({els[a]}, {els[b]}, {els[c]})"
    for a in rng:
        if j[a][z] != a:
            return f"zero not neutral for join at {els[a]}"
        if j[a][a] != a:
            return f"join not idempotent at {els[a]}"
        if m[a][a] != a:
            return f"meet not idempotent at {els[a]}"
    for a, b in product(rng, repeat=2):
        found = [x for x in rng if j[x][a] == b and m[x][a] == z]
        if m[a][b] == a and not found:
            return f"relative complement missing for {els[a]} ≤ {els[b]}"
        if m[a][b] == a and len(found) > 1:
            return f"relative complement not unique for {els[a]} ≤ {els[b]}"
    return None


def algebra_refusal(els, zero, meet, join):
    """The constructor's ValidationError message, or None if it accepts;
    any other exception propagates."""
    try:
        FiniteGenBoolAlg(els, zero, meet, join)
    except ValidationError as err:
        return str(err)
    return None


def small_join_candidates():
    """The 19 x 64 candidates of the small join-table test above."""
    for E in enumerate_semilattices(4):
        els = E.elements
        meet = [[E.meet(a, b) for b in els] for a in els]
        pairs = [(i, j) for i in range(1, 4) for j in range(i + 1, 4)]
        for values in product(els, repeat=len(pairs)):
            join = [[b if a == "0" else a if b == "0" or a == b else None
                     for b in els] for a in els]
            for (i, j), v in zip(pairs, values):
                join[i][j] = join[j][i] = v
            yield els, "0", meet, join


def powerset_mutants(seed, count):
    """Seeded one- or two-entry changes of the tables of P(1)-P(3), one in
    ten also declaring a random zero."""
    rng = random.Random(seed)
    algebras = [powerset_algebra(k) for k in (1, 2, 3)]
    for _ in range(count):
        P = rng.choice(algebras)
        els = P.elements
        tables = [[[P.meet(a, b) for b in els] for a in els],
                  [[P.join(a, b) for b in els] for a in els]]
        for _ in range(rng.choice((1, 2))):
            row = rng.choice(rng.choice(tables))
            col = rng.randrange(len(els))
            row[col] = rng.choice([e for e in els if e != row[col]])
        zero = rng.choice(els) if rng.random() < 0.1 else P.zero
        yield els, zero, *tables


def test_algebra_refusals_follow_the_full_check_order():
    # the powerset test accepts exactly what every check accepts, and a
    # refused table gets the first failure of the full order, so the
    # uniqueness branch never fires
    kinds = ("join not commutative", "meet not commutative",
             "meet not associative", "distributivity fails",
             "zero not neutral for join", "join not idempotent",
             "meet not idempotent", "relative complement missing")
    cases = [*small_join_candidates(), *powerset_mutants(25, 3000)]
    seen = set()
    for args in cases:
        expected = full_check_order(*args)
        assert algebra_refusal(*args) == expected, args
        seen.update(k for k in kinds if expected and expected.startswith(k))
    assert len(cases) == 19 * 64 + 3000
    assert seen == set(kinds)


def test_a_valid_algebra_runs_no_axiom_scan(monkeypatch):
    def scan(self):
        raise AssertionError("an axiom scan ran on a valid algebra")
    monkeypatch.setattr(FiniteGenBoolAlg, "_check_axioms", scan)
    monkeypatch.setattr(FiniteGenBoolAlg, "_check_complements", scan)
    for k in range(4):
        assert len(powerset_algebra(k)) == 1 << k
    # the idempotent algebras of the semigroups in conftest
    for make, size in ((make_i2, 4), (make_z2_with_zero, 2), (make_i3, 8)):
        check = is_generalized_boolean_inverse_semigroup(make())
        assert check.ok and len(check.algebra) == size
