"""Inverse semigroups with zero, their idempotents, and tight homomorphisms."""

from __future__ import annotations

import importlib.util
import sys
from itertools import product
from pathlib import Path

import pytest

from tightrep import (
    FiniteGenBoolAlg,
    FiniteInverseSemigroup,
    ISHomomorphism,
    NotCoverToJoinError,
    ValidationError,
    check_homomorphism_tightness,
    enumerate_semilattices,
    is_generalized_boolean_inverse_semigroup,
    parse,
    powerset_algebra,
    principal_ideal,
    representations,
    tighten_homomorphism,
)
from tightrep.lattices import InvariantError

from conftest import (
    all_homomorphisms,
    make_b2,
    make_chain2,
    make_diamond,
    make_i2,
    make_vee,
    make_z2_with_zero,
    semigroup_from_semilattice,
)


# -- validation ---------------------------------------------------------------

def test_i2_validates_with_expected_inverses(i2):
    assert len(i2) == 7
    assert i2.inv("a") == "b" and i2.inv("b") == "a"
    assert i2.inv("t") == "t" and i2.inv("i") == "i"
    assert i2.idempotent_elements == ("z", "e1", "e2", "i")


def test_i2_against_raw_inverse_semigroup_axioms(i2):
    els = i2.elements
    for s in els:
        star = i2.inv(s)
        assert i2.mul(i2.mul(s, star), s) == s
        assert i2.mul(i2.mul(star, s), star) == star
        assert i2.inv(star) == s
        assert i2.is_idempotent(i2.mul(s, star))
        assert i2.is_idempotent(i2.mul(star, s))
        for t in els:
            # the inverse is an anti-homomorphism
            assert i2.inv(i2.mul(s, t)) == i2.mul(i2.inv(t), i2.inv(s))


def test_semilattice_as_semigroup_is_inverse_with_identity_inverses(diamond):
    sg = semigroup_from_semilattice(diamond)
    for e in sg.elements:
        assert sg.inv(e) == e
    assert sg.idempotent_elements == sg.elements


def test_right_zero_semigroup_is_rejected():
    # xy = y is associative, but then everything inverts everything
    with pytest.raises(ValidationError, match="inverse not unique"):
        FiniteInverseSemigroup(
            ["a", "b"], "a", [["a", "b"], ["a", "b"]])


def test_non_associative_table_is_rejected():
    with pytest.raises(ValidationError, match="not associative"):
        FiniteInverseSemigroup(
            ["0", "a", "b"], "0",
            [["0", "0", "0"],
             ["0", "b", "a"],
             ["0", "a", "0"]])
    # the idempotents a and b do not commute either; associativity is first
    with pytest.raises(ValidationError,
                       match=r"^mul not associative at \(a, b, a\)$"):
        FiniteInverseSemigroup(
            ["0", "a", "b"], "0",
            [["0", "0", "0"],
             ["0", "a", "0"],
             ["0", "a", "b"]])


def test_zero_must_absorb():
    # a two-element group has no absorbing zero
    with pytest.raises(ValidationError, match="zero not absorbing"):
        FiniteInverseSemigroup(
            ["e", "g"], "e", [["e", "g"], ["g", "e"]])


# -- idempotent semilattices -----------------------------------------------------

def full_semigroup_check_order(els, zero, mul):
    """The message of the first failure when every inverse-semigroup check
    runs, in order, on a well-shaped table, or None if none fails.

    A transcription that includes the check that idempotents commute,
    which the constructor leaves out because unique inverses imply it.
    """
    ix = {e: i for i, e in enumerate(els)}
    m = [[ix[v] for v in row] for row in mul]
    z, rng = ix[zero], range(len(els))
    for a, b, c in product(rng, repeat=3):
        if m[m[a][b]][c] != m[a][m[b][c]]:
            return f"mul not associative at ({els[a]}, {els[b]}, {els[c]})"
    for s in rng:
        found = [t for t in rng if m[m[s][t]][s] == s and m[m[t][s]][t] == t]
        if not found:
            return f"no generalized inverse for {els[s]}"
        if len(found) > 1:
            return f"generalized inverse not unique for {els[s]}"
    idem = [a for a in rng if m[a][a] == a]
    for a, b in product(idem, repeat=2):
        if m[a][b] != m[b][a]:
            return f"idempotents do not commute at ({els[a]}, {els[b]})"
    for a in rng:
        if m[z][a] != z or m[a][z] != z:
            return f"zero not absorbing at {els[a]}"
    return None


def test_every_three_element_table_follows_the_full_check_order():
    els = ("0", "a", "b")
    accepted = 0
    kinds = {}
    for flat in product(els, repeat=9):
        rows = [flat[0:3], flat[3:6], flat[6:9]]
        expected = full_semigroup_check_order(els, "0", rows)
        try:
            FiniteInverseSemigroup(els, "0", rows)
            got = None
        except ValidationError as err:
            got = str(err)
        assert got == expected, rows
        accepted += got is None
        kind = got and got.split(" for ")[0].split(" at ")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert sum(kinds.values()) == 3 ** 9
    # the two labeled 3-chains, the vee, and Z2 with zero with either
    # nonzero element as the identity
    assert accepted == kinds[None] == 5
    assert set(kinds) == {None, "mul not associative", "no generalized inverse",
                          "generalized inverse not unique",
                          "zero not absorbing"}


def test_idempotents_of_i2_form_the_powerset_reduct(i2):
    E = i2.idempotent_semilattice()
    assert E.elements == ("z", "e1", "e2", "i")
    p2 = powerset_algebra(2)
    rank = dict(zip(("z", "e1", "e2", "i"), p2.elements))
    for a in E.elements:
        for b in E.elements:
            assert rank[E.meet(a, b)] == p2.meet(rank[a], rank[b])


def test_idempotents_of_a_group_with_zero_form_the_two_chain():
    E = make_z2_with_zero().idempotent_semilattice()
    assert E.elements == ("0", "e")
    assert E.leq("0", "e")


def test_idempotents_of_a_semilattice_semigroup_are_itself(vee):
    sg = semigroup_from_semilattice(vee)
    E = sg.idempotent_semilattice()
    assert E.elements == vee.elements
    for a in E.elements:
        for b in E.elements:
            assert E.meet(a, b) == vee.meet(a, b)


# -- generalized Boolean inverse semigroups ----------------------------------------

def test_i2_idempotents_carry_a_boolean_algebra(i2):
    check = is_generalized_boolean_inverse_semigroup(i2)
    assert check.ok
    assert check.algebra.elements == ("z", "e1", "e2", "i")
    assert check.algebra.top == "i"
    assert check.algebra.join("e1", "e2") == "i"


def test_vee_semigroup_lacks_joins():
    check = is_generalized_boolean_inverse_semigroup(
        semigroup_from_semilattice(make_vee()))
    assert not check.ok
    assert check.witness == ("a", "b")


def test_brandt_semigroup_lacks_joins():
    check = is_generalized_boolean_inverse_semigroup(make_b2())
    assert not check.ok
    assert check.witness == ("e1", "e2")


def test_chain2_semigroup_is_boolean():
    check = is_generalized_boolean_inverse_semigroup(
        semigroup_from_semilattice(make_chain2()))
    assert check.ok


def test_three_chain_has_joins_but_no_complements():
    chain3 = FiniteInverseSemigroup(
        ["0", "m", "1"], "0",
        [["0", "0", "0"],
         ["0", "m", "m"],
         ["0", "m", "1"]])
    check = is_generalized_boolean_inverse_semigroup(chain3)
    assert not check.ok
    assert check.witness is None
    assert "complement missing" in check.reason


def name_level_gbis(E):
    """The least-upper-bound search over element names, with every upper
    bound compared against every other: (witness pair, reason, algebra)."""
    join_rows = []
    for a in E.elements:
        row = []
        for b in E.elements:
            ubs = [g for g in E.elements if E.leq(a, g) and E.leq(b, g)]
            least = [g for g in ubs if all(E.leq(g, h) for h in ubs)]
            if not least:
                return ((a, b),
                        f"idempotents ({a}, {b}) have no least upper bound",
                        None)
            row.append(least[0])
        join_rows.append(row)
    meet_rows = [[E.meet(a, b) for b in E.elements] for a in E.elements]
    try:
        algebra = FiniteGenBoolAlg(E.elements, E.zero, meet_rows, join_rows)
    except ValidationError as err:
        return None, str(err), None
    return None, None, algebra


def test_gbis_check_agrees_with_the_name_level_search():
    # every labeled semilattice on at most five elements, and the classes
    # of sizes 6 and 7
    semigroups = [make_i2(), make_b2(), make_z2_with_zero()]
    for n in range(1, 6):
        semigroups.extend(semigroup_from_semilattice(sl)
                          for sl in enumerate_semilattices(n))
    for n in (6, 7):
        semigroups.extend(semigroup_from_semilattice(sl)
                          for sl in enumerate_semilattices(n, up_to_iso=True))
    assert len(semigroups) == 3 + 237 + 275
    outcomes = set()
    for S in semigroups:
        check = is_generalized_boolean_inverse_semigroup(S)
        witness, reason, algebra = name_level_gbis(S.idempotent_semilattice())
        assert (check.ok, check.witness, check.reason) == (
            algebra is not None, witness, reason)
        if algebra is not None:
            E = check.algebra
            assert E.elements == algebra.elements
            assert all(E.join(a, b) == algebra.join(a, b)
                       for a in E.elements for b in E.elements)
        outcomes.add((check.ok, check.witness is None))
    assert outcomes == {(True, True), (False, True), (False, False)}


# -- homomorphisms -------------------------------------------------------------------

def chain2_to_i2():
    """The transported counterexample: the two-chain onto a rank-one idempotent."""
    chain2 = semigroup_from_semilattice(make_chain2())
    return ISHomomorphism(chain2, make_i2(), {"0": "z", "1": "e1"})


def test_homomorphism_validation(i2):
    chain2 = semigroup_from_semilattice(make_chain2())
    with pytest.raises(ValidationError, match="product not preserved"):
        ISHomomorphism(chain2, i2, {"0": "z", "1": "a"})
    with pytest.raises(ValidationError, match="zero not preserved"):
        ISHomomorphism(chain2, i2, {"0": "e1", "1": "e1"})
    with pytest.raises(ValidationError, match="not a generalized Boolean"):
        ISHomomorphism(chain2, make_b2(), {"0": "z", "1": "e1"})


def local_inverse(S, s):
    """The generalized inverses of s, found by scanning the table."""
    return [t for t in S.elements
            if S.mul(S.mul(s, t), s) == s and S.mul(S.mul(t, s), t) == t]


def assert_preserves_inverses_and_idempotents(hom):
    S, T = hom.domain, hom.codomain
    for s in S.elements:
        assert [hom.image(t) for t in local_inverse(S, s)] == \
            local_inverse(T, hom.image(s)), (hom, s)
        if S.mul(s, s) == s:
            image = hom.image(s)
            assert T.mul(image, image) == image, (hom, s)


def test_restriction_refuses_an_idempotent_sent_outside_the_algebra(i2):
    # products rule this out for a constructed map; a mapping changed
    # afterwards is an invariant breach, not an input error
    hom = ISHomomorphism(i2, i2, {s: s for s in i2.elements})
    hom.mapping["e1"] = "a"
    with pytest.raises(InvariantError,
                       match="^restriction of a homomorphism failed validation"):
        hom.restriction()


def test_homomorphism_map_messages(i2):
    chain2 = semigroup_from_semilattice(make_chain2())
    with pytest.raises(ValidationError,
                       match="^map is not total: no image for '1'$"):
        ISHomomorphism(chain2, i2, {"0": "z"})
    with pytest.raises(ValidationError, match="^unknown element 'x'$"):
        ISHomomorphism(chain2, i2, {"0": "z", "1": "e1", "x": "z"})
    with pytest.raises(ValidationError, match="^unknown element 'q'$"):
        ISHomomorphism(chain2, i2, {"0": "z", "1": "q"})


def test_map_reprs_list_the_pairs_in_domain_order(i2):
    hom = ISHomomorphism(semigroup_from_semilattice(make_chain2()), i2,
                         {"1": "e1", "0": "z"})
    assert repr(hom) == "ISHomomorphism(0->z, 1->e1)"
    assert repr(hom.restriction()) == "Representation(0->z, 1->e1)"


def test_identity_homomorphism_on_i2_is_tight(i2):
    report = check_homomorphism_tightness(
        ISHomomorphism(i2, i2, {s: s for s in i2.elements}))
    assert report.cover_to_join.ok
    assert report.tight.ok
    assert report.nondegenerate.ok


def test_transported_counterexample_reports_the_gap():
    report = check_homomorphism_tightness(chain2_to_i2())
    assert report.cover_to_join.ok
    assert not report.tight.ok
    w = report.tight.witness
    assert (w.above, w.disjoint, w.cover) == ((), (), ("1",))


def test_zero_homomorphism_on_trivial_domain_is_tight(i2):
    trivial = FiniteInverseSemigroup(["0"], "0", [["0"]])
    trivial_hom = ISHomomorphism(trivial, trivial, {"0": "0"})
    report = check_homomorphism_tightness(trivial_hom)
    assert report.cover_to_join.ok and report.tight.ok


# -- the corner construction ------------------------------------------------------------

def test_tighten_transported_counterexample():
    result = tighten_homomorphism(chain2_to_i2())
    assert result.unit == "e1"
    assert result.corner.elements == ("z", "e1")
    assert result.report.tight.ok
    assert result.homomorphism.image("1") == "e1"


def test_tighten_identity_keeps_the_whole_semigroup(i2):
    result = tighten_homomorphism(
        ISHomomorphism(i2, i2, {s: s for s in i2.elements}))
    assert result.unit == "i"
    assert result.corner.elements == i2.elements


def test_tighten_trivial_domain_gives_the_trivial_corner(i2):
    trivial = FiniteInverseSemigroup(["0"], "0", [["0"]])
    result = tighten_homomorphism(ISHomomorphism(trivial, i2, {"0": "z"}))
    assert result.unit == "z"
    assert result.corner.elements == ("z",)


def test_tighten_requires_cover_to_join(i2):
    # the diamond maps onto the whole idempotent slice of I2 except that the
    # top goes to the identity while the atoms only join up to it; pick a
    # diamond image that skips intermediate covers: top -> i, atoms -> z
    diamond_sg = semigroup_from_semilattice(make_diamond())
    hom = ISHomomorphism(
        diamond_sg, i2, {"0": "z", "a": "z", "b": "z", "1": "i"})
    with pytest.raises(NotCoverToJoinError):
        tighten_homomorphism(hom)


def test_corner_structure_invariants():
    result = tighten_homomorphism(chain2_to_i2())
    corner, hom = result.corner, result.homomorphism
    T = hom.codomain
    for a in corner.elements:
        assert corner.inv(a) in corner.elements
        for b in corner.elements:
            assert corner.mul(a, b) in corner.elements
    algebra = is_generalized_boolean_inverse_semigroup(make_i2()).algebra
    ideal = principal_ideal(algebra, result.unit)
    assert set(corner.idempotent_elements) == set(ideal.elements)
    assert set(hom.mapping.values()) <= set(corner.elements)
    assert T is corner


def test_restrictions_share_one_semilattice_and_its_instances(monkeypatch, i2):
    real = representations._constrained
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(representations, "_constrained", counting)
    hom = ISHomomorphism(i2, i2, {s: s for s in i2.elements})
    E = hom.restriction().domain
    assert hom.restriction().domain is E
    check_homomorphism_tightness(hom)
    assert calls
    built = len(calls)
    corestricted = tighten_homomorphism(hom).homomorphism
    assert corestricted.restriction().domain is E
    check_homomorphism_tightness(hom)
    check_homomorphism_tightness(corestricted)
    assert len(calls) == built


def all_test_semigroups():
    return [
        FiniteInverseSemigroup(["0"], "0", [["0"]]),
        semigroup_from_semilattice(make_chain2()),
        semigroup_from_semilattice(make_vee()),
        semigroup_from_semilattice(make_diamond()),
        make_z2_with_zero(),
        make_b2(),
        make_i2(),
    ]


def test_cover_to_join_corollary_over_all_test_homomorphisms():
    """Tight iff cover-to-join on a non-degenerate restriction, and the
    corner repair always lands tight, over every homomorphism between the
    test semigroups whose codomain supports the notions at all.  Each one
    keeps inverses and idempotents, as its products imply."""
    semigroups = all_test_semigroups()
    checked = 0
    for S in semigroups:
        for T in semigroups:
            if not is_generalized_boolean_inverse_semigroup(T).ok:
                continue
            for hom in all_homomorphisms(S, T):
                checked += 1
                assert_preserves_inverses_and_idempotents(hom)
                report = check_homomorphism_tightness(hom)
                if report.tight.ok:
                    assert report.cover_to_join.ok
                if report.cover_to_join.ok and report.nondegenerate.ok:
                    assert report.tight.ok
                if report.cover_to_join.ok:
                    result = tighten_homomorphism(hom)
                    assert result.report.tight.ok
    assert checked > 100


# -- the homgen universe -------------------------------------------------------------

def load_homgen():
    """perfbench/homgen.py, imported read-only from the source tree."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "homgen.py"
    spec = importlib.util.spec_from_file_location("homgen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_homgen_universe_matches_its_brute_force_verdicts_and_units():
    """Every homomorphism from a semilattice semigroup of at most four
    elements into I3: the verdicts are homgen's brute-force ones, and
    the tightening unit of each cover-to-join map is the partial identity
    on the union of its images.  Each map keeps inverses and idempotents,
    as its products imply."""
    cases = load_homgen().all_cases()
    assert len(cases) == 1306
    tightened = 0
    for case in cases:
        hom = parse(case.text)["h"].structure
        assert_preserves_inverses_and_idempotents(hom)
        report = check_homomorphism_tightness(hom)
        assert (report.cover_to_join.ok, report.tight.ok,
                report.nondegenerate.ok) == (
            case.cover_to_join, case.tight, case.nondegenerate), case.key
        if case.cover_to_join:
            tightened += 1
            assert tighten_homomorphism(hom).unit == case.unit, case.key
    assert tightened == 431
