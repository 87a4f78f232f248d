"""Representations: decision procedures, witnesses, and tightening."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from tightrep import (
    FiniteGenBoolAlg,
    FiniteMeetSemilattice,
    NotCoverToJoinError,
    Representation,
    ValidationError,
    constrained_interval,
    covers_of,
    enumerate_representations,
    enumerate_semilattices,
    ideal_generated_by,
    is_cover,
    is_cover_to_join,
    is_generalized_boolean_inverse_semigroup,
    is_ideal,
    is_nondegenerate,
    is_tight,
    powerset_algebra,
    principal_ideal,
    restrict_to_generated_ideal,
    tighten,
    antichains,
    representations,
)

from conftest import (
    brute_constrained,
    brute_cover_to_join,
    brute_tight,
    make_diamond,
    make_i3,
    subsets_of,
)
from tightrep.representations import TightWitness


def counterexample_rep(chain2, p2):
    return Representation(chain2, p2, {"0": "0", "1": "1"})


# -- validation ---------------------------------------------------------------

def test_counterexample_map_is_a_valid_representation(chain2, p2):
    rep = counterexample_rep(chain2, p2)
    assert rep.image("1") == "1"
    assert rep.range_elements() == ("0", "1")


def test_identity_on_powerset_reduct_is_valid(p2):
    reduct = p2.as_meet_semilattice()
    Representation(reduct, p2, {a: a for a in p2.elements})


def test_meet_violation_is_rejected(vee, p2):
    with pytest.raises(ValidationError, match=r"meet not preserved at \(a, b\)"):
        Representation(vee, p2, {"0": "0", "a": "1", "b": "1"})


def test_zero_and_totality_violations_are_rejected(chain2, p2):
    with pytest.raises(ValidationError, match="zero not preserved"):
        Representation(chain2, p2, {"0": "1", "1": "1"})
    with pytest.raises(ValidationError, match="not total"):
        Representation(chain2, p2, {"0": "0"})
    with pytest.raises(ValidationError, match="unknown element"):
        Representation(chain2, p2, {"0": "0", "1": "1", "x": "0"})


def test_range_must_lie_in_the_codomain_view(chain2, p2):
    view = principal_ideal(p2, "1")
    with pytest.raises(ValidationError, match="outside the codomain view"):
        Representation(chain2, view, {"0": "0", "1": "2"})


# -- constrained sets and covers ------------------------------------------------

def test_constrained_interval_examples(diamond):
    assert constrained_interval(diamond, ("1",), ("a",)) == ("0", "b")
    assert constrained_interval(diamond, (), ()) == diamond.elements
    assert constrained_interval(diamond, ("a", "b"), ()) == ("0",)
    with pytest.raises(ValidationError, match="unknown element"):
        constrained_interval(diamond, ("nope",), ())


def test_constrained_interval_reduction_laws_exhaustively():
    # collapsing the above-set to its meet and the disjointness set to its
    # maximal elements never changes the constrained set; every labeled
    # semilattice with at most 4 elements, every subset pair
    universes = [E for n in (1, 2, 3, 4)
                 for E in enumerate_semilattices(n)]
    for E in universes:
        for above in subsets_of(E.elements):
            for disjoint in subsets_of(E.elements):
                full = constrained_interval(E, above, disjoint)
                assert full == brute_constrained(E, above, disjoint)
                collapsed = (E.meet_all(above),) if above else ()
                maximal = tuple(
                    y for y in disjoint
                    if not any(y != w and E.leq(y, w) for w in disjoint))
                assert constrained_interval(E, collapsed, maximal) == full


def test_is_cover_examples(diamond):
    family = constrained_interval(diamond, ("1",), ())
    assert family == diamond.elements
    assert is_cover(diamond, ("a", "b"), family).ok
    failed = is_cover(diamond, ("a",), family)
    assert not failed.ok and failed.witness == "b"
    assert is_cover(diamond, (), ("0",)).ok
    with pytest.raises(ValidationError, match="not in the family"):
        is_cover(diamond, ("1",), ("0", "a"))


def test_minimal_covers_of_diamond_in_order(diamond):
    assert list(covers_of(diamond, diamond.elements)) == [("1",), ("a", "b")]
    assert list(covers_of(diamond, ("0",))) == [()]
    assert list(covers_of(diamond, ())) == [()]


def test_minimal_covers_of_chain2(chain2):
    assert list(covers_of(chain2, chain2.elements)) == [("1",)]


def test_minimal_covers_are_exactly_the_minimal_ones(diamond):
    family = diamond.elements
    all_covers = [zs for zs in subsets_of(family)
                  if is_cover(diamond, zs, family).ok]
    minimal = [zs for zs in all_covers
               if not any(set(other) < set(zs) for other in all_covers)]
    # the enumerator never includes the zero, which covers nothing
    expected = [tuple(z for z in zs if z != "0") for zs in minimal]
    assert sorted(set(expected)) == sorted(covers_of(diamond, family))


# -- cover-to-join ----------------------------------------------------------------

def test_counterexample_is_cover_to_join(chain2, p2):
    assert is_cover_to_join(counterexample_rep(chain2, p2)).ok


def test_atom_splitting_vee_is_cover_to_join(vee, p2):
    rep = Representation(vee, p2, {"0": "0", "a": "1", "b": "2"})
    assert is_cover_to_join(rep).ok


def test_diamond_with_fat_top_fails_cover_to_join(diamond, p3):
    rep = Representation(
        diamond, p3, {"0": "0", "a": "1", "b": "2", "1": "123"})
    verdict = is_cover_to_join(rep)
    assert not verdict.ok
    assert verdict.witness.element == "1"
    assert verdict.witness.cover == ("a", "b")


# -- tight -------------------------------------------------------------------------

def test_counterexample_is_not_tight_with_expected_witness(chain2, p2):
    verdict = is_tight(counterexample_rep(chain2, p2))
    assert not verdict.ok
    w = verdict.witness
    assert (w.above, w.disjoint, w.cover) == ((), (), ("1",))
    assert w.lhs == "1" and w.rhs == "12"


def test_counterexample_is_tight_in_the_principal_ideal_view(chain2, p2):
    rep = counterexample_rep(chain2, p2)
    assert is_tight(rep, principal_ideal(p2, "1")).ok


def test_atom_splitting_vee_is_tight(vee, p2):
    rep = Representation(vee, p2, {"0": "0", "a": "1", "b": "2"})
    assert is_tight(rep).ok


def test_tight_view_must_contain_the_range(chain2, p2):
    rep = Representation(chain2, p2, {"0": "0", "1": "2"})
    with pytest.raises(ValidationError, match="not contained in the view"):
        is_tight(rep, principal_ideal(p2, "1"))


def test_tight_against_an_equal_algebra_built_separately(p2):
    # a view over another base object reads the images by name: a second
    # P(2), and P(2) declared with "2" before "1" so the atom bits swap
    order = ("0", "2", "1", "12")
    swapped = FiniteGenBoolAlg(
        order, "0", [[p2.meet(a, b) for b in order] for a in order],
        [[p2.join(a, b) for b in order] for a in order])
    assert swapped._masks[swapped.index("1")] != p2._masks[p2.index("1")]
    for other in (powerset_algebra(2), swapped):
        corner = principal_ideal(other, "1")
        for rep in small_universe(3, p2):
            assert is_tight(rep, other) == is_tight(rep)
            for minimal_only in (True, False):
                assert is_tight(rep, other, reduced=False,
                                minimal_only=minimal_only) == is_tight(
                    rep, reduced=False, minimal_only=minimal_only)
            if all(v in corner for v in rep.mapping.values()):
                assert is_tight(rep, corner) == is_tight(
                    rep, principal_ideal(p2, "1"))
            else:
                with pytest.raises(ValidationError,
                                   match="not contained in the view"):
                    is_tight(rep, corner)


def small_universe(max_size, algebra):
    for n in range(1, max_size + 1):
        for E in enumerate_semilattices(n):
            yield from enumerate_representations(E, algebra)


def test_tight_agrees_with_brute_force_oracle_everywhere(p2):
    # reduced scan + minimal covers vs the raw definition, |E| <= 3 into P(2)
    for rep in small_universe(3, p2):
        expected = brute_tight(rep)
        assert is_tight(rep).ok == expected
        assert is_tight(rep, minimal_only=False).ok == expected
        assert is_tight(rep, reduced=False, minimal_only=False).ok == expected
        assert is_tight(rep, reduced=False).ok == expected


def test_cover_to_join_agrees_with_brute_force_oracle(p2):
    for rep in small_universe(3, p2):
        expected = brute_cover_to_join(rep)
        assert is_cover_to_join(rep).ok == expected
        assert is_cover_to_join(rep, minimal_only=False).ok == expected


def test_monotone_join_bound(p2):
    # members of a constrained set never escape the prescribed value, so
    # cover joins sit below it and tightness can only fail by being small
    for rep in small_universe(3, p2):
        E, view = rep.domain, rep.codomain
        for above in [()] + [(x,) for x in E.elements]:
            for disjoint in antichains(E):
                family = constrained_interval(E, above, disjoint)
                rhs = view.meet_all(
                    [rep.image(x) for x in above]
                    + [view.complement(rep.image(y)) for y in disjoint])
                for z in family:
                    assert view.leq(rep.image(z), rhs)
                for zs in covers_of(E, family):
                    lhs = view.join_all(rep.image(z) for z in zs)
                    assert view.leq(lhs, rhs)


def test_cover_to_join_settles_all_nonempty_above_instances(p2):
    # the instances with a nonempty above-set hold for free once the
    # representation is cover-to-join
    for rep in small_universe(3, p2):
        if not is_cover_to_join(rep).ok:
            continue
        E, view = rep.domain, rep.codomain
        for x in E.elements:
            for disjoint in antichains(E):
                family = constrained_interval(E, (x,), disjoint)
                rhs = view.meet_all(
                    [rep.image(x)]
                    + [view.complement(rep.image(y)) for y in disjoint])
                for zs in covers_of(E, family):
                    assert view.join_all(rep.image(z) for z in zs) == rhs


# -- instances are built once per semilattice ------------------------------------

def test_second_scan_of_a_semilattice_builds_no_instance(monkeypatch, p2):
    real = representations._constrained
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(representations, "_constrained", counting)
    reps = list(enumerate_representations(make_diamond(), p2))
    for rep in reps:
        is_cover_to_join(rep)
        is_tight(rep)
    assert calls
    built = len(calls)
    for rep in reps:
        is_cover_to_join(rep)
        is_tight(rep)
    assert len(calls) == built


def test_failing_scan_stops_building_at_its_first_instance(monkeypatch):
    # zero plus six atoms: the zero map into P(1) fails the reduced scan at
    # its first instance (nothing above, nothing disjoint), so the scan
    # computes covers for that one constrained set and no other
    names = ["0"] + [f"a{k}" for k in range(1, 7)]
    meet = [[x if x == y else "0" for y in names] for x in names]
    E = FiniteMeetSemilattice(names, "0", meet)
    rep = Representation(E, powerset_algebra(1), {x: "0" for x in names})
    real = representations._covers
    families = []

    def counting(semilattice, family, *args):
        families.append(family)
        return real(semilattice, family, *args)
    monkeypatch.setattr(representations, "_covers", counting)
    verdict = is_tight(rep)
    assert not verdict.ok
    assert verdict.witness.above == verdict.witness.disjoint == ()
    assert families == [(1 << len(names)) - 1]


def chain3_and_vee():
    # same element names, different orders: instances must not be shared
    chain3 = FiniteMeetSemilattice(
        ["0", "1", "2"], "0",
        [["0", "0", "0"], ["0", "1", "1"], ["0", "1", "2"]])
    vee = FiniteMeetSemilattice(
        ["0", "1", "2"], "0",
        [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]])
    return chain3, vee


# (images of 1 and 2) -> (cover-to-join witness, tight witness in the full
# view) per representation into P(2); recorded before instances were kept
CHAIN3_WITNESSES = {
    ("0", "0"): (None, ((), (), ("1",), "0", "12")),
    ("0", "1"): (("2", ("1",)), ((), (), ("1",), "0", "12")),
    ("0", "2"): (("2", ("1",)), ((), (), ("1",), "0", "12")),
    ("0", "12"): (("2", ("1",)), ((), (), ("1",), "0", "12")),
    ("1", "1"): (None, ((), (), ("1",), "1", "12")),
    ("1", "12"): (("2", ("1",)), ((), (), ("1",), "1", "12")),
    ("2", "2"): (None, ((), (), ("1",), "2", "12")),
    ("2", "12"): (("2", ("1",)), ((), (), ("1",), "2", "12")),
    ("12", "12"): (None, None),
}
VEE_WITNESSES = {
    ("0", "0"): (None, ((), (), ("1", "2"), "0", "12")),
    ("0", "1"): (None, ((), (), ("1", "2"), "1", "12")),
    ("0", "2"): (None, ((), (), ("1", "2"), "2", "12")),
    ("0", "12"): (None, None),
    ("1", "0"): (None, ((), (), ("1", "2"), "1", "12")),
    ("1", "2"): (None, None),
    ("2", "0"): (None, ((), (), ("1", "2"), "2", "12")),
    ("2", "1"): (None, None),
    ("12", "0"): (None, None),
}


def test_interleaved_scans_of_same_named_semilattices(p2):
    chain3, vee = chain3_and_vee()
    pairs = zip(
        [(rep, CHAIN3_WITNESSES) for rep in enumerate_representations(chain3, p2)],
        [(rep, VEE_WITNESSES) for rep in enumerate_representations(vee, p2)],
        strict=True)
    for pair in pairs:
        for rep, witnesses in pair:
            ctj_witness, tight_witness = witnesses[
                (rep.image("1"), rep.image("2"))]
            ctj = is_cover_to_join(rep)
            assert ctj.ok == brute_cover_to_join(rep) == (ctj_witness is None)
            if not ctj.ok:
                w = ctj.witness
                assert (w.element, w.cover) == ctj_witness
            tight = is_tight(rep)
            assert tight.ok == brute_tight(rep) == (tight_witness is None)
            if not tight.ok:
                w = tight.witness
                assert (w.above, w.disjoint, w.cover, w.lhs, w.rhs) == \
                    tight_witness
            if ctj.ok:
                corner = tighten(rep).codomain
                assert is_tight(rep, corner).ok
                assert brute_tight(rep, corner)


def test_scan_started_while_an_instance_is_built_keeps_positions(
        monkeypatch, p2):
    # a second scan that runs while the first is building an instance (as
    # after a thread switch) stores it and stops early; the first scan must
    # then keep that instance, not store it again one position later
    E, serial = make_diamond(), make_diamond()
    reps = list(enumerate_representations(E, p2))
    failing = next(rep for rep in reps if not brute_tight(rep))
    real = representations._constrained
    nested = []

    def interrupting(*args):
        if not nested:
            nested.append("running")
            nested[0] = is_tight(failing, reduced=False, minimal_only=False)
        return real(*args)
    monkeypatch.setattr(representations, "_constrained", interrupting)
    got = [is_tight(rep, reduced=False, minimal_only=False) for rep in reps]
    monkeypatch.undo()
    assert not nested[0].ok
    assert got == [is_tight(rep, reduced=False, minimal_only=False)
                   for rep in enumerate_representations(serial, p2)]
    assert list(representations._instances(E, "all", False)) == \
        list(representations._instances(serial, "all", False))


def test_concurrent_scans_of_one_semilattice_agree(p2):
    # threads fill one semilattice's instances at once; a lost or doubled
    # update would shift instance positions
    def scans(reps):
        return [(is_cover_to_join(rep), is_tight(rep),
                 is_tight(rep, reduced=False, minimal_only=False))
                for rep in reps]

    serial = make_diamond()
    expected = scans(enumerate_representations(serial, p2))
    kinds = [("cover-to-join", True), ("reduced", True), ("all", False)]
    for _ in range(5):
        E = make_diamond()
        reps = list(enumerate_representations(E, p2))
        start = threading.Barrier(6)
        results = []

        def worker(k):
            start.wait(timeout=60)
            results.append((k, scans(reps[k:] + reps[:k])))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert sorted(k for k, _ in results) == list(range(6))
        for k, got in results:
            assert got == expected[k:] + expected[:k]
        for kind, minimal_only in kinds:
            assert list(representations._instances(E, kind, minimal_only)) \
                == list(representations._instances(serial, kind, minimal_only))


SMALL_SEMILATTICES = [E for n in (1, 2, 3, 4) for E in enumerate_semilattices(n)]
CODOMAINS = (powerset_algebra(1), powerset_algebra(2))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_scans_agree_with_brute_force_oracles_on_drawn_views(data):
    E = data.draw(st.sampled_from(SMALL_SEMILATTICES))
    B = data.draw(st.sampled_from(CODOMAINS))
    rep = data.draw(st.sampled_from(list(enumerate_representations(E, B))))
    views = ["full", "generated ideal"]
    if is_cover_to_join(rep).ok:
        views.append("corner")
    view = data.draw(st.sampled_from(views))
    if view == "generated ideal":
        rep = restrict_to_generated_ideal(rep)
    elif view == "corner":
        rep = tighten(rep).representation
    expected = brute_tight(rep)
    assert is_cover_to_join(rep).ok == brute_cover_to_join(rep)
    assert is_cover_to_join(rep, minimal_only=False).ok == \
        brute_cover_to_join(rep)
    assert is_tight(rep).ok == expected
    assert is_tight(rep, reduced=False, minimal_only=False).ok == expected


# -- the mask kernel does not depend on names or atom order ----------------------

def relabeled_p3():
    """P(3) renamed e0..e7 and declared in name order: the zero is not
    first, and the atoms' bits follow neither P(3)'s nor the names."""
    p3 = powerset_algebra(3)
    labels = dict(zip(p3.elements,
                      ("e3", "e6", "e0", "e5", "e2", "e7", "e4", "e1")))
    back = {v: k for k, v in labels.items()}
    els = sorted(back)
    meet = [[labels[p3.meet(back[a], back[b])] for b in els] for a in els]
    join = [[labels[p3.join(back[a], back[b])] for b in els] for a in els]
    return FiniteGenBoolAlg(els, labels["0"], meet, join), labels


def i3_idempotent_algebra():
    """The idempotents of I3 with the least-upper-bound join; the subset s
    of P(3) is the partial identity on s."""
    algebra = is_generalized_boolean_inverse_semigroup(make_i3()).algebra
    labels = {e: "m" + "".join(d if d in e else "0" for d in "123")
              for e in powerset_algebra(3).elements}
    return algebra, labels


def all_scans(rep):
    """Both cover-to-join scans, then the four tight scans."""
    return [is_cover_to_join(rep), is_cover_to_join(rep, minimal_only=False)] + [
        is_tight(rep, reduced=reduced, minimal_only=minimal_only)
        for reduced in (True, False) for minimal_only in (True, False)]


def relabeled_verdict(verdict, labels):
    w = verdict.witness
    if isinstance(w, TightWitness):
        w = replace(w, lhs=labels[w.lhs], rhs=labels[w.rhs])
    return type(verdict)(verdict.ok, w)


@pytest.mark.parametrize("target", [relabeled_p3, i3_idempotent_algebra])
def test_mask_kernel_follows_a_relabeling_of_the_codomain(target):
    # every scan on the relabeled codomain agrees with the name-level
    # oracles, and its witnesses are P(3)'s with lhs and rhs relabeled;
    # labeled domains up to size 3, one per isomorphism class at size 4
    p3 = powerset_algebra(3)
    Q, labels = target()
    assert Q._masks[Q.index(labels["1"])] != p3._masks[p3.index("1")]
    views = [(p3, Q),
             (principal_ideal(p3, "12"), principal_ideal(Q, labels["12"]))]
    for n in range(1, 5):
        for E in enumerate_semilattices(n, up_to_iso=n == 4):
            for p_view, q_view in views:
                for rep in enumerate_representations(E, p_view):
                    q = Representation(
                        E, q_view, {x: labels[v] for x, v in rep.mapping.items()})
                    pairs = [(rep, q)]
                    if is_cover_to_join(rep).ok:
                        pairs.append((tighten(rep).representation,
                                      tighten(q).representation))
                    for a, b in pairs:
                        got = all_scans(b)
                        assert got == [relabeled_verdict(v, labels)
                                       for v in all_scans(a)]
                        ctj, tight = brute_cover_to_join(b), brute_tight(b)
                        assert [v.ok for v in got] == [ctj] * 2 + [tight] * 4


# -- non-degeneracy ------------------------------------------------------------------

def test_nondegenerate_examples(chain2, p2):
    rep = counterexample_rep(chain2, p2)
    verdict = is_nondegenerate(rep)
    assert not verdict.ok and verdict.witness == "2"

    reduct = p2.as_meet_semilattice()
    identity = Representation(reduct, p2, {a: a for a in p2.elements})
    assert is_nondegenerate(identity).ok

    assert is_nondegenerate(restrict_to_generated_ideal(rep)).ok


def test_nondegenerate_matches_generated_ideal_comparison(p2):
    for rep in small_universe(3, p2):
        generated = ideal_generated_by(p2, rep.range_elements())
        expected = set(generated.elements) == set(p2.elements)
        assert is_nondegenerate(rep).ok == expected


# -- tighten and restrict -----------------------------------------------------------

def test_tighten_counterexample(chain2, p2):
    t = tighten(counterexample_rep(chain2, p2))
    assert t.unit == "1"
    assert t.codomain.elements == ("0", "1")
    assert is_tight(t.representation).ok
    assert is_ideal(p2, t.codomain.members).ok


def test_tighten_identity_keeps_everything(p2):
    reduct = p2.as_meet_semilattice()
    identity = Representation(reduct, p2, {a: a for a in p2.elements})
    t = tighten(identity)
    assert t.unit == p2.top
    assert set(t.codomain.elements) == set(p2.elements)


def test_tighten_vee_into_p3(vee, p3):
    rep = Representation(vee, p3, {"0": "0", "a": "1", "b": "2"})
    t = tighten(rep)
    assert t.unit == "12"
    assert t.codomain.elements == ("0", "1", "2", "12")
    assert is_tight(t.representation).ok


def test_tighten_requires_cover_to_join(diamond, p3):
    rep = Representation(
        diamond, p3, {"0": "0", "a": "1", "b": "2", "1": "123"})
    with pytest.raises(NotCoverToJoinError) as err:
        tighten(rep)
    assert err.value.witness.element == "1"
    assert err.value.witness.cover == ("a", "b")


def test_tighten_makes_every_cover_to_join_rep_tight(p1, p2):
    for algebra in (p1, p2):
        for rep in small_universe(3, algebra):
            if not is_cover_to_join(rep).ok:
                continue
            t = tighten(rep)
            assert is_ideal(algebra, t.codomain.members).ok
            assert all(rep.image(x) in t.codomain
                       for x in rep.domain.elements)
            assert is_tight(rep, t.codomain).ok
            assert brute_tight(rep, t.codomain)


def test_restrict_to_generated_ideal_examples(chain2, p2):
    rep = counterexample_rep(chain2, p2)
    restricted = restrict_to_generated_ideal(rep)
    assert restricted.codomain.elements == ("0", "1")

    reduct = p2.as_meet_semilattice()
    identity = Representation(reduct, p2, {a: a for a in p2.elements})
    assert (set(restrict_to_generated_ideal(identity).codomain.elements)
            == set(p2.elements))

    trivial = FiniteMeetSemilattice(["0"], "0", [["0"]])
    zero_rep = Representation(trivial, p2, {"0": "0"})
    assert restrict_to_generated_ideal(zero_rep).codomain.elements == ("0",)


# -- degenerate domain ----------------------------------------------------------------

def test_trivial_domain_behavior(p2):
    # E = {0} is legal: its lower sets have the empty cover only, every
    # representation of it is cover-to-join, and tightening lands in the
    # trivial corner, which is tight.  Against a nontrivial full view the
    # raw tight equation demands zero = top, so tightness fails there;
    # that instance is the first scanned.
    trivial = FiniteMeetSemilattice(["0"], "0", [["0"]])
    rep = Representation(trivial, p2, {"0": "0"})
    assert list(covers_of(trivial, trivial.elements)) == [()]
    assert is_cover_to_join(rep).ok
    verdict = is_tight(rep)
    assert not verdict.ok
    assert (verdict.witness.above, verdict.witness.disjoint,
            verdict.witness.cover) == ((), (), ())
    assert verdict.witness.rhs == p2.top
    assert not brute_tight(rep)
    t = tighten(rep)
    assert t.unit == "0"
    assert t.codomain.elements == ("0",)
    assert is_tight(rep, t.codomain).ok


# -- determinism ------------------------------------------------------------------------

def test_witnesses_are_first_in_graded_lex_order(diamond, p3):
    # for the diamond's fat-top failure, the size-1 cover ("1",) passes and
    # the scan reports the later pair ("a", "b")
    rep = Representation(
        diamond, p3, {"0": "0", "a": "1", "b": "2", "1": "123"})
    assert list(covers_of(diamond, diamond.elements)) == [("1",), ("a", "b")]
    verdict = is_cover_to_join(rep)
    assert verdict.witness.cover == ("a", "b")


def test_verdicts_and_witnesses_are_reproducible(chain2, p2):
    rep = counterexample_rep(chain2, p2)
    assert is_tight(rep) == is_tight(rep)
    assert is_cover_to_join(rep) == is_cover_to_join(rep)
