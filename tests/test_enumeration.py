"""Universe generation, canonical forms, and the exhaustive searches."""

from __future__ import annotations

from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from tightrep import (
    FiniteMeetSemilattice,
    UniverseSpec,
    ValidationError,
    canonical_meet_table,
    enumerate_representations,
    enumerate_semilattices,
    is_cover_to_join,
    is_tight,
    powerset_algebra,
    principal_ideal,
    search_gap,
    verify_theorems,
)
from tightrep import enumeration
from tightrep.enumeration import (
    MAX_ATOMS,
    MAX_ISO_SIZE,
    MAX_LABELED_SIZE,
    VerificationSummary,
    _check_semilattice,
)

from conftest import (
    brute_cover_to_join,
    brute_semilattice_tables,
    brute_tight,
    make_diamond,
    satisfies_semilattice_axioms,
)


def index_table(sl: FiniteMeetSemilattice):
    return tuple(
        tuple(sl.index(sl.meet(a, b)) for b in sl.elements)
        for a in sl.elements)


# -- semilattice enumeration -----------------------------------------------------

def test_small_counts():
    # A meet-semilattice with zero on n elements plus an adjoined top is a
    # lattice on n + 1 elements, so the counts are independent OEIS values:
    # A006966 (lattices up to isomorphism) for the up-to-iso stream, and
    # A055512 (labeled lattices) = labeled count * (n + 1) * n, the factor
    # choosing the labels of the bottom and the top on n + 1 points.
    unlabeled = [1, 1, 2, 5, 15, 53, 222]
    labeled_lattices = [2, 6, 36, 380, 6390, 157962]
    for n in range(1, 8):
        assert (sum(1 for _ in enumerate_semilattices(n, up_to_iso=True))
                == unlabeled[n - 1])
    for n in range(1, 7):
        assert (sum(1 for _ in enumerate_semilattices(n)) * (n + 1) * n
                == labeled_lattices[n - 1])


def test_enumeration_matches_brute_force_filter():
    for n in (1, 2, 3):
        expected = set(brute_semilattice_tables(n))
        got = [index_table(sl) for sl in enumerate_semilattices(n)]
        assert len(got) == len(set(got))
        assert set(got) == expected


def brute_meet_table_stream(n):
    """Every assignment of the entries (i, j), 1 <= i < j, that passes the
    axiom filter, sorted by the assignment vector."""
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    found = []
    for values in product(range(n), repeat=len(pairs)):
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            t[i][i] = i
        for (i, j), v in zip(pairs, values):
            t[i][j] = t[j][i] = v
        if satisfies_semilattice_axioms(t):
            found.append((values, tuple(tuple(row) for row in t)))
    return [t for _, t in sorted(found)]


def test_enumeration_stream_matches_sorted_brute_oracle():
    # the relabelings of the classes must be exactly the valid tables, in
    # the order of their assignment vectors
    for n in range(1, 6):
        got = [index_table(sl) for sl in enumerate_semilattices(n)]
        assert got == brute_meet_table_stream(n)


def test_enumeration_is_deterministic():
    first = [index_table(sl) for sl in enumerate_semilattices(4)]
    second = [index_table(sl) for sl in enumerate_semilattices(4)]
    assert first == second


def test_zero_is_pinned_first():
    for sl in enumerate_semilattices(3):
        assert sl.zero == sl.elements[0] == "0"


def test_size_must_be_positive():
    with pytest.raises(ValidationError):
        list(enumerate_semilattices(0))


def test_sizes_past_the_bounds_are_refused_before_generation(no_generation):
    assert (MAX_LABELED_SIZE, MAX_ISO_SIZE) == (7, 8)
    with pytest.raises(ValidationError, match="at most 7"):
        enumerate_semilattices(8)
    with pytest.raises(ValidationError, match="at most 8 up to isomorphism"):
        enumerate_semilattices(9, up_to_iso=True)
    with pytest.raises(ValidationError, match="at most 7"):
        UniverseSpec(8, (1,))
    with pytest.raises(ValidationError, match="at most 8 up to isomorphism"):
        UniverseSpec(9, (1,), up_to_iso=True)
    UniverseSpec(7, (1,))
    UniverseSpec(8, (1,), up_to_iso=True)


# -- isomorph-free generation ----------------------------------------------------------

def iso_levels(up_to):
    """The canonical tables of sizes 1..up_to, level by level."""
    return [list(enumeration._iso_meet_tables(n)) for n in range(1, up_to + 1)]


def test_every_extension_is_a_semilattice_with_a_new_maximal_element():
    for level in iso_levels(6):
        for table in level:
            k = len(table)
            for child in enumeration._extensions(table):
                assert len(child) == k + 1
                assert satisfies_semilattice_axioms(child)
                # the old table is kept, and nothing lies above the new one
                assert all(child[a][:k] == table[a] for a in range(k))
                assert all(child[k][a] != k for a in range(k))


def test_extension_counts_per_level():
    counts = [sum(1 for table in level
                  for _ in enumeration._extensions(table))
              for level in iso_levels(5)]
    assert counts == [1, 2, 7, 27, 116]


# -- canonical form -----------------------------------------------------------------

def test_canonical_form_is_idempotent():
    for sl in enumerate_semilattices(4):
        canon = canonical_meet_table(index_table(sl))
        assert canonical_meet_table(canon) == canon


def brute_canonical_table(table):
    """The least of the fully built relabelings fixing 0."""
    n = len(table)
    best = None
    for perm in permutations(range(1, n)):
        sigma = (0,) + perm
        relabeled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabeled[sigma[a]][sigma[b]] = sigma[table[a][b]]
        candidate = tuple(tuple(row) for row in relabeled)
        if best is None or candidate < best:
            best = candidate
    return best


def test_canonical_form_matches_brute_oracle():
    for n in range(1, 6):
        for sl in enumerate_semilattices(n):
            table = index_table(sl)
            assert canonical_meet_table(table) == brute_canonical_table(table)


def test_canonical_members_are_exactly_the_up_to_iso_stream():
    for n in range(1, 7):
        labeled = [index_table(sl) for sl in enumerate_semilattices(n)]
        emitted = [index_table(sl)
                   for sl in enumerate_semilattices(n, up_to_iso=True)]
        assert set(emitted) == {canonical_meet_table(t) for t in labeled}
        assert emitted == [t for t in labeled if canonical_meet_table(t) == t]


@settings(max_examples=60, derandomize=True, database=None)
@given(st.data())
def test_canonical_form_is_relabeling_invariant(data):
    tables = [index_table(sl) for sl in enumerate_semilattices(4)]
    table = data.draw(st.sampled_from(tables))
    n = len(table)
    perm = data.draw(st.permutations(list(range(1, n))))
    sigma = (0,) + tuple(perm)
    relabeled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabeled[sigma[a]][sigma[b]] = sigma[table[a][b]]
    relabeled = tuple(tuple(row) for row in relabeled)
    assert canonical_meet_table(relabeled) == canonical_meet_table(table)


# -- powerset algebras -----------------------------------------------------------------

def test_powerset_algebra_shapes():
    assert powerset_algebra(0).elements == ("0",)
    assert powerset_algebra(1).elements == ("0", "1")
    p2 = powerset_algebra(2)
    assert p2.elements == ("0", "1", "2", "12")
    assert p2.top == "12"
    with pytest.raises(ValidationError):
        powerset_algebra(-1)


# -- representation enumeration -----------------------------------------------------------

def test_representation_counts():
    chain2 = next(iter(enumerate_semilattices(2)))
    trivial = next(iter(enumerate_semilattices(1)))
    assert sum(1 for _ in enumerate_representations(
        chain2, powerset_algebra(1))) == 2
    assert sum(1 for _ in enumerate_representations(
        chain2, powerset_algebra(2))) == 4
    assert sum(1 for _ in enumerate_representations(
        trivial, powerset_algebra(2))) == 1


def test_representation_stream_is_deterministic():
    chain2 = next(iter(enumerate_semilattices(2)))
    p2 = powerset_algebra(2)
    first = [rep.mapping for rep in enumerate_representations(chain2, p2)]
    second = [rep.mapping for rep in enumerate_representations(chain2, p2)]
    assert first == second
    assert [m["1"] for m in first] == ["0", "1", "2", "12"]


def brute_representation_maps(E, B):
    """Every zero-preserving map that preserves meets by name, in the
    product order over the codomain's declared order."""
    nonzero = [x for x in E.elements if x != E.zero]
    found = []
    for images in product(B.elements, repeat=len(nonzero)):
        mapping = dict(zip(nonzero, images))
        mapping[E.zero] = B.zero
        if all(mapping[E.meet(x, y)] == B.meet(mapping[x], mapping[y])
               for x in nonzero for y in nonzero):
            found.append(list(mapping.items()))
    return found


def reversed_declaration(E):
    """The same semilattice with its elements declared in reverse order."""
    els = E.elements[::-1]
    return FiniteMeetSemilattice(
        els, E.zero, [[E.meet(a, b) for b in els] for a in els])


def test_representation_stream_matches_brute_oracle():
    # the pruned depth-first search yields exactly the filtered product,
    # in its order, also with the zero declared last
    p3 = powerset_algebra(3)
    codomains = [powerset_algebra(k) for k in range(4)]
    codomains += [principal_ideal(p3, e) for e in p3.elements]
    for n in range(1, 5):
        for E in enumerate_semilattices(n):
            for D in (E, reversed_declaration(E)):
                for B in codomains:
                    got = [list(rep.mapping.items())
                           for rep in enumerate_representations(D, B)]
                    assert got == brute_representation_maps(D, B)


# -- gap search ------------------------------------------------------------------------------

def test_search_gap_empty_streams():
    assert list(search_gap(UniverseSpec(2, (1,)))) == []
    assert list(search_gap(UniverseSpec(1, (2,)))) == []


def test_search_gap_finds_the_two_chain_counterexamples_first():
    gaps = list(search_gap(UniverseSpec(2, (2,))))
    assert len(gaps) == 2
    first = gaps[0]
    assert len(first.semilattice) == 2
    assert first.representation.mapping == {"0": "0", "1": "1"}
    w = first.report.tight.witness
    assert (w.above, w.disjoint, w.cover) == ((), (), ("1",))
    assert gaps[1].representation.mapping == {"0": "0", "1": "2"}


def test_search_gap_matches_independent_recomputation():
    # the stream is exactly the brute-force divergence set, minus the
    # zero-range maps the search deliberately skips
    spec = UniverseSpec(3, (2,))
    got = [(index_table(g.semilattice), tuple(sorted(g.representation.mapping.items())))
           for g in search_gap(spec)]
    expected = []
    p2 = powerset_algebra(2)
    for n in (1, 2, 3):
        for E in enumerate_semilattices(n):
            for rep in enumerate_representations(E, p2):
                if set(rep.mapping.values()) == {"0"}:
                    continue
                if brute_cover_to_join(rep) and not brute_tight(rep):
                    expected.append(
                        (index_table(E), tuple(sorted(rep.mapping.items()))))
    assert got == expected
    assert len(got) > 2


def test_search_gap_is_deterministic():
    spec = UniverseSpec(3, (1, 2))
    first = [g.representation.mapping for g in search_gap(spec)]
    second = [g.representation.mapping for g in search_gap(spec)]
    assert first == second


def test_gap_reports_always_diverge():
    for gap in search_gap(UniverseSpec(3, (2,))):
        assert gap.report.cover_to_join.ok
        assert not gap.report.tight.ok


# -- theorem verification ------------------------------------------------------------------------

def test_verify_theorems_small_universe():
    summary = verify_theorems(UniverseSpec(3, (2,)))
    assert summary.ok
    assert summary.violations == []
    assert summary.semilattices == 5
    assert summary.representations == 32
    assert summary.checks > 1000


def test_verify_theorems_trivial_universe():
    summary = verify_theorems(UniverseSpec(1, (0,)))
    assert summary.ok
    assert summary.semilattices == 1
    assert summary.representations == 1


def test_verify_theorems_p1():
    assert verify_theorems(UniverseSpec(3, (1,))).ok


def test_universe_spec_validation():
    with pytest.raises(ValidationError):
        UniverseSpec(0, (2,))
    with pytest.raises(ValidationError):
        UniverseSpec(2, ())
    with pytest.raises(ValidationError):
        UniverseSpec(2, (-1,))


def test_atom_counts_above_the_bound_are_refused():
    # P(9) would have 512 x 512 tables; refuse it before building anything
    assert MAX_ATOMS == 8
    with pytest.raises(ValidationError, match="at most 8"):
        UniverseSpec(1, (2, 9))
    with pytest.raises(ValidationError, match="at most 8"):
        powerset_algebra(9)


def test_semilattice_pass_reports_an_unsound_reduction():
    # a meet entry changed after validation breaks the law that the
    # above-set collapses to its meet; the pass must say where
    E = make_diamond()
    summary = VerificationSummary()
    _check_semilattice(E, summary)
    assert summary.ok and summary.checks == 256
    a, b = E.index("a"), E.index("b")
    meet = [list(row) for row in E._meet]
    meet[a][b] = a
    E._meet = tuple(tuple(row) for row in meet)
    summary = VerificationSummary()
    _check_semilattice(E, summary)
    assert summary.checks == 256
    assert summary.violations[0] == \
        "constrained-set reduction unsound at ('a', 'b'), ()"


def test_reduced_tight_scan_agrees_on_mixed_universe():
    # cross-check the scan reductions on a universe with two codomains
    for k in (1, 2):
        algebra = powerset_algebra(k)
        for n in (1, 2, 3):
            for E in enumerate_semilattices(n):
                for rep in enumerate_representations(E, algebra):
                    assert is_tight(rep).ok == brute_tight(rep)
                    assert is_cover_to_join(rep).ok == brute_cover_to_join(rep)
