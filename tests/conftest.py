"""Shared structures and independent brute-force oracles.

The oracles transcribe the defining conditions directly over raw subset
scans, with none of the library's search-space reductions, so they stay
independent of the code paths they cross-check.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

from tightrep import (
    FiniteGenBoolAlg,
    FiniteInverseSemigroup,
    FiniteMeetSemilattice,
    ISHomomorphism,
    ValidationError,
    enumeration,
    powerset_algebra,
)


# -- canonical small structures ------------------------------------------

def make_chain2():
    return FiniteMeetSemilattice(["0", "1"], "0", [["0", "0"], ["0", "1"]])


def make_vee():
    # two incomparable atoms over zero
    return FiniteMeetSemilattice(
        ["0", "a", "b"], "0",
        [["0", "0", "0"],
         ["0", "a", "0"],
         ["0", "0", "b"]])


def make_diamond():
    # two incomparable atoms with a common top
    return FiniteMeetSemilattice(
        ["0", "a", "b", "1"], "0",
        [["0", "0", "0", "0"],
         ["0", "a", "0", "a"],
         ["0", "0", "b", "b"],
         ["0", "a", "b", "1"]])


@pytest.fixture
def chain2():
    return make_chain2()


@pytest.fixture
def vee():
    return make_vee()


@pytest.fixture
def diamond():
    return make_diamond()


@pytest.fixture
def p1():
    return powerset_algebra(1)


@pytest.fixture
def p2():
    return powerset_algebra(2)


@pytest.fixture
def p3():
    return powerset_algebra(3)


@pytest.fixture
def no_generation(monkeypatch):
    """Make any meet-table generator or powerset algebra build fail, so a
    size guard is tested without starting the work it refuses."""
    def unreachable(n):
        raise AssertionError(f"generation of size {n} started")
    for name in ("_meet_tables", "_iso_meet_tables", "powerset_algebra"):
        monkeypatch.setattr(enumeration, name, unreachable)


# -- inverse semigroups, built from first principles ----------------------

I2_MAPS = {
    "z": {}, "e1": {1: 1}, "e2": {2: 2},
    "a": {1: 2}, "b": {2: 1},
    "i": {1: 1, 2: 2}, "t": {1: 2, 2: 1},
}
I2_NAMES = ("z", "e1", "e2", "a", "b", "i", "t")


def _compose(f, g):
    """Partial injections: f after g."""
    return {x: f[g[x]] for x in g if g[x] in f}


def _i2_mul_rows(names):
    def find(m):
        for k, v in I2_MAPS.items():
            if v == m:
                return k
        raise AssertionError(f"composition left I2: {m}")
    return [[find(_compose(I2_MAPS[x], I2_MAPS[y])) for y in names]
            for x in names]


def make_i2():
    """The symmetric inverse semigroup on two points, with zero."""
    return FiniteInverseSemigroup(I2_NAMES, "z", _i2_mul_rows(I2_NAMES))


def make_b2():
    """The five-element combinatorial Brandt semigroup inside I2."""
    names = ("z", "e1", "e2", "a", "b")
    return FiniteInverseSemigroup(names, "z", _i2_mul_rows(names))


def make_z2_with_zero():
    """The two-element group with a zero adjoined."""
    return FiniteInverseSemigroup(
        ["0", "e", "g"], "0",
        [["0", "0", "0"],
         ["0", "e", "g"],
         ["0", "g", "e"]])


def make_i3():
    """The symmetric inverse monoid on {1, 2, 3}; zero is the empty map.

    A partial injection f is the tuple (f(1), f(2), f(3)) with 0 where f
    is undefined, named "m" followed by its digits; products compose
    right to left.
    """
    maps = [f for f in product(range(4), repeat=3)
            if len([v for v in f if v]) == len({v for v in f if v})]

    def name(f):
        return "m" + "".join(map(str, f))

    def compose(f, g):
        return tuple(f[v - 1] if v else 0 for v in g)
    names = [name(f) for f in maps]
    rows = [[name(compose(f, g)) for g in maps] for f in maps]
    return FiniteInverseSemigroup(names, name((0, 0, 0)), rows)


def semigroup_from_semilattice(sl):
    """A meet-semilattice as a commutative idempotent inverse semigroup."""
    rows = [[sl.meet(a, b) for b in sl.elements] for a in sl.elements]
    return FiniteInverseSemigroup(sl.elements, sl.zero, rows)


@pytest.fixture
def i2():
    return make_i2()


# -- independent oracles ---------------------------------------------------

def subsets_of(items):
    out = []
    for r in range(len(items) + 1):
        out.extend(combinations(items, r))
    return out


def brute_constrained(E, above, disjoint):
    return tuple(z for z in E.elements
                 if all(E.meet(z, x) == z for x in above)
                 and all(E.meet(z, y) == E.zero for y in disjoint))


def brute_is_cover(E, zs, family):
    return all(any(E.meet(x, z) != E.zero for z in zs)
               for x in family if x != E.zero)


def brute_cover_to_join(rep):
    """Plain scan: every cover of every lower set joins to the image."""
    E, view = rep.domain, rep.codomain
    for x in E.elements:
        family = brute_constrained(E, (x,), ())
        for zs in subsets_of(family):
            if not brute_is_cover(E, zs, family):
                continue
            lhs = view.zero
            for z in zs:
                lhs = view.join(lhs, rep.image(z))
            if lhs != rep.image(x):
                return False
    return True


def brute_tight(rep, view=None):
    """Plain transcription of the tight condition, no reductions.

    All subset pairs constrain, all covers are scanned, complements are
    taken against the view's top.
    """
    E = rep.domain
    view = view if view is not None else rep.codomain
    for above in subsets_of(E.elements):
        for disjoint in subsets_of(E.elements):
            family = brute_constrained(E, above, disjoint)
            rhs = view.top
            for x in above:
                rhs = view.meet(rhs, rep.image(x))
            for y in disjoint:
                rhs = view.meet(
                    rhs, view.relative_complement(rep.image(y), view.top))
            for zs in subsets_of(family):
                if not brute_is_cover(E, zs, family):
                    continue
                lhs = view.zero
                for z in zs:
                    lhs = view.join(lhs, rep.image(z))
                if lhs != rhs:
                    return False
    return True


def satisfies_semilattice_axioms(t):
    """Whether an index table is idempotent, commutative and associative
    with absorbing zero at index 0."""
    rng = range(len(t))
    return not (
        any(t[i][i] != i for i in rng)
        or any(t[0][i] != 0 or t[i][0] != 0 for i in rng)
        or any(t[i][j] != t[j][i] for i in rng for j in rng)
        or any(t[t[i][j]][k] != t[i][t[j][k]]
               for i in rng for j in rng for k in rng))


def brute_semilattice_tables(n):
    """All of the n^(n*n) tables that satisfy the semilattice axioms with
    absorbing zero at index 0, as index tables."""
    rng = range(n)
    found = []
    for flat in product(rng, repeat=n * n):
        t = [list(flat[i * n:(i + 1) * n]) for i in rng]
        if satisfies_semilattice_axioms(t):
            found.append(tuple(tuple(row) for row in t))
    return found


def all_homomorphisms(S, T):
    """Every zero-preserving multiplicative map between the two semigroups.

    The codomain must carry a Boolean idempotent algebra, otherwise
    homomorphisms into it cannot be constructed at all.
    """
    nonzero = [s for s in S.elements if s != S.zero]
    out = []
    for images in product(T.elements, repeat=len(nonzero)):
        mapping = dict(zip(nonzero, images))
        mapping[S.zero] = T.zero
        ok = True
        for a in S.elements:
            for b in S.elements:
                if mapping[S.mul(a, b)] != T.mul(mapping[a], mapping[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(ISHomomorphism(S, T, mapping))
    return out
