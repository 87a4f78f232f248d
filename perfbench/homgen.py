"""Inputs and expected verdicts for the `hom-requests` workload.

Everything here is built from first principles with the standard library
only, so the expected verdicts do not depend on the code under test:

- I3, the symmetric inverse monoid on {1, 2, 3} (34 partial injections,
  zero = the empty map), whose idempotents are the partial identities and
  form the powerset P(3);
- every labeled meet-semilattice with zero on at most four elements, read
  as a commutative idempotent inverse semigroup;
- every zero-preserving multiplicative map from such a semigroup into I3
  (1306 of them), each written as a one-homomorphism structure file;
- the cover-to-join, tight and non-degenerate verdicts of each map,
  transcribed directly from their definitions over raw subset scans, in
  the style of the oracles in the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

POINTS = (1, 2, 3)
MAX_DOMAIN = 4


def _name(f):
    """A partial injection as a 3-letter word: image of 1, 2, 3 or '_'."""
    return "".join(str(v) if v else "_" for v in f)


def _i3_maps():
    maps = []
    for k in range(len(POINTS) + 1):
        for dom in combinations(POINTS, k):
            for img in permutations(POINTS, k):
                f = [0, 0, 0]
                for x, y in zip(dom, img):
                    f[x - 1] = y
                maps.append(tuple(f))
    return maps


I3_MAPS = _i3_maps()
I3_NAMES = [_name(f) for f in I3_MAPS]
I3_ZERO = _name((0, 0, 0))


def _compose(f, g):
    """f after g, as partial injections."""
    return tuple(f[g[x] - 1] if g[x] else 0 for x in range(len(POINTS)))


def identity_on(points):
    """The I3 name of the partial identity on a set of points."""
    return _name(tuple(x if x in points else 0 for x in POINTS))


def _table_text(label, names, op):
    rows = [" ".join(op(a, b) for b in names) for a in names]
    return "\n".join([f"{label}:"] + rows)


def i3_block():
    index = {f: n for f, n in zip(I3_MAPS, I3_NAMES)}
    by_name = dict(zip(I3_NAMES, I3_MAPS))
    mul = _table_text("mul", I3_NAMES,
                      lambda a, b: index[_compose(by_name[a], by_name[b])])
    return "\n".join(["@inverse_semigroup I3",
                      "elements: " + " ".join(I3_NAMES),
                      f"zero: {I3_ZERO}", mul])


def meet_tables(n):
    """Every meet table on 0..n-1 with zero 0, by brute force."""
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    rng = range(n)
    out = []
    for values in product(rng, repeat=len(pairs)):
        t = [[0] * n for _ in rng]
        for i in rng:
            t[i][i] = i
        for (i, j), v in zip(pairs, values):
            t[i][j] = t[j][i] = v
        if all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in rng for b in rng for c in rng):
            out.append(tuple(tuple(row) for row in t))
    return out


def _subsets(items):
    return [s for r in range(len(items) + 1) for s in combinations(items, r)]


class _Oracle:
    """Brute-force verdicts for maps from one semilattice into P(3).

    The domain-only part of each scan (constrained sets and their covers)
    is listed once per semilattice; images are frozensets of points.
    """

    def __init__(self, table):
        els = tuple(range(len(table)))
        subsets = _subsets(els)

        def constrained(above, disjoint):
            return tuple(z for z in els
                         if all(table[z][x] == z for x in above)
                         and all(table[z][y] == 0 for y in disjoint))

        def covers(family):
            return [zs for zs in _subsets(family)
                    if all(any(table[x][z] != 0 for z in zs)
                           for x in family if x != 0)]

        self.ctj = [(x, covers(constrained((x,), ()))) for x in els]
        self.tight = [(above, disjoint, covers(constrained(above, disjoint)))
                      for above in subsets for disjoint in subsets]

    def verdicts(self, images):
        top = frozenset(POINTS)

        def join(zs):
            out = frozenset()
            for z in zs:
                out |= images[z]
            return out

        ctj = all(join(zs) == images[x]
                  for x, cs in self.ctj for zs in cs)
        tight = True
        for above, disjoint, cs in self.tight:
            rhs = top
            for x in above:
                rhs &= images[x]
            for y in disjoint:
                rhs &= top - images[y]
            if any(join(zs) != rhs for zs in cs):
                tight = False
                break
        nondegenerate = join(range(len(images))) == top
        return ctj, tight, nondegenerate


@dataclass(frozen=True)
class HomCase:
    """One structure file: a semilattice semigroup mapped into I3."""
    key: str
    domain_size: int
    text: str
    cover_to_join: bool
    tight: bool
    nondegenerate: bool
    unit: str        # expected tightening unit, in I3 names


def _case(key, table, images, verdicts, i3_text):
    n = len(table)
    names = [str(i) for i in range(n)]
    mul = _table_text("mul", names, lambda a, b: str(table[int(a)][int(b)]))
    domain = "\n".join(["@inverse_semigroup S", "elements: " + " ".join(names),
                        "zero: 0", mul])
    hom = "\n".join(["@homomorphism h", "domain: S", "codomain: I3", "map:"]
                    + [f"{x} -> {identity_on(images[int(x)])}" for x in names])
    ctj, tight, nondeg = verdicts
    unit = identity_on(frozenset().union(*images))
    return HomCase(key, n, "\n\n".join([domain, i3_text, hom]) + "\n",
                   ctj, tight, nondeg, unit)


def all_cases():
    """Every homomorphism from a labeled semilattice of at most MAX_DOMAIN
    elements into I3, in a fixed order, with its expected verdicts."""
    i3_text = i3_block()
    codomain = [frozenset(s) for s in _subsets(POINTS)]
    cases = []
    for n in range(1, MAX_DOMAIN + 1):
        for t_index, table in enumerate(meet_tables(n)):
            oracle = _Oracle(table)
            rng = range(n)
            for rest in product(codomain, repeat=n - 1):
                images = (frozenset(),) + rest
                if all(images[table[a][b]] == images[a] & images[b]
                       for a in rng for b in rng):
                    key = f"n{n}t{t_index}m{len(cases)}"
                    cases.append(_case(key, table, images,
                                       oracle.verdicts(images), i3_text))
    return cases


def _stratum(case):
    # domain size and the verdicts: what sets a request's cost
    return (case.domain_size, case.cover_to_join, case.tight, case.unit)


def sample_requests(cases, count, seed):
    """The seed's sample of `count` distinct cases, in the seed's order.

    The sample is stratified by domain size, verdicts and tightening unit,
    with each stratum's share fixed by its size, so that seeds change which
    maps are requested but not the mix of work.
    """
    strata = {}
    for case in cases:
        strata.setdefault(_stratum(case), []).append(case)
    quotas = {k: count * len(v) // len(cases) for k, v in strata.items()}
    by_remainder = sorted(strata, key=lambda k: -(count * len(strata[k]) % len(cases)))
    for k in by_remainder[:count - sum(quotas.values())]:
        quotas[k] += 1
    rng = random.Random(seed)
    picked = [c for k in sorted(strata) for c in rng.sample(strata[k], quotas[k])]
    rng.shuffle(picked)
    return picked
