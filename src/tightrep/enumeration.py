"""Generators for small universes and exhaustive theorem verification.

Semilattices are meet tables with the zero pinned to the first element.
Up to isomorphism, one representative per class (canonical form:
lexicographically least table over relabelings) is generated level by
level: every class of size n is a class of size n - 1 plus a new maximal
element, so each level is the set of canonical forms of the previous
level's one-element extensions.  The labeled tables are the relabelings
of the classes, sorted.  Both semilattice streams hold one level in
memory; every other stream is lazy.
Codomains are powerset algebras, which lose no generality for unital
codomains.  The searches are deterministic: two runs over the same spec
produce identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, permutations
from typing import Iterator, Sequence

from .lattices import (
    FiniteGenBoolAlg,
    FiniteMeetSemilattice,
    ValidationError,
    _join_mask,
    is_ideal,
)
from .representations import (
    Representation,
    TightnessReport,
    _constrained,
    _instances,
    _prescribed_mask,
    _violations,
    is_cover_to_join,
    is_nondegenerate,
    is_tight,
    tighten,
)

MAX_ATOMS = 8   # P(k) has 4^k-entry tables: validating P(8) takes seconds
# Largest semilattice sizes.  Labeled, size 8 would take 1078 × 7! ≈ 5.4M
# relabelings (size 7: 222 × 6!, 96,373 distinct tables).  Up to
# isomorphism, size 9 tries 8! relabelings on each of 16,747 extensions,
# about 20 minutes (size 8: 7! on each of 2861, about 25 s).
MAX_LABELED_SIZE = 7
MAX_ISO_SIZE = 8


def _check_size(n: int, up_to_iso: bool) -> None:
    """Refuse a semilattice size below 1 or past its path's bound."""
    if n < 1:
        raise ValidationError("semilattice size must be at least 1")
    bound = MAX_ISO_SIZE if up_to_iso else MAX_LABELED_SIZE
    if n > bound:
        path = ("up to isomorphism" if up_to_iso
                else f"({MAX_ISO_SIZE} up to isomorphism)")
        raise ValidationError(f"semilattice size must be at most {bound} {path}")


@dataclass(frozen=True)
class UniverseSpec:
    """Bounds for a search universe.

    Semilattices of every size from 1 up to max_semilattice_size are
    paired with one powerset codomain per atom count; no count repeats.
    """
    max_semilattice_size: int
    atom_counts: tuple[int, ...]
    up_to_iso: bool = False

    def __post_init__(self):
        _check_size(self.max_semilattice_size, self.up_to_iso)
        if not self.atom_counts:
            raise ValidationError("atom counts must be nonempty")
        if any(k < 0 for k in self.atom_counts):
            raise ValidationError("atom counts must be nonnegative")
        if any(k > MAX_ATOMS for k in self.atom_counts):
            raise ValidationError(f"atom counts must be at most {MAX_ATOMS}")
        for i, k in enumerate(self.atom_counts):
            if k in self.atom_counts[:i]:
                raise ValidationError(f"atom count {k} is repeated")


@dataclass(frozen=True)
class GapExample:
    """A representation that is cover-to-join but not tight (full view)."""
    semilattice: FiniteMeetSemilattice
    algebra: FiniteGenBoolAlg
    representation: Representation
    report: TightnessReport


def _relabeling_is_smaller(table, sigma, best) -> bool:
    """Whether the table relabeled by sigma is lexicographically below best.

    The relabeling sends entry (a, b) = v to (sigma[a], sigma[b]) =
    sigma[v].  Entries are compared in row-major order and the scan stops
    at the first difference.  Both tables are meet tables with zero 0 and
    sigma fixes 0, so row 0, column 0 and the diagonal agree, and by
    symmetry the first difference lies above the diagonal.
    """
    n = len(table)
    tau = [0] * n
    for a, s in enumerate(sigma):
        tau[s] = a
    for p in range(1, n - 1):
        row, best_row = table[tau[p]], best[p]
        for q in range(p + 1, n):
            x, y = sigma[row[tau[q]]], best_row[q]
            if x != y:
                return x < y
    return False


def _relabelings(n: int):
    """The relabelings of 0..n-1 that fix the zero 0."""
    return ((0,) + perm for perm in permutations(range(1, n)))


def _relabel(table, sigma) -> list[list[int]]:
    """The table relabeled by sigma: entry (a, b) = v goes to
    (sigma[a], sigma[b]) = sigma[v]."""
    n = len(table)
    relabeled = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        out = relabeled[sigma[a]]
        for b, v in enumerate(row):
            out[sigma[b]] = sigma[v]
    return relabeled


def canonical_meet_table(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeling of an index meet table.

    Relabelings fix 0 (any isomorphism maps the zero to the zero, since
    it is the unique minimum).  Each relabeling is compared lazily with
    the least one found so far and built only when it is smaller.
    """
    best = tuple(tuple(row) for row in table)
    for sigma in _relabelings(len(table)):
        if _relabeling_is_smaller(table, sigma, best):
            best = tuple(tuple(row) for row in _relabel(table, sigma))
    return best


def _extensions(table):
    """The tables of `table` with one new maximal element, the last.

    The new element m is fixed by its strict down-set L, which holds the
    zero.  Its meet with x is the greatest element of L ∩ ↓x, so L is
    valid exactly when every L ∩ ↓x is a principal down-set ↓g; then
    m ∧ x = g, and L, the union of these down-sets, is itself one.
    Removing a maximal element from a meet-semilattice with zero leaves
    one (a ∧ b = m forces a = m), so every table on one more element is
    isomorphic to an extension of some table of this size.
    """
    k = len(table)
    down = [sum(1 << a for a in range(k) if table[a][b] == a) for b in range(k)]
    principal = {d: g for g, d in enumerate(down)}
    for rest in range(1 << (k - 1)):
        strict = 1 | rest << 1
        meets = [principal.get(strict & d) for d in down]
        if None not in meets:
            yield (tuple(row + (m,) for row, m in zip(table, meets))
                   + (tuple(meets) + (k,),))


def _iso_meet_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The canonical meet tables on n elements, sorted.

    Built level by level from the one-element table: each level is the
    set of canonical forms of the extensions of the level below.  This is
    the subsequence of canonical tables of `_meet_tables(n)`.
    """
    level = [((0,),)]
    for _ in range(n - 1):
        level = sorted({canonical_meet_table(child)
                        for table in level for child in _extensions(table)})
    yield from level


def _meet_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All meet tables on 0..n-1 with zero 0, sorted by rows.

    Each one is a relabeling fixing 0 of exactly one canonical table, so
    the set is every relabeling of every class of size n.  It is held as
    flat bytes, whose order is that of the rows.  Sorted rows are also
    the order of the free entries (i, j), 1 <= i < j, read row by row:
    row 0, column 0 and the diagonal are fixed, and the entries below the
    diagonal mirror earlier rows.
    """
    tables = {bytes(chain.from_iterable(_relabel(table, sigma)))
              for table in _iso_meet_tables(n) for sigma in _relabelings(n)}
    for flat in sorted(tables):
        yield tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))


def enumerate_semilattices(n: int, up_to_iso: bool = False
                           ) -> Iterator[FiniteMeetSemilattice]:
    """All labeled meet-semilattices on n elements named "0".."n-1".

    The zero is always element "0".  With up_to_iso, one per isomorphism
    class: the canonical tables of size n, generated by adding a maximal
    element to the classes of size n - 1.  Neither stream is lazy: the
    first item waits for the whole level of size n (labeled, for every
    relabeling of its classes), and the level below is held until then.
    Sizes past `MAX_LABELED_SIZE` (`MAX_ISO_SIZE` up to isomorphism) are
    refused at the call, before any table is built.
    """
    _check_size(n, up_to_iso)
    names = tuple(str(i) for i in range(n))
    tables = _iso_meet_tables(n) if up_to_iso else _meet_tables(n)
    return (FiniteMeetSemilattice(names, "0", [[names[v] for v in row]
                                               for row in table])
            for table in tables)


def powerset_algebra(atoms: int) -> FiniteGenBoolAlg:
    """The algebra of subsets of {1..atoms} under intersection and union.

    Elements are named by their sorted digit strings ("12" for {1, 2}),
    with "0" for the empty set; they are declared by size then
    lexicographically, so the top is the full string.
    """
    if atoms < 0:
        raise ValidationError("atom count must be nonnegative")
    if atoms > MAX_ATOMS:
        raise ValidationError(f"atom count must be at most {MAX_ATOMS}")
    subsets = []
    for r in range(atoms + 1):
        subsets.extend(combinations(range(1, atoms + 1), r))
    names = {s: "".join(str(d) for d in s) if s else "0" for s in subsets}
    elements = [names[s] for s in subsets]
    meet = [[names[tuple(d for d in a if d in b)] for b in subsets]
            for a in subsets]
    join = [[names[tuple(sorted(set(a) | set(b)))] for b in subsets]
            for a in subsets]
    return FiniteGenBoolAlg(elements, "0", meet, join)


def enumerate_representations(semilattice: FiniteMeetSemilattice,
                              algebra) -> Iterator[Representation]:
    """All representations of the semilattice in the algebra (or view).

    Images of the nonzero elements are assigned depth-first in declared
    order, each running over the codomain's declared order, with zero
    pinned to zero; the stream is therefore the lexicographic order of
    the candidate maps.  A branch is dropped as soon as some meet triple
    (a, b, a ∧ b) has all three images set and the image of a ∧ b is not
    the meet (`&` of atom masks) of the other two.  Set images never
    change below a node, so no dropped branch holds a representation.
    Every map that survives is validated in full by `Representation`.
    """
    E, B = semilattice, algebra
    z = E.index(E.zero)
    nonzero = [p for p in range(len(E.elements)) if p != z]
    step = {z: -1}
    step.update((p, k) for k, p in enumerate(nonzero))
    # each triple is checked at the step that sets the last of its images
    triples = [[] for _ in nonzero]
    for k, a in enumerate(nonzero):
        for b in nonzero[k + 1:]:
            c = E._meet[a][b]
            triples[max(step[a], step[b], step[c])].append((a, b, c))
    img = [0] * len(E.elements)
    chosen = [None] * len(nonzero)

    def assign(k):
        if k == len(nonzero):
            mapping = {E.elements[p]: B.elements[v]
                       for p, v in zip(nonzero, chosen)}
            mapping[E.zero] = B.zero
            yield Representation(E, B, mapping)
            return
        p = nonzero[k]
        for v, mask in enumerate(B._masks):
            img[p] = mask
            for a, b, c in triples[k]:
                if img[c] != img[a] & img[b]:
                    break
            else:
                chosen[k] = v
                yield from assign(k + 1)

    yield from assign(0)


def _universe(spec: UniverseSpec):
    """Each semilattice of the universe with its codomains, one per atom count."""
    codomains = [powerset_algebra(k) for k in spec.atom_counts]
    for n in range(1, spec.max_semilattice_size + 1):
        for E in enumerate_semilattices(n, spec.up_to_iso):
            yield E, codomains


def search_gap(spec: UniverseSpec) -> Iterator[GapExample]:
    """Stream the cover-to-join-but-not-tight representations in the universe.

    Tightness is taken against the full codomain.  Representations whose
    range is just the zero are skipped: they are cover-to-join and fail
    tightness against any nontrivial view for no reason beyond collapsing
    everything, so they would bury the structurally interesting examples.
    """
    for E, codomains in _universe(spec):
        for B in codomains:
            for rep in enumerate_representations(E, B):
                if rep.is_zero_range():
                    continue
                ctj = is_cover_to_join(rep)
                if not ctj.ok:
                    continue
                tight = is_tight(rep)
                if tight.ok:
                    continue
                report = TightnessReport(cover_to_join=ctj, tight=tight,
                                         nondegenerate=is_nondegenerate(rep))
                yield GapExample(E, B, rep, report)


@dataclass
class VerificationSummary:
    """Counts and violations from an exhaustive theorem run."""
    semilattices: int = 0
    algebras: int = 0
    representations: int = 0
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_representation(rep, summary):
    """Run every representation-level invariant on one example."""
    E, B, img = rep.domain, rep.codomain, rep._images
    label = "map " + " ".join(f"{x}->{rep.image(x)}" for x in E.elements)

    def record(cond, text):
        summary.checks += 1
        if not cond:
            summary.violations.append(f"{label}: {text}")

    ctj = is_cover_to_join(rep)
    tight = is_tight(rep)
    reduced = list(_instances(E, "reduced"))
    record(ctj.ok == is_cover_to_join(rep, minimal_only=False).ok,
           "cover-to-join verdict differs over all covers")
    record(tight.ok == is_tight(rep, minimal_only=False).ok,
           "tight verdict differs over all covers")
    record(tight.ok == is_tight(rep, reduced=False, minimal_only=False).ok,
           "tight verdict differs under the unreduced scan")
    record((not tight.ok) or ctj.ok, "tight but not cover-to-join")

    nd = is_nondegenerate(rep)
    if nd.ok:
        record(tight.ok == ctj.ok,
               "non-degenerate but tight and cover-to-join disagree")

    if ctj.ok:
        t = tighten(rep)
        record(is_ideal(B.base, t.codomain.members).ok,
               "tightening corner is not an ideal")
        record(all(rep.image(x) in t.codomain for x in E.elements),
               "tightening corner misses part of the range")
        record(is_tight(rep, t.codomain).ok,
               "not tight in the tightening corner")
        # the first reduced instance, nothing above and nothing disjoint,
        # holds the minimal covers of the whole domain
        full_join = _join_mask(img)
        record(all(_join_mask(img[z] for z in zs) == full_join
                   for zs in reduced[0][3]),
               "tightening unit depends on the cover choice")
        # every instance with a nonempty above-set already holds
        nonempty = [inst for inst in reduced if inst[0]]
        summary.checks += sum(len(inst[3]) for inst in nonempty)
        for w in _violations(E, B, img, nonempty):
            summary.violations.append(
                f"{label}: cover-to-join but instance above {w.above[0]} fails")

    # the prescribed value always dominates the members and their joins
    for xs, ys, family, _ in reduced:
        rhs = _prescribed_mask(img, B._unit, xs, ys)
        record(not _join_mask(m for p, m in enumerate(img) if family >> p & 1)
               & ~rhs, "member image escapes the prescribed value")


def _check_semilattice(E, summary):
    """Constrained-set reduction laws, exhaustively over subset pairs."""
    els, meet, down = E.elements, E._meet, E._down
    for xs, ys, full, _ in _instances(E, "all", minimal_only=False):
        summary.checks += 1
        bound = xs[:1]      # the meet of xs, as an above-set
        for x in xs[1:]:
            bound = (meet[bound[0]][x],)
        # the elements strictly below some member of ys
        below = _join_mask(down[w] & ~(1 << w) for w in ys)
        maximal = [y for y in ys if not below >> y & 1]
        if _constrained(E, bound, maximal) != full:
            above, disjoint = (tuple(els[p] for p in ps) for ps in (xs, ys))
            summary.violations.append(
                f"constrained-set reduction unsound at {above}, {disjoint}")


def verify_theorems(spec: UniverseSpec) -> VerificationSummary:
    """Exhaustively verify the representation-level theorems over a universe.

    Covers: the tight-implies-cover-to-join direction, tightness in the
    tightening corner, the equivalence for non-degenerate
    representations, the automatic instances with nonempty above-set for
    cover-to-join representations, oracle agreement between the reduced
    and brute-force scans, and independence of the tightening unit from
    the cover choice.  Violations are collected, never raised.
    """
    summary = VerificationSummary()
    for E, codomains in _universe(spec):
        summary.semilattices += 1
        _check_semilattice(E, summary)
        for B in codomains:
            for rep in enumerate_representations(E, B):
                summary.representations += 1
                _check_representation(rep, summary)
    summary.algebras = len(spec.atom_counts)
    return summary
