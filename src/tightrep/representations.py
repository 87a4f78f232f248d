"""Representations of semilattices in generalized Boolean algebras.

A representation is a zero- and meet-preserving map.  This module decides
the cover-to-join and tight properties, decides non-degeneracy, produces
minimal witnesses for every failure, and builds the two codomain
adjustments that repair a representation: the ideal generated by its
range, and the tightening corner below the join of its range.

Conventions used throughout (they make the empty cases well defined):
the empty join is the zero of the codomain view, and the empty meet is
the view's top.  All subset scans run in graded-lexicographic order over
the declared element order, so witnesses are deterministic and minimal
in that order.

Cover-to-join, the tight scan and its oracle forms are one scan over
different tight instances (above-set, disjointness set, constrained set,
covers).  Instances depend on the semilattice alone and hold domain
positions only.  None is stored: the semilattice keeps each above-set
with the subset mask of what lies below it, each disjoint-set with the
mask of what meets it in zero, and the covers of each constrained set
(the AND of the two masks), and a scan pairs them as it goes.  Only
prescribed values and cover joins are per map, and they run on positions
and the codomain's atom masks: the prescribed value is
`unit & img[x] & ~img[y]...`, a cover join the OR of its images.
Element names stay at the edges: arguments, witnesses and the name-level
API.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .lattices import (
    FiniteMeetSemilattice,
    IdealView,
    ValidationError,
    _join_mask,
    ideal_generated_by,
)


class NotCoverToJoinError(ValidationError):
    """An operation needing the cover-to-join hypothesis got a rep without it."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"representation is not cover-to-join: join of "
            f"{{{', '.join(witness.cover)}}} differs from the image of "
            f"{witness.element}")


@dataclass(frozen=True)
class CoverToJoinWitness:
    """A cover of everything below `element` whose image join misses the mark."""
    element: str
    cover: tuple[str, ...]


@dataclass(frozen=True)
class TightWitness:
    """A constrained-set instance violating the tight equation.

    `above` and `disjoint` carve out the constrained set (everything
    below all of `above` and meet-zero against all of `disjoint`);
    `cover` is the violating cover, whose image join `lhs` differs from
    the prescribed value `rhs`.
    """
    above: tuple[str, ...]
    disjoint: tuple[str, ...]
    cover: tuple[str, ...]
    lhs: str
    rhs: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: object | None = None

    @property
    def label(self) -> str:
        return "pass" if self.ok else "fail"


@dataclass(frozen=True)
class TightnessReport:
    cover_to_join: Verdict
    tight: Verdict
    nondegenerate: Verdict


@dataclass(frozen=True)
class Tightening:
    """The corner that makes a cover-to-join representation tight.

    `unit` is the join of the images of all nonzero domain elements,
    `codomain` the ideal of everything below it, and `representation`
    the same map read into that view.
    """
    unit: str
    codomain: IdealView
    representation: "Representation"


class _Map:
    """What representations and homomorphisms share: `_read` checks the
    domain keys, totality, that the values lie in the codomain (a view
    or the structure itself) and that zero maps to zero."""

    def _read(self, domain, codomain, mapping):
        """Check the map; return the images' codomain positions, each read once."""
        self.domain = domain
        self.codomain = codomain
        for x in mapping:
            domain.index(x)
        missing = [x for x in domain.elements if x not in mapping]
        if missing:
            raise ValidationError(f"map is not total: no image for '{missing[0]}'")
        img = []
        for x in domain.elements:
            try:
                img.append(codomain._index[mapping[x]])
            except (KeyError, TypeError):
                codomain.base.index(mapping[x])
                raise ValidationError(
                    f"image of '{x}' lies outside the codomain view") from None
        if mapping[domain.zero] != codomain.zero:
            raise ValidationError("zero not preserved")
        self.mapping = dict(mapping)
        return img

    def __repr__(self):
        pairs = ", ".join(f"{x}->{self.mapping[x]}" for x in self.domain.elements)
        return f"{type(self).__name__}({pairs})"

    def image(self, x: str) -> str:
        try:
            return self.mapping[x]
        except (KeyError, TypeError):
            self.domain.index(x)    # the map is total: x is not listed
            raise


class Representation(_Map):
    """A validated map from a finite meet-semilattice into an algebra view.

    Reads the map (`_Map._read`) and checks each pair a < b of nonzero
    positions for a preserved meet: zero maps to 0, the diagonal holds
    and meets commute, so no other pair fails first in row-major order.
    `_images` holds the images' atom masks by domain position.
    """

    def __init__(self, domain: FiniteMeetSemilattice, codomain,
                 mapping: Mapping[str, str]):
        img = tuple(map(codomain._masks.__getitem__,
                        self._read(domain, codomain, mapping)))
        meet, els, z = domain._meet, domain.elements, domain._index[domain.zero]
        for i, j in combinations([p for p in range(len(els)) if p != z], 2):
            if img[meet[i][j]] != img[i] & img[j]:
                raise ValidationError(
                    f"meet not preserved at ({els[i]}, {els[j]})")
        self._images = img

    def range_elements(self) -> tuple[str, ...]:
        return self.codomain.base.sort(self.mapping.values())

    def is_zero_range(self) -> bool:
        return not any(self._images)


def _graded_subsets(items) -> Iterator[tuple]:
    """All subsets, by size then lexicographically in the given order."""
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def _constrained(semilattice, xs, ys):
    """Bitset of the elements below all of `xs` and meeting `ys` in zero."""
    members = (1 << len(semilattice.elements)) - 1
    for x in xs:
        members &= semilattice._down[x]
    for y in ys:
        members &= semilattice._zero_meet[y]
    return members


def constrained_interval(semilattice: FiniteMeetSemilattice,
                         above: Iterable[str],
                         disjoint: Iterable[str]) -> tuple[str, ...]:
    """Elements below everything in `above` and meet-zero with everything
    in `disjoint`, in declared order."""
    E = semilattice
    members = _constrained(E, [E.index(x) for x in above],
                           [E.index(y) for y in disjoint])
    return tuple(z for i, z in enumerate(E.elements) if members >> i & 1)


def is_cover(semilattice: FiniteMeetSemilattice,
             cover: Iterable[str], family: Iterable[str]) -> Verdict:
    """Does every nonzero member of `family` meet some member of `cover`?

    Fails with the first uncovered element as witness.  `cover` must be
    contained in `family`.
    """
    E = semilattice
    family = E.sort(family)
    met = 0     # the elements some member of the cover meets nontrivially
    for z in E.sort(cover):
        if z not in family:
            raise ValidationError(f"cover element '{z}' is not in the family")
        met |= ~E._zero_meet[E._index[z]]
    for x in family:
        if x != E.zero and not met >> E._index[x] & 1:
            return Verdict(False, x)
    return Verdict(True)


def _covers(semilattice, family, minimal_only=True):
    """Covers of the bitset `family` drawn from its nonzero members, as
    position tuples in graded-lex order.

    With minimal_only, only inclusion-minimal covers are produced; every
    finite cover contains one of these, and joins are monotone, so they
    are the binding instances for the tight and cover-to-join checks.
    """
    E = semilattice
    need = family & ~(1 << E._index[E.zero])
    nonzero = tuple(p for p in range(len(E.elements)) if need >> p & 1)
    # the members of the family each candidate meets nontrivially
    hits = [need & ~zero_meet for zero_meet in E._zero_meet]

    def covered(zs):
        return _join_mask(hits[z] for z in zs) == need

    for zs in _graded_subsets(nonzero):
        if not covered(zs):
            continue
        if minimal_only and any(
                covered(zs[:i] + zs[i + 1:]) for i in range(len(zs))):
            continue
        yield zs


def covers_of(semilattice: FiniteMeetSemilattice,
              family: Iterable[str]) -> Iterator[tuple[str, ...]]:
    """The inclusion-minimal covers of `family`, deterministically ordered."""
    E = semilattice
    members = sum(1 << E._index[x] for x in E.sort(family))
    for zs in _covers(E, members):
        yield tuple(E.elements[p] for p in zs)


def antichains(semilattice: FiniteMeetSemilattice) -> Iterator[tuple[str, ...]]:
    """Subsets with pairwise incomparable elements, graded-lex ordered."""
    E = semilattice
    for ps in _graded_subsets(range(len(E.elements))):
        if all(not (E._down[b] >> a | E._down[a] >> b) & 1
               for a, b in combinations(ps, 2)):
            yield tuple(E.elements[p] for p in ps)


def is_cover_to_join(rep: Representation, *, minimal_only: bool = True) -> Verdict:
    """Check that covers of everything below x always join to the image of x.

    These are the tight instances with above-set {x} and nothing
    disjoint (constrained set ↓x, prescribed value the image of x).
    Scans minimal covers (all covers with minimal_only=False).
    """
    E = rep.domain
    instances = _instances(E, "cover-to-join", minimal_only)
    w = next(_violations(E, rep.codomain, rep._images, instances), None)
    if w is None:
        return Verdict(True)
    return Verdict(False, CoverToJoinWitness(w.above[0], w.cover))


def is_tight(rep: Representation, view=None, *,
             minimal_only: bool = True, reduced: bool = True) -> Verdict:
    """Check the tight equation against a unital codomain view.

    The view defaults to the representation's own codomain, whose masks
    the map holds; an explicit view must contain the range.  The view's
    derived top plays the role of the unit in complements.  With
    `reduced`, the scan shrinks provably without changing the verdict:
    the above-set collapses to a single element (meets are preserved, so
    constraining below a set is constraining below its meet, and the
    prescribed value only sees the meet of the images), and the
    disjointness set ranges over antichains only (constraints and
    complements below a non-maximal element are absorbed by a maximal
    one).  With reduced=False both sets range over all subsets, which is
    the oracle form of the scan.  The witness is the first failing cover
    in scan order.
    """
    if view is None:
        view, img = rep.codomain, rep._images
    else:
        img = _images_in(rep, view)
    E = rep.domain
    instances = _instances(E, "reduced" if reduced else "all", minimal_only)
    w = next(_violations(E, view, img, instances), None)
    return Verdict(True) if w is None else Verdict(False, w)


def _images_in(rep, view):
    """The images' atom masks in `view`; the range must lie in the view."""
    images = []
    for x in rep.domain.elements:
        y = rep.image(x)
        if y not in view:
            raise ValidationError(
                f"representation range not contained in the view "
                f"(image of '{x}')")
        images.append(view._masks[view._index[y]])
    return tuple(images)


def _instances(semilattice, kind, minimal_only=True):
    """The tight instances of one scan kind, above-sets outermost.

    Gives (above, disjoint, constrained set, covers) in graded-lex order,
    by domain position: the constrained set is a bitset, the rest are
    position tuples.  "reduced": the empty set and the singletons above,
    antichains disjoint.  "all": every subset for both (the oracle).
    "cover-to-join": the reduced singletons above, nothing disjoint.
    Covers are the inclusion-minimal ones, or all without minimal_only.

    No instance is stored.  `semilattice._scans` keeps, under "reduced"
    and "all", each above-set with the AND of its down-sets and each
    disjoint-set with the AND of its meet-zero sets, all built on the
    first scan of the kind; the constrained set is the AND of the two.
    Under `minimal_only` it keeps a dict from constrained set to covers,
    filled when a scan first reaches the set (a failing scan stops
    filling).  Each update is one idempotent `setdefault`, so interleaved
    scans agree.
    """
    E, scans = semilattice, semilattice._scans
    sets_kind = "all" if kind == "all" else "reduced"
    sets = scans.get(sets_kind)
    if sets is None:
        n = len(E.elements)
        if sets_kind == "reduced":
            aboves = [()] + [(x,) for x in range(n)]
            disjoints = [tuple(E._index[y] for y in ys) for ys in antichains(E)]
        else:
            aboves = disjoints = list(_graded_subsets(range(n)))
        sets = scans.setdefault(sets_kind, (
            tuple((xs, _constrained(E, xs, ())) for xs in aboves),
            tuple((ys, _constrained(E, (), ys)) for ys in disjoints)))
    aboves, disjoints = sets
    if kind == "cover-to-join":
        aboves, disjoints = aboves[1:], disjoints[:1]
    table = scans.setdefault(minimal_only, {})
    for xs, below in aboves:
        for ys, apart in disjoints:
            family = below & apart
            try:
                covers = table[family]
            except KeyError:
                covers = table.setdefault(
                    family, tuple(_covers(E, family, minimal_only)))
            yield xs, ys, family, covers


def _prescribed_mask(img, unit, above, disjoint):
    """The images of `above` and the complements in `unit` of the images
    of `disjoint`, all met: `unit & img[x]... & ~img[y]...` (positions)."""
    rhs = unit
    for x in above:
        rhs &= img[x]
    for y in disjoint:
        rhs &= ~img[y]
    return rhs


def _violations(domain, view, img, instances):
    """Each cover whose image join misses the prescribed value, in scan order.

    `img` holds the images' atom masks in `view` by position in `domain`,
    whose names a witness gets.
    """
    unit, names, els = view._unit, view._mask_names, domain.elements
    for xs, ys, _, covers in instances:
        rhs = _prescribed_mask(img, unit, xs, ys)
        for zs in covers:
            # _join_mask inlined: through a generator this loop made
            # `verify --max-e 5 --atoms 3 --up-to-iso` about 25% slower
            lhs = 0
            for z in zs:
                lhs |= img[z]
            if lhs != rhs:
                yield TightWitness(
                    tuple(els[x] for x in xs), tuple(els[y] for y in ys),
                    tuple(els[z] for z in zs), names[lhs], names[rhs])


def is_nondegenerate(rep: Representation) -> Verdict:
    """Does the range generate the whole codomain view as an ideal?

    Fails with the first view element not below the join of the range.
    """
    view = rep.codomain
    bound = _join_mask(rep._images)
    for a, mask in zip(view.elements, view._masks):
        if mask & ~bound:
            return Verdict(False, a)
    return Verdict(True)


def tightness_report(rep: Representation) -> TightnessReport:
    """All three verdicts against the representation's own codomain view."""
    return TightnessReport(
        cover_to_join=is_cover_to_join(rep),
        tight=is_tight(rep),
        nondegenerate=is_nondegenerate(rep))


def tighten(rep: Representation) -> Tightening:
    """Shrink the codomain to the corner below the join of the range.

    Requires the representation to be cover-to-join.  The canonical cover
    is all nonzero domain elements; for a cover-to-join representation
    the join of the images of any cover equals the join over this
    canonical one, so the construction does not depend on the choice.
    The corner is the ideal the range generates: the resulting view
    contains the range, and the representation read into it is tight.
    """
    verdict = is_cover_to_join(rep)
    if not verdict.ok:
        raise NotCoverToJoinError(verdict.witness)
    corner = restrict_to_generated_ideal(rep)
    return Tightening(unit=corner.codomain.top, codomain=corner.codomain,
                      representation=corner)


def restrict_to_generated_ideal(rep: Representation) -> Representation:
    """The same map into the ideal generated by its range.

    `ideal_generated_by` builds it as the principal ideal below the join
    of the range.  The result is always non-degenerate.
    """
    view = ideal_generated_by(rep.codomain, rep.mapping.values())
    return Representation(rep.domain, view, rep.mapping)
