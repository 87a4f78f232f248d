"""Finite inverse semigroups with zero and their tight homomorphisms.

An inverse semigroup here is a multiplication table in which every
element has a unique generalized inverse; its idempotents then commute
(Howie 1995, §5.1), so validation does not check that, and they form a
meet-semilattice under multiplication.  A homomorphism into a semigroup
whose idempotent semilattice carries a generalized Boolean algebra is
tight (or cover-to-join, or non-degenerate) exactly when its restriction
to idempotents is, so the decision procedures reduce to the
representation layer.  The corner construction restricts the codomain T
to uTu, where u is the join of the restricted image: the elements t with
ut = t = tu, which are those whose source and range projections t⁻¹t
and tt⁻¹ sit below u.  The constructors of the corner and of the
corestricted map check that it is closed and holds the range.
Validation, the idempotents and the corner run on positions in the
multiplication table; names appear only in arguments (read by the
inherited `index`), messages and the tables handed to the constructors.
A validated semigroup holds no state that is filled in later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .lattices import (
    FiniteGenBoolAlg,
    FiniteMeetSemilattice,
    InvariantError,
    ValidationError,
    _TableStructure,
    _associativity_violation,
)
from .representations import (
    Representation,
    TightnessReport,
    _Map,
    tighten,
    tightness_report,
)


class FiniteInverseSemigroup(_TableStructure):
    """A finite inverse semigroup with zero, given by its multiplication table.

    Validation checks associativity, that every element has exactly one
    generalized inverse (s t s = s and t s t = t), and that the declared
    zero is absorbing.  The idempotents then commute pairwise (Howie,
    Fundamentals of Semigroup Theory, 1995, §5.1), so that is not
    checked.  The inverse table and the idempotent semilattice are stored.
    """

    _TABLES = ("mul",)

    def __init__(self, elements: Sequence[str], zero: str,
                 mul: Sequence[Sequence[str]]):
        (self._mul,) = self._read(elements, zero, mul)
        self._inv, self._idem = self._check_axioms()
        els, m, idem = self.elements, self._mul, self._idem
        self._idempotents = FiniteMeetSemilattice(
            self.idempotent_elements, zero,
            [[els[m[a][b]] for b in idem] for a in idem])

    def _check_axioms(self):
        els, m = self.elements, self._mul
        n = len(els)
        z = self._index[self.zero]
        rng = range(n)
        bad = _associativity_violation(m)
        if bad:
            raise ValidationError(
                f"mul not associative at ({', '.join(els[i] for i in bad)})")
        inv = []
        for s in rng:
            found = [t for t in rng
                     if m[m[s][t]][s] == s and m[m[t][s]][t] == t]
            if not found:
                raise ValidationError(f"no generalized inverse for {els[s]}")
            if len(found) > 1:
                raise ValidationError(
                    f"generalized inverse not unique for {els[s]}")
            inv.append(found[0])
        for a in rng:
            if m[z][a] != z or m[a][z] != z:
                raise ValidationError(f"zero not absorbing at {els[a]}")
        return tuple(inv), tuple(a for a in rng if m[a][a] == a)

    def mul(self, a: str, b: str) -> str:
        return self.elements[self._mul[self.index(a)][self.index(b)]]

    def inv(self, a: str) -> str:
        return self.elements[self._inv[self.index(a)]]

    def is_idempotent(self, a: str) -> bool:
        return self.mul(a, a) == a

    @property
    def idempotent_elements(self) -> tuple[str, ...]:
        return tuple(self.elements[a] for a in self._idem)

    def idempotent_semilattice(self) -> FiniteMeetSemilattice:
        """The idempotents under multiplication, as a validated semilattice
        built with the semigroup, so every scan of it shares one memo."""
        return self._idempotents


@dataclass(frozen=True)
class GbisCheck:
    """Outcome of testing whether idempotents carry a Boolean algebra.

    On success `algebra` is the idempotent semilattice extended with the
    least-upper-bound join.  On failure either `witness` names a pair of
    idempotents with no least upper bound, or `reason` carries the axiom
    the candidate join table broke (typically a missing complement).
    """
    ok: bool
    algebra: FiniteGenBoolAlg | None = None
    witness: tuple[str, str] | None = None
    reason: str | None = None


def is_generalized_boolean_inverse_semigroup(semigroup) -> GbisCheck:
    """Try to extend the idempotent semilattice to a generalized Boolean algebra.

    Joins are not assumed: each pair of idempotents must have a least
    upper bound inside the idempotent order, and the resulting table must
    pass the full algebra validation, on every call (nothing is cached).
    """
    # If a and b have an upper bound, the meet of all their upper bounds
    # is one too, so it is the least, and its up-set is exactly ↑a ∩ ↑b.
    # Up-sets are distinct, so each join is read off by its up-set.
    E = semigroup.idempotent_semilattice()
    els, m, down = E.elements, E._meet, E._down
    rng = range(len(els))
    up = [sum(1 << g for g in rng if down[g] >> a & 1) for a in rng]
    least = {mask: a for a, mask in enumerate(up)}
    join_rows = []
    for a in rng:
        for b in rng:
            if not up[a] & up[b]:
                return GbisCheck(
                    False, witness=(els[a], els[b]),
                    reason=f"idempotents ({els[a]}, {els[b]}) have no least "
                           f"upper bound")
        join_rows.append([els[least[up[a] & up[b]]] for b in rng])
    meet_rows = [[els[v] for v in row] for row in m]
    try:
        algebra = FiniteGenBoolAlg(els, E.zero, meet_rows, join_rows)
    except ValidationError as err:
        return GbisCheck(False, reason=str(err))
    return GbisCheck(True, algebra=algebra)


class ISHomomorphism(_Map):
    """A zero-preserving multiplicative map between inverse semigroups.

    The codomain's idempotent semilattice must carry a generalized
    Boolean algebra (checked at construction).  The map is read as a
    representation's is (`_Map._read`); products are then checked on
    positions.  They imply the rest: φ(s⁻¹) is a generalized inverse of
    φ(s), since φ(s)φ(s⁻¹)φ(s) = φ(ss⁻¹s) = φ(s) and likewise the other
    way, so it is the unique inverse in the validated codomain; and
    φ(e)φ(e) = φ(ee) = φ(e) for an idempotent e.  Neither is checked.
    """

    def __init__(self, domain: FiniteInverseSemigroup,
                 codomain: FiniteInverseSemigroup,
                 mapping: Mapping[str, str]):
        check = is_generalized_boolean_inverse_semigroup(codomain)
        if not check.ok:
            raise ValidationError(
                f"codomain is not a generalized Boolean inverse semigroup: "
                f"{check.reason}")
        self.codomain_algebra = check.algebra
        img = self._read(domain, codomain, mapping)
        els, dm, cm = domain.elements, domain._mul, codomain._mul
        for i, row in enumerate(dm):
            for j, k in enumerate(row):
                if img[k] != cm[img[i]][img[j]]:
                    raise ValidationError(
                        f"product not preserved at ({els[i]}, {els[j]})")

    def restriction(self) -> Representation:
        """The restriction to idempotents, into the codomain's idempotent algebra."""
        E = self.domain.idempotent_semilattice()
        restricted = {e: self.mapping[e] for e in E.elements}
        try:
            return Representation(E, self.codomain_algebra, restricted)
        except ValidationError as err:   # impossible for a true homomorphism
            raise InvariantError(
                f"restriction of a homomorphism failed validation: {err}") from err


@dataclass(frozen=True)
class HomomorphismTightening:
    """The corner of a cover-to-join homomorphism.

    `unit` is the join (in the codomain's idempotent algebra) of the
    images of the nonzero domain idempotents; `corner` is uTu for that
    unit u, the codomain elements whose source and range idempotents sit
    below it; the corestricted homomorphism into it is tight, as `report`
    records.
    """
    unit: str
    corner: FiniteInverseSemigroup
    homomorphism: ISHomomorphism
    report: TightnessReport


def check_homomorphism_tightness(hom: ISHomomorphism) -> TightnessReport:
    """Tight / cover-to-join / non-degenerate verdicts for the restriction."""
    return tightness_report(hom.restriction())


def tighten_homomorphism(hom: ISHomomorphism) -> HomomorphismTightening:
    """Corestrict a cover-to-join homomorphism to its tightening corner.

    The corner uTu is closed under products and inverses, holds the
    range, and its idempotents are the principal ideal below the unit u,
    so it is again a (unital) generalized Boolean inverse semigroup.
    The constructors of the corner and of the corestricted map refuse a
    product, an inverse or an image outside it.  Such a refusal, other
    idempotents, or a corestriction that is not tight is an
    InvariantError.
    """
    tightening = tighten(hom.restriction())
    T, unit = hom.codomain, tightening.unit
    els, m = T.elements, T._mul
    u = T._index[unit]
    # ut = t iff tt⁻¹ ≤ u, and tu = t iff t⁻¹t ≤ u
    keep = [t for t in range(len(els)) if m[u][t] == t == m[t][u]]
    rows = [[els[m[a][b]] for b in keep] for a in keep]
    try:
        corner = FiniteInverseSemigroup([els[t] for t in keep], T.zero, rows)
        corestricted = ISHomomorphism(hom.domain, corner, dict(hom.mapping))
    except ValidationError as err:   # impossible for a true homomorphism
        raise InvariantError(
            f"the corner below {unit} failed validation: {err}") from err
    if set(corner.idempotent_elements) != set(tightening.codomain.elements):
        raise InvariantError(
            "corner idempotents differ from the principal ideal below the unit")
    report = check_homomorphism_tightness(corestricted)
    if not report.tight.ok:
        raise InvariantError("corestriction to the corner is not tight")
    return HomomorphismTightening(unit=unit, corner=corner,
                                  homomorphism=corestricted, report=report)
