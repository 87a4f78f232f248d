"""Finite inverse semigroups with zero and their tight homomorphisms.

An inverse semigroup here is a multiplication table in which every
element has a unique generalized inverse; its idempotents then commute
and form a meet-semilattice under multiplication.  A homomorphism into a
semigroup whose idempotent semilattice carries a generalized Boolean
algebra is tight (or cover-to-join, or non-degenerate) exactly when its
restriction to idempotents is, so the decision procedures reduce to the
representation layer.  The corner construction restricts the codomain to
the elements whose source and range projections sit below the join of
the restricted image.
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
    tighten,
    tightness_report,
)


class FiniteInverseSemigroup(_TableStructure):
    """A finite inverse semigroup with zero, given by its multiplication table.

    Validation checks associativity, that every element has exactly one
    generalized inverse (s t s = s and t s t = t), that idempotents
    commute pairwise, and that the declared zero is absorbing.  The
    derived inverse table is stored.
    """

    def __init__(self, elements: Sequence[str], zero: str,
                 mul: Sequence[Sequence[str]]):
        (self._mul,) = self._read(elements, zero, mul=mul)
        self._inv = self._check_axioms()
        self._gbis = None   # cached outcome of the Boolean-idempotents check
        self._idempotents = None    # cached idempotent semilattice

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
        idem = [a for a in rng if m[a][a] == a]
        for a in idem:
            for b in idem:
                if m[a][b] != m[b][a]:
                    raise ValidationError(
                        f"idempotents do not commute at ({els[a]}, {els[b]})")
        for a in rng:
            if m[z][a] != z or m[a][z] != z:
                raise ValidationError(f"zero not absorbing at {els[a]}")
        return tuple(inv)

    def mul(self, a: str, b: str) -> str:
        return self.elements[self._mul[self.index(a)][self.index(b)]]

    def inv(self, a: str) -> str:
        return self.elements[self._inv[self.index(a)]]

    def is_idempotent(self, a: str) -> bool:
        return self.mul(a, a) == a

    @property
    def idempotent_elements(self) -> tuple[str, ...]:
        return tuple(e for e in self.elements if self.is_idempotent(e))

    def idempotent_semilattice(self) -> FiniteMeetSemilattice:
        """The idempotents under multiplication, as a validated semilattice.

        Built once per semigroup, so every scan of it shares one instance
        memo.
        """
        if self._idempotents is None:
            idem = self.idempotent_elements
            rows = [[self.mul(a, b) for b in idem] for a in idem]
            self._idempotents = FiniteMeetSemilattice(idem, self.zero, rows)
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
    pass the full algebra validation.  The outcome is cached on the
    semigroup.
    """
    if semigroup._gbis is None:
        semigroup._gbis = _gbis_check(semigroup.idempotent_semilattice())
    return semigroup._gbis


def _gbis_check(E) -> GbisCheck:
    # In a finite meet-semilattice the meet of all common upper bounds of
    # a and b is again one, so a least upper bound exists exactly when
    # some upper bound does.
    els, m = E.elements, E._meet
    rng = range(len(els))
    above = [[g for g in rng if m[a][g] == a] for a in rng]
    join_rows = []
    for a in rng:
        row = []
        for b in rng:
            ubs = [g for g in above[a] if m[b][g] == b]
            if not ubs:
                return GbisCheck(
                    False, witness=(els[a], els[b]),
                    reason=f"idempotents ({els[a]}, {els[b]}) have no least "
                           f"upper bound")
            lub = ubs[0]
            for g in ubs:
                lub = m[lub][g]
            row.append(els[lub])
        join_rows.append(row)
    meet_rows = [[els[v] for v in row] for row in m]
    try:
        algebra = FiniteGenBoolAlg(els, E.zero, meet_rows, join_rows)
    except ValidationError as err:
        return GbisCheck(False, reason=str(err))
    return GbisCheck(True, algebra=algebra)


class ISHomomorphism:
    """A zero-preserving multiplicative map between inverse semigroups.

    The codomain's idempotent semilattice must carry a generalized
    Boolean algebra (checked at construction).  Preservation of inverses
    and of idempotents follows from multiplicativity; both are checked
    rather than assumed, and a failure raises InvariantError.
    """

    def __init__(self, domain: FiniteInverseSemigroup,
                 codomain: FiniteInverseSemigroup,
                 mapping: Mapping[str, str]):
        self.domain = domain
        self.codomain = codomain
        check = is_generalized_boolean_inverse_semigroup(codomain)
        if not check.ok:
            raise ValidationError(
                f"codomain is not a generalized Boolean inverse semigroup: "
                f"{check.reason}")
        self.codomain_algebra = check.algebra
        for s in mapping:
            domain.index(s)
        missing = [s for s in domain.elements if s not in mapping]
        if missing:
            raise ValidationError(f"map is not total: no image for '{missing[0]}'")
        for s in domain.elements:
            codomain.index(mapping[s])
        if mapping[domain.zero] != codomain.zero:
            raise ValidationError("zero not preserved")
        for s in domain.elements:
            for t in domain.elements:
                if mapping[domain.mul(s, t)] != codomain.mul(mapping[s], mapping[t]):
                    raise ValidationError(f"product not preserved at ({s}, {t})")
        for s in domain.elements:
            if mapping[domain.inv(s)] != codomain.inv(mapping[s]):
                raise InvariantError(
                    f"multiplicative map failed to preserve the inverse of {s}")
            if domain.is_idempotent(s) and not codomain.is_idempotent(mapping[s]):
                raise InvariantError(
                    f"multiplicative map sent idempotent {s} to a non-idempotent")
        self.mapping = dict(mapping)

    def __repr__(self):
        pairs = ", ".join(f"{s}->{self.mapping[s]}" for s in self.domain.elements)
        return f"ISHomomorphism({pairs})"

    def image(self, s: str) -> str:
        try:
            return self.mapping[s]
        except KeyError:
            raise ValidationError(f"unknown element '{s}'") from None

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
    images of the nonzero domain idempotents; `corner` keeps the codomain
    elements whose source and range idempotents sit below the unit; the
    corestricted homomorphism into it is tight, as `report` records.
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

    The corner is closed under products and inverses, contains the range,
    and its idempotent part is exactly the principal ideal below the
    unit, so it is again a generalized Boolean inverse semigroup (indeed
    a unital one).  The corestricted homomorphism is verified tight.
    """
    tightening = tighten(hom.restriction())
    unit, algebra, T = tightening.unit, hom.codomain_algebra, hom.codomain
    keep = [t for t in T.elements
            if algebra.leq(T.mul(T.inv(t), t), unit)
            and algebra.leq(T.mul(t, T.inv(t)), unit)]
    keep_set = set(keep)
    for s in hom.domain.elements:
        if hom.image(s) not in keep_set:
            raise InvariantError(f"image of {s} escaped the corner below {unit}")
    for a in keep:
        for b in keep:
            if T.mul(a, b) not in keep_set:
                raise InvariantError(
                    f"corner not closed under products at ({a}, {b})")
        if T.inv(a) not in keep_set:
            raise InvariantError(f"corner not closed under inverses at {a}")
    rows = [[T.mul(a, b) for b in keep] for a in keep]
    corner = FiniteInverseSemigroup(keep, T.zero, rows)
    if set(corner.idempotent_elements) != set(tightening.codomain.elements):
        raise InvariantError(
            "corner idempotents differ from the principal ideal below the unit")
    corestricted = ISHomomorphism(hom.domain, corner, dict(hom.mapping))
    report = check_homomorphism_tightness(corestricted)
    if not report.tight.ok:
        raise InvariantError("corestriction to the corner is not tight")
    return HomomorphismTightening(unit=unit, corner=corner,
                                  homomorphism=corestricted, report=report)
