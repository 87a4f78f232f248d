"""Finite meet-semilattices, generalized Boolean algebras, and their ideals.

Structures are explicit operation tables over opaque element names.
Validation is eager: constructing a structure runs the exhaustive axiom
check and raises ValidationError on the first violation, so every live
instance is known-good.  Tables never change after construction and all
operations are pure.  A semilattice keeps bitsets over positions: the
down-sets `_down` and the meet-zero sets `_zero_meet`; `_scans` gains its
tight instances lazily, by idempotent `setdefault`s, so it is shareable.

A finite generalized Boolean algebra is the powerset of its atoms.  The
tables are read and validated as given; then each element gets its atom
mask (bit k for the k-th atom in declared order), and meet, join and
relative complement run as `&`, `|` and `b & ~a` on ints.  `_masks`
holds the masks by position, `_mask_names` the names by mask, and
`_unit` the mask of the top.  The scans of the representation layer run
on these masks and turn them back into names only for witnesses.

An IdealView is the parent algebra restricted to the members of an
ideal, so it is a FiniteGenBoolAlg itself: its `index` is a position in
the view's own `elements`.  It shares the parent's masks, and its unit
(the mask of its top) is the join of its members.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class ValidationError(ValueError):
    """An operation table or map violates one of the structure axioms."""


class InvariantError(RuntimeError):
    """A fact that holds for every valid input failed: a bug, not bad input."""


def _unique_elements(elements: Sequence[str]) -> tuple[str, ...]:
    seen = set()
    for e in elements:
        if e in seen:
            raise ValidationError(f"duplicate element '{e}'")
        seen.add(e)
    if not seen:
        raise ValidationError("element list is empty")
    return tuple(elements)


def _read_table(elements, index, rows, label):
    """Turn an n x n table of element names into index form, checking shape."""
    n = len(elements)
    rows = list(rows)
    if len(rows) != n:
        raise ValidationError(f"{label} table has {len(rows)} rows, expected {n}")
    out = []
    for row in rows:
        row = list(row)
        if len(row) != n:
            raise ValidationError(
                f"{label} table row has {len(row)} entries, expected {n}")
        for v in row:
            if v not in index:
                raise ValidationError(f"unknown element '{v}' in {label} table")
        out.append(tuple(index[v] for v in row))
    return tuple(out)


def _associativity_violation(table):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or None."""
    rng = range(len(table))
    for a in rng:
        row = table[a]
        for b in rng:
            ab_row, b_row = table[row[b]], table[b]
            for c in rng:
                if ab_row[c] != row[b_row[c]]:
                    return a, b, c
    return None


def _join_mask(masks) -> int:
    """The join of atom masks: their OR (the empty join is zero)."""
    acc = 0
    for mask in masks:
        acc |= mask
    return acc


class _TableStructure:
    """Reading, `sort` and the cold dunders shared by the table-defined
    structures.

    Each subclass defines its own operations, even where the code is the
    same: CPython specializes attribute access inside a function per
    type, and one `meet` shared by semilattices and algebras, which
    alternate in every scan, runs markedly slower.
    """

    def _read(self, elements, zero, **tables):
        """Set elements, their index and zero; return the tables in index form."""
        self.elements = _unique_elements(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if zero not in self._index:
            raise ValidationError(f"zero '{zero}' is not a listed element")
        self.zero = zero
        return [_read_table(self.elements, self._index, rows, label)
                for label, rows in tables.items()]

    def __repr__(self):
        return f"{type(self).__name__}({list(self.elements)!r}, zero={self.zero!r})"

    def __len__(self):
        return len(self.elements)

    def __contains__(self, a):
        return a in self._index

    def sort(self, xs: Iterable[str]) -> tuple[str, ...]:
        """The given elements in declared order (deduplicated)."""
        picked = set(xs)
        for x in picked:
            self.index(x)
        return tuple(e for e in self.elements if e in picked)


class FiniteMeetSemilattice(_TableStructure):
    """A finite semilattice with zero, given by its meet table.

    `meet[i][j]` names elements[i] ∧ elements[j].  The constructor checks
    that meet is commutative, associative and idempotent and that the
    declared zero is absorbing.  The element order as declared is the
    canonical order used for all emitted sets and witnesses.
    """

    def __init__(self, elements: Sequence[str], zero: str,
                 meet: Sequence[Sequence[str]]):
        (self._meet,) = self._read(elements, zero, meet=meet)
        self._check_axioms()
        z = self._index[zero]
        self._down = tuple(sum(1 << j for j, v in enumerate(row) if v == j)
                           for row in self._meet)
        self._zero_meet = tuple(sum(1 << j for j, v in enumerate(row) if v == z)
                                for row in self._meet)
        self._scans = {}

    def _check_axioms(self):
        els, m = self.elements, self._meet
        n = len(els)
        z = self._index[self.zero]
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise ValidationError(
                        f"meet not commutative at ({els[i]}, {els[j]})")
        bad = _associativity_violation(m)
        if bad:
            raise ValidationError(
                f"meet not associative at ({', '.join(els[i] for i in bad)})")
        for i in range(n):
            if m[i][i] != i:
                raise ValidationError(f"meet not idempotent at {els[i]}")
        for i in range(n):
            if m[z][i] != z:
                raise ValidationError(f"zero not absorbing at {els[i]}")

    def index(self, a: str) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise ValidationError(f"unknown element '{a}'") from None

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self.index(a)][self.index(b)]]

    def leq(self, a: str, b: str) -> bool:
        """a ≤ b iff a ∧ b = a."""
        return self.meet(a, b) == a

    def meet_all(self, xs: Iterable[str]) -> str:
        """Meet of a nonempty collection (a semilattice has no empty meet)."""
        xs = list(xs)
        if not xs:
            raise ValidationError("empty meet in a semilattice")
        acc = xs[0]
        for x in xs[1:]:
            acc = self.meet(acc, x)
        return acc


class FiniteGenBoolAlg(_TableStructure):
    """A finite generalized Boolean algebra, given by meet and join tables.

    The constructor checks the defining axioms (commutativity of both
    operations, associativity of meet, meet distributing over join,
    a ∨ 0 = a, existence and uniqueness of relative complements,
    idempotence) and then the derived laws: join is associative, join
    distributes over meet, both absorption laws hold, and the join of all
    elements acts as a unit.  In the finite case every such algebra is
    therefore unital; whether it is *used* unitally is a property of the
    view a computation runs against (the full algebra or an IdealView).
    """

    def __init__(self, elements: Sequence[str], zero: str,
                 meet: Sequence[Sequence[str]], join: Sequence[Sequence[str]]):
        self._meet, self._join = self._read(elements, zero, meet=meet, join=join)
        self._check_axioms()
        self._check_complements()
        top = 0
        for i in range(len(self.elements)):
            top = self._join[top][i]
        self.top = self.elements[top]
        self._check_derived_laws()
        self._masks, self._mask_names = self._atom_masks()
        self._unit = self._masks[top]

    # -- validation ---------------------------------------------------

    def _check_axioms(self):
        els, m, j = self.elements, self._meet, self._join
        n = len(els)
        z = self._index[self.zero]
        for a in range(n):
            for b in range(a + 1, n):
                if j[a][b] != j[b][a]:
                    raise ValidationError(
                        f"join not commutative at ({els[a]}, {els[b]})")
                if m[a][b] != m[b][a]:
                    raise ValidationError(
                        f"meet not commutative at ({els[a]}, {els[b]})")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if m[m[a][b]][c] != m[a][m[b][c]]:
                        raise ValidationError(
                            f"meet not associative at ({els[a]}, {els[b]}, {els[c]})")
                    if m[a][j[b][c]] != j[m[a][b]][m[a][c]]:
                        raise ValidationError(
                            f"distributivity fails at ({els[a]}, {els[b]}, {els[c]})")
        for a in range(n):
            if j[a][z] != a:
                raise ValidationError(f"zero not neutral for join at {els[a]}")
            if j[a][a] != a:
                raise ValidationError(f"join not idempotent at {els[a]}")
            if m[a][a] != a:
                raise ValidationError(f"meet not idempotent at {els[a]}")

    def _check_complements(self):
        """For every a ≤ b there is exactly one x with x ∨ a = b and x ∧ a = 0."""
        els, m, j = self.elements, self._meet, self._join
        n = len(els)
        z = self._index[self.zero]
        for a in range(n):
            for b in range(n):
                if m[a][b] != a:        # only pairs with a ≤ b
                    continue
                found = [x for x in range(n) if j[x][a] == b and m[x][a] == z]
                if not found:
                    raise ValidationError(
                        f"relative complement missing for {els[a]} ≤ {els[b]}")
                if len(found) > 1:
                    raise ValidationError(
                        f"relative complement not unique for {els[a]} ≤ {els[b]}")

    def _check_derived_laws(self):
        els, m, j = self.elements, self._meet, self._join
        n = len(els)
        t = self._index[self.top]
        for a in range(n):
            for b in range(n):
                if m[a][j[a][b]] != a or j[a][m[a][b]] != a:
                    raise ValidationError(
                        f"absorption fails at ({els[a]}, {els[b]})")
                for c in range(n):
                    if j[j[a][b]][c] != j[a][j[b][c]]:
                        raise ValidationError(
                            f"join not associative at ({els[a]}, {els[b]}, {els[c]})")
                    if j[a][m[b][c]] != m[j[a][b]][j[a][c]]:
                        raise ValidationError(
                            f"join does not distribute over meet at "
                            f"({els[a]}, {els[b]}, {els[c]})")
        for a in range(n):
            if m[t][a] != a:
                raise ValidationError(f"derived top is not a unit at {els[a]}")

    def _atom_masks(self):
        """Each element's atom mask by position, and the names by mask.

        An atom is a nonzero element whose meet with anything is zero or
        itself.  The algebra is the powerset of its atoms, so the masks
        are a bijection onto 0..2^k - 1.
        """
        els, m = self.elements, self._meet
        n = len(els)
        z = self._index[self.zero]
        atoms = [a for a in range(n)
                 if a != z and all(v == z or v == a for v in m[a])]
        masks = tuple(sum(1 << k for k, t in enumerate(atoms) if m[a][t] == t)
                      for a in range(n))
        names = [None] * n
        for a, mask in enumerate(masks):
            if mask < n:
                names[mask] = els[a]
        if n != 1 << len(atoms) or None in names:
            raise InvariantError(
                "a validated algebra is not the powerset of its atoms")
        return masks, tuple(names)

    # -- operations ---------------------------------------------------

    @property
    def base(self) -> "FiniteGenBoolAlg":
        return self

    @property
    def members(self) -> frozenset[str]:
        return frozenset(self.elements)

    def index(self, a: str) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise ValidationError(f"unknown element '{a}'") from None

    def meet(self, a: str, b: str) -> str:
        return self._mask_names[
            self._masks[self.index(a)] & self._masks[self.index(b)]]

    def join(self, a: str, b: str) -> str:
        return self._mask_names[
            self._masks[self.index(a)] | self._masks[self.index(b)]]

    def leq(self, a: str, b: str) -> bool:
        return self.meet(a, b) == a

    def relative_complement(self, a: str, b: str) -> str:
        """The unique x with x ∨ a = b and x ∧ a = 0, for a ≤ b (i.e. b ∖ a)."""
        ma, mb = self._masks[self.index(a)], self._masks[self.index(b)]
        if ma & ~mb:
            raise ValidationError(
                f"relative complement requires {a} ≤ {b}")
        return self._mask_names[mb & ~ma]

    def complement(self, a: str) -> str:
        """Complement relative to the derived top: top ∖ a."""
        return self.relative_complement(a, self.top)

    def join_all(self, xs: Iterable[str]) -> str:
        """Join of any finite collection; the empty join is zero."""
        acc = self.zero
        for x in xs:
            acc = self.join(acc, x)
        return acc

    def meet_all(self, xs: Iterable[str]) -> str:
        """Meet of any finite collection; the empty meet is the top."""
        acc = self.top
        for x in xs:
            acc = self.meet(acc, x)
        return acc

    def as_meet_semilattice(self) -> FiniteMeetSemilattice:
        """The meet reduct, forgetting joins."""
        rows = [[self.meet(a, b) for b in self.elements] for a in self.elements]
        return FiniteMeetSemilattice(self.elements, self.zero, rows)

    def as_algebra(self) -> "FiniteGenBoolAlg":
        """A standalone, revalidated algebra over this structure's own elements."""
        els = self.elements
        meet = [[self.meet(a, b) for b in els] for a in els]
        join = [[self.join(a, b) for b in els] for a in els]
        return FiniteGenBoolAlg(els, self.zero, meet, join)


class IdealCheck:
    """Outcome of an ideal test: ok, or a named violation with a witness.

    reason is one of "empty", "downward", "join"; for "downward" the
    witness pair (a, b) has a ≤ b with b a member but a not; for "join"
    the witness pair joins outside the candidate set.
    """

    __slots__ = ("ok", "reason", "witness")

    def __init__(self, ok, reason=None, witness=None):
        self.ok = ok
        self.reason = reason
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "IdealCheck(ok=True)"
        return f"IdealCheck(ok=False, reason={self.reason!r}, witness={self.witness!r})"


def is_ideal(algebra, members: Iterable[str]) -> IdealCheck:
    """Test whether `members` is an ideal: nonempty, downward closed, join closed."""
    base = algebra.base
    members = set(members)
    for x in members:
        base.index(x)
    if not members:
        return IdealCheck(False, "empty")
    masked = list(zip(base.elements, base._masks))
    for b, mb in masked:
        if b not in members:
            continue
        for a, ma in masked:
            if not ma & ~mb and a not in members:
                return IdealCheck(False, "downward", (a, b))
    ordered = [(e, m) for e, m in masked if e in members]
    for a, ma in ordered:
        for b, mb in ordered:
            if base._mask_names[ma | mb] not in members:
                return IdealCheck(False, "join", (a, b))
    return IdealCheck(True)


class IdealView(FiniteGenBoolAlg):
    """An ideal of a generalized Boolean algebra, used as a codomain view.

    The view is the parent's members with their atom masks.  An ideal
    is closed under meet, join and relative complement, so the restriction
    is an algebra without revalidation; construction checks only the
    ideal axioms.  Its derived top is the join of the members, so a view
    is always unital as a view even when it is a proper ideal of the
    parent.  `index` gives positions in the view's own `elements`, and
    rejects parent elements outside the view.
    """

    def __init__(self, parent, members: Iterable[str]):
        base = parent.base
        members = frozenset(members)
        check = is_ideal(base, members)
        if not check.ok:
            if check.reason == "empty":
                raise ValidationError("an ideal must be nonempty")
            a, b = check.witness
            if check.reason == "downward":
                raise ValidationError(
                    f"not downward closed: {a} ≤ {b} but {a} missing")
            raise ValidationError(
                f"not closed under join: ({a}, {b}) joins outside the set")
        self.parent = base
        keep = [i for i, e in enumerate(base.elements) if e in members]
        self.elements = tuple(base.elements[p] for p in keep)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.zero = base.zero
        self._masks = tuple(base._masks[p] for p in keep)
        self._mask_names = base._mask_names
        self._unit = _join_mask(self._masks)
        self.top = base._mask_names[self._unit]

    @property
    def base(self) -> FiniteGenBoolAlg:
        return self.parent

    def index(self, a: str) -> int:
        try:
            return self._index[a]
        except KeyError:
            self.parent.index(a)    # unknown elements get the sharper error
            raise ValidationError(
                f"element '{a}' is outside this ideal view") from None


def ideal_generated_by(algebra, generators: Iterable[str]) -> IdealView:
    """The smallest ideal containing the generators.

    In a finite algebra this is the principal ideal of the join of the
    generating set: everything below some finite join of generators.
    """
    base = algebra.base
    gens = list(generators)
    if not gens:
        raise ValidationError("generating set is empty")
    bound = base.join_all(base.sort(gens))
    return principal_ideal(base, bound)


def principal_ideal(algebra, e: str) -> IdealView:
    """The ideal of everything below e; its derived top is e."""
    base = algebra.base
    me = base._masks[base.index(e)]
    members = [a for a, m in zip(base.elements, base._masks) if not m & ~me]
    return IdealView(base, members)
