"""Finite meet-semilattices, generalized Boolean algebras, and their ideals.

Structures are explicit operation tables over opaque element names.
`index` turns a caller's name into a position; collections are read in
argument order (through `sort`), so a refusal cites the first bad name.
Validation is eager: constructing a structure checks its axioms and
raises ValidationError on the first violation, so every live instance is
known-good.  Tables never change after construction and all operations
are pure.  A semilattice keeps bitsets over positions: the down-sets
`_down` and the meet-zero sets `_zero_meet`.  `_scans` gains, by
idempotent `setdefault`s, the subset masks of each scan kind's above-
and disjoint-sets and the covers of each constrained set, so it is
shareable.

A finite generalized Boolean algebra is the powerset of its atoms, and
that is how the tables are accepted: each element gets its atom mask
(bit k for the k-th atom in declared order), and the masks must be a
bijection onto P(k), sending zero to 0, under which the tables are `&`
and `|`.  That O(n²) test makes the algebra isomorphic to P(k), so every
axiom holds.  Only a refused table runs the O(n³) axiom and complement
scans, which name its first violation.  Meet, join and relative
complement run as `&`, `|` and `b & ~a` on ints.  `_masks` holds the
masks by position, `_mask_names` the names by mask, and `_unit` the mask
of the top.  The scans of the representation layer run on these masks
and turn them back into names only for witnesses.

An IdealView is the parent algebra restricted to the members of an
ideal, so it is a FiniteGenBoolAlg itself: its `index` is a position in
the view's own `elements`.  It shares the parent's masks, and its unit
(the mask of its top) is the join of its members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class ValidationError(ValueError):
    """An operation table or map violates one of the structure axioms."""


class InvariantError(RuntimeError):
    """A fact that holds for every valid input failed: a bug, not bad input."""


def _unique_elements(elements: Sequence[str]) -> tuple[str, ...]:
    """The names as a tuple, each one token that a structure file can carry."""
    seen = set()
    for e in elements:
        if not isinstance(e, str) or e.split() != [e] or "#" in e:
            raise ValidationError(f"element name {e!r} is not one token "
                                  "without whitespace or '#'")
        if e in seen:
            raise ValidationError(f"duplicate element '{e}'")
        seen.add(e)
    if not seen:
        raise ValidationError("element list is empty")
    return tuple(elements)


def _shown(value, names) -> str:
    """A refused value in quotes, or as e.g. 0 (int) if a non-string reads as a name."""
    if not isinstance(value, str) and str(value) in names:
        return f"{value!r} ({type(value).__name__})"
    return f"'{value}'"


def _read_table(elements, index, rows, label):
    """Check an n x n table of names and index each row once, naming a bad entry."""
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
        try:
            out.append(tuple(map(index.__getitem__, row)))
        except (KeyError, TypeError):
            bad = next(v for v in row if v not in elements)
            raise ValidationError(
                f"unknown element {_shown(bad, index)} in {label} table") from None
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
    """Reading, `index`, `sort` and the cold dunders shared by the
    table-defined structures.

    The benchmark's op counter wraps the operations it finds in each
    lattice class's own namespace, so an operation defined only here
    would drop out of its count.  The lattice classes therefore bind
    `index` under their own name (`index = _TableStructure.index`) and
    keep their own `meet` and `leq`; the inverse semigroup, which the
    counter does not wrap, inherits `index`.  The scans of the
    representation layer call none of them: they run on positions and
    masks.
    """

    def _read(self, elements, zero, *tables):
        """Set elements, index and zero; return the `_TABLES` in index form."""
        self.elements = _unique_elements(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if zero not in self.elements:
            raise ValidationError(
                f"zero {_shown(zero, self._index)} is not a listed element")
        self.zero = zero
        return [_read_table(self.elements, self._index, rows, label)
                for label, rows in zip(self._TABLES, tables)]

    def __repr__(self):
        return f"{type(self).__name__}({list(self.elements)!r}, zero={self.zero!r})"

    def __len__(self):
        return len(self.elements)

    def __contains__(self, a):
        return a in self._index

    def index(self, a: str) -> int:
        """The position of a listed element; any other value, unhashable
        ones too, is refused as an unknown element."""
        try:
            return self._index[a]
        except (KeyError, TypeError):
            raise ValidationError(
                f"unknown element {_shown(a, self._index)}") from None

    @property
    def base(self):
        """The structure that owns the tables: itself, but an IdealView's parent."""
        return self

    def sort(self, xs: Iterable[str]) -> tuple[str, ...]:
        """The given elements, each read by `index` in the order given, in
        declared order (deduplicated)."""
        return tuple(self.elements[p] for p in sorted({self.index(x) for x in xs}))


class FiniteMeetSemilattice(_TableStructure):
    """A finite semilattice with zero, given by its meet table.

    `meet[i][j]` names elements[i] ∧ elements[j].  The constructor checks
    that meet is commutative, associative and idempotent and that the
    declared zero is absorbing.  The element order as declared is the
    canonical order used for all emitted sets and witnesses.
    """

    _TABLES = ("meet",)

    def __init__(self, elements: Sequence[str], zero: str,
                 meet: Sequence[Sequence[str]]):
        (self._meet,) = self._read(elements, zero, meet)
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

    index = _TableStructure.index

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self.index(a)][self.index(b)]]

    def leq(self, a: str, b: str) -> bool:
        """a ≤ b iff a ∧ b = a."""
        return self.meet(a, b) == a

    def meet_all(self, xs: Iterable[str]) -> str:
        """Meet of a nonempty collection (a semilattice has no empty meet),
        each name read by `index`, a lone one too."""
        ps = [self.index(x) for x in xs]
        if not ps:
            raise ValidationError("empty meet in a semilattice")
        acc = ps[0]
        for p in ps[1:]:
            acc = self._meet[acc][p]
        return self.elements[acc]


class FiniteGenBoolAlg(_TableStructure):
    """A finite generalized Boolean algebra, given by meet and join tables.

    The constructor accepts the tables when `_atom_masks` reads them as
    P(k).  Only a refused table runs `_check_axioms` (commutativity,
    associativity of meet, distributivity, neutral zero, idempotence)
    and then `_check_complements`, which raise its first violation.
    These imply the powerset form: for c ≤ a, with x the complement of c
    below a, distributivity gives a ∧ (a ∨ c) = a ∨ c and
    (a ∨ c) ∧ (x ∨ c) = x ∨ c = a, so a ∨ c = a and join is the least
    upper bound.  A table that passes both is an InvariantError.  The top
    acts as a unit, so every such algebra is unital; whether it is *used*
    unitally is a property of the view a computation runs against (the
    full algebra or an IdealView).
    """

    _TABLES = ("meet", "join")

    def __init__(self, elements: Sequence[str], zero: str,
                 meet: Sequence[Sequence[str]], join: Sequence[Sequence[str]]):
        self._meet, self._join = self._read(elements, zero, meet, join)
        powerset = self._atom_masks()
        if powerset is None:
            self._check_axioms()
            self._check_complements()
            raise InvariantError(
                "a validated algebra is not the powerset of its atoms")
        self._masks, self._mask_names = powerset
        self._unit = len(self.elements) - 1
        self.top = self._mask_names[self._unit]

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
        """For every a ≤ b some x has x ∨ a = b and x ∧ a = 0.

        The axioms make x unique: if y is another, x = x ∧ (x ∨ a) =
        x ∧ (y ∨ a) = (x ∧ y) ∨ (x ∧ a) = x ∧ y, and likewise y = y ∧ x.
        """
        els, m, j = self.elements, self._meet, self._join
        n = len(els)
        z = self._index[self.zero]
        for a in range(n):
            for b in range(n):
                if m[a][b] != a:        # only pairs with a ≤ b
                    continue
                if not any(j[x][a] == b and m[x][a] == z for x in range(n)):
                    raise ValidationError(
                        f"relative complement missing for {els[a]} ≤ {els[b]}")

    def _atom_masks(self):
        """Each element's atom mask by position and the names by mask, or
        None unless the masks are a bijection onto 0..2^k - 1 that sends
        zero to 0 and under which the tables are `&` and `|`.

        An atom is a nonzero element whose meet with anything is zero or
        itself.  This O(n²) test is all that accepts a valid algebra.
        """
        els, m, j = self.elements, self._meet, self._join
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
        if n != 1 << len(atoms) or None in names or masks[z] or any(
                masks[m[a][b]] != masks[a] & masks[b]
                or masks[j[a][b]] != masks[a] | masks[b]
                for a in range(n) for b in range(n)):
            return None
        return masks, tuple(names)

    # -- operations ---------------------------------------------------

    @property
    def members(self) -> frozenset[str]:
        return frozenset(self.elements)

    index = _TableStructure.index

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
        return self._mask_names[_join_mask(self._masks[self.index(x)] for x in xs)]

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


@dataclass(frozen=True)
class IdealCheck:
    """Outcome of an ideal test: ok, or a named violation with a witness.

    reason is one of "empty", "downward", "join"; for "downward" the
    witness pair (a, b) has a ≤ b with b a member but a not; for "join"
    the witness pair joins outside the candidate set.
    """
    ok: bool
    reason: str | None = None
    witness: tuple[str, str] | None = None

    def __bool__(self):
        return self.ok


def is_ideal(algebra, members: Iterable[str]) -> IdealCheck:
    """Test whether `members` is an ideal: nonempty, downward closed, join closed."""
    base = algebra.base
    held = {e: base._masks[base._index[e]] for e in base.sort(members)}
    if not held:
        return IdealCheck(False, "empty")
    for b, mb in held.items():
        for a, ma in zip(base.elements, base._masks):
            if not ma & ~mb and a not in held:
                return IdealCheck(False, "downward", (a, b))
    for a, ma in held.items():
        for b, mb in held.items():
            if base._mask_names[ma | mb] not in held:
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
        members = tuple(members)
        check = is_ideal(base, members)     # reads the names through `sort`
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
        keep = sorted({base._index[e] for e in members})
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
        except (KeyError, TypeError):
            self.parent.index(a)    # unknown elements get the sharper error
            raise ValidationError(
                f"element '{a}' is outside this ideal view") from None


def ideal_generated_by(algebra, generators: Iterable[str]) -> IdealView:
    """The smallest ideal containing the generators.

    In a finite algebra this is the principal ideal of the join of the
    generating set: everything below some finite join of generators.
    """
    gens = list(generators)
    if not gens:
        raise ValidationError("generating set is empty")
    return principal_ideal(algebra, algebra.base.join_all(gens))


def principal_ideal(algebra, e: str) -> IdealView:
    """The ideal of everything below e; its derived top is e."""
    base = algebra.base
    me = base._masks[base.index(e)]
    members = [a for a, m in zip(base.elements, base._masks) if not m & ~me]
    return IdealView(base, members)
