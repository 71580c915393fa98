"""Headline lattice predicates and the theorem-level verifiers.

Two independent characterizations of d-lattices, complementedness, the
seven equivalent conditions for non-complementedness of a d-lattice,
constructive witnesses for two of the implications, and an end-to-end
verdict plus a full classification report for a single lattice.

The d-lattice scope is decided by the characterization (Lemma
``charact``): every maximal ideal and maximal filter is prime.  It reads
the maximal and prime sets alone, with no closure; the defining
implications are kept as ``is_d_lattice_definition`` for the tests and
searches that compare the two.  It reads the principal congruences
con(0, c) and con(c, 1) as D-closed sets of join-irreducibles, derived
once per lattice, and tests their classes of 1 and 0 on masks, with no
closure.

Every predicate, verdict and report reads one record per lattice
(``_Facts``) that derives each fact on its first read and keeps it: the
masks of the maximal and prime ideals and filters, the first non-prime
maximal ideal and filter (the d-lattice flag), the least complementless
element, Con(L) from Day's dependency relation (no closure), its least
unbalanced congruence, with balance read from one table of principal
congruences (``principal_table``, one closure per comparable pair, any
other pair read at its meet and join), and the seven conditions.  Only
the report wraps a set in an ``ElementSet``.
A caller reads only what it needs (``is_d_lattice`` runs no closure,
``is_balanced`` no complement scan), and the census and searches read
the scope, the conditions and the report off one record.
The record lives only while its caller holds it; nothing is cached on
the lattice.  No condition is inferred from another, so lattices
outside the d-lattice scope still get a full (possibly divergent)
condition vector as a negative control.
Every result type serializes through one walk over its fields
(``to_dict``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import Any, Optional, Sequence

from .congruences import (
    Congruence,
    Principal,
    _irreducible_masks,
    _join_irreducibles,
    _principal_set,
    all_congruences,
    is_balanced_congruence,
    principal_table,
)
from .core import (
    FiniteLattice,
    LatticeError,
    LatticeHomomorphism,
    _element,
    _fold,
    is_homomorphism,
    is_surjective,
    standard_lattice,
)
from .ideals import (
    ElementSet,
    _maximal_and_prime,
    annihilator_filter,
    annihilator_ideal,
    filter_generated_by,
    ideal_generated_by,
    is_ideal,
    is_maximal_filter,
    is_maximal_ideal,
    is_prime_ideal,
)


class NotNestedPrimes(LatticeError):
    """The two sets are not prime ideals in strict containment."""


class HomomorphismCheckFailed(LatticeError):
    """A constructed map or witness failed verification; indicates an internal bug."""


class HasComplement(LatticeError):
    """A non-complemented element was required."""


class NotDLattice(LatticeError):
    """The operation is only defined on d-lattices."""


def _plain(value: object) -> Any:
    """JSON-ready data: sets and congruences as text, tuples as lists, results as dicts.

    A result's dict holds its fields in key order, each under its name or
    under the ``key`` in the field's metadata.
    """
    if isinstance(value, (ElementSet, Congruence)):  # ElementSet is itself a dataclass
        return str(value)
    if is_dataclass(value):
        items = ((f.metadata.get("key", f.name), getattr(value, f.name)) for f in fields(value))
        return {key: _plain(item) for key, item in sorted(items)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


class _Result:
    """Base of the result dataclasses; serializes them for the CLI."""

    def to_dict(self) -> dict[str, object]:
        """The fields as JSON-ready data, each under its name or metadata ``key``."""
        return _plain(self)


@dataclass(frozen=True)
class SevenConditions(_Result):
    """The seven equivalent ways a d-lattice can fail to be complemented.

    c1: some maximal filter's complement is not a maximal ideal
    c2: some maximal ideal's complement is not a maximal filter
    c3: there are prime ideals I1 strictly inside I2
    c4: there are prime filters F1 strictly inside F2
    c5: the lattice maps onto the 3-element chain (some congruence has
        exactly three blocks; every 3-element bounded lattice is the chain)
    c6: the lattice is not balanced
    c7: the lattice is not complemented
    """

    c1: bool
    c2: bool
    c3: bool
    c4: bool
    c5: bool
    c6: bool
    c7: bool

    def as_tuple(self) -> tuple[bool, ...]:
        return (self.c1, self.c2, self.c3, self.c4, self.c5, self.c6, self.c7)

    def all_equal(self) -> bool:
        return len(set(self.as_tuple())) == 1


@dataclass(frozen=True)
class ReportCounts(_Result):
    ideals: int
    filters: int
    prime_ideals: int
    prime_filters: int
    congruences: int


@dataclass(frozen=True)
class ReportWitnesses(_Result):
    """Least witnesses (in the fixed element/enumeration order), when any.

    Each field is populated exactly when the matching report boolean
    makes it meaningful: nested primes for c3, the complementless
    element for c7, the unbalanced congruence for c6, and a non-prime
    maximal ideal or filter when the lattice is not a d-lattice.
    """

    nested_prime_ideals: Optional[tuple[ElementSet, ElementSet]] = None
    noncomplemented_element: Optional[int] = None
    unbalanced_congruence: Optional[Congruence] = None
    nonprime_maximal_ideal: Optional[ElementSet] = None
    nonprime_maximal_filter: Optional[ElementSet] = None


@dataclass(frozen=True)
class PropertyReport(_Result):
    """Everything this package can say about one lattice."""

    size: int
    is_bounded: bool
    is_d_lattice: bool
    is_balanced: bool
    is_complemented: bool
    is_distributive: bool
    seven: SevenConditions = field(metadata={"key": "seven_conditions"})
    counts: ReportCounts
    witnesses: ReportWitnesses
    convention_note: Optional[str] = None


@dataclass(frozen=True)
class TheoremVerdict(_Result):
    """Outcome of checking the seven-way equivalence on one lattice.

    Lattices that are not d-lattices are out of the theorem's scope;
    they pass vacuously and carry scope="not-a-d-lattice" so reports
    stay explicit about why nothing was asserted.
    """

    scope: str
    passed: bool
    seven: SevenConditions = field(metadata={"key": "seven_conditions"})
    balanced: bool
    complemented: bool


@dataclass(frozen=True)
class NonComplementedWitness:
    """The constructive chain from a complementless element to condition c1.

    element has no complement; seed_filter is the filter generated by
    everything that joins it to top, together with the element itself;
    maximal_filter extends the seed; residual_ideal is the complement of
    the maximal filter and is provably not a maximal ideal, because
    extended_ideal (generated by the residual plus the element) is a
    proper ideal strictly above it.
    """

    element: int
    seed_filter: ElementSet
    maximal_filter: ElementSet
    residual_ideal: ElementSet
    extended_ideal: ElementSet


def is_d_lattice_definition(lattice: FiniteLattice) -> bool:
    """The defining implications, checked over all element pairs.

    For all a, c: if (a, top) lies in the congruence generated by
    (bottom, c) then a∨c = top, and dually with the roles of the bounds
    swapped.  By the kernel rule of ``congruences``, with S the D-closed
    set of the congruence and J = J(L), a θ top iff J ∖ S ⊆ ↓a, and
    a θ bottom iff J(↓a) ⊆ S.  The sets C(q) are derived once, and each
    c reads the sets of con(bottom, c) and con(c, top) off them.
    """
    n, down, bottom, top = lattice.size, lattice.down_masks, lattice.bottom, lattice.top
    closed = _irreducible_masks(lattice)
    every = sum(1 << q for q in closed)
    for c in range(n):
        above = every & ~_principal_set(closed, down, bottom, c)  # J ∖ S of con(bottom, c)
        below = every & ~_principal_set(closed, down, c, top)  # J ∖ S of con(c, top)
        for a in range(n):
            if not above & ~down[a] and lattice.join[a][c] != top:  # a θ top
                return False
            if not below & down[a] and lattice.meet[a][c] != bottom:  # a θ bottom
                return False
    return True


def is_d_lattice(lattice: FiniteLattice) -> bool:
    """Characterization: all maximal ideals and maximal filters are prime.

    Lemma ``charact``: in a d-lattice the complement of a maximal filter
    is a prime ideal, and dually.  No closure runs; the tests and the
    ``dlattice-characterizations-disagree`` search check it against
    ``is_d_lattice_definition``.
    """
    return _Facts(lattice).d_lattice


is_d_lattice_maximal_prime = is_d_lattice  # the characterization's own public name


def complements_of(lattice: FiniteLattice, a: int) -> ElementSet:
    """All b with a∧b = bottom and a∨b = top; a is checked as ``core._element`` does."""
    return ElementSet(lattice.size, _complements(lattice, _element(a, lattice.size)))


def _complements(lattice: FiniteLattice, a: int) -> int:
    """The mask of the complements of a."""
    bottom, top = lattice.bottom, lattice.top
    pairs = zip(lattice.meet[a], lattice.join[a])
    return sum(1 << b for b, (m, j) in enumerate(pairs) if m == bottom and j == top)


def is_complemented(lattice: FiniteLattice) -> bool:
    """Every element has a complement."""
    return _Facts(lattice).complementless is None


def is_balanced(lattice: FiniteLattice) -> bool:
    """Every congruence is balanced: condition c6 fails."""
    return _Facts(lattice).unbalanced is None


def is_distributive(lattice: FiniteLattice) -> bool:
    """Birkhoff's form: x ↦ J(L) ∩ ↓x preserves binary joins.

    J(L) is read off the down-sets (``_join_irreducibles``).  Every
    x is the join of J(L) ∩ ↓x and the map preserves meets, so it embeds
    L in the subsets of J(L) exactly when it also preserves joins, that
    is, when every join-irreducible is join-prime.  One mask test per
    pair of elements.
    """
    n, down, join = lattice.size, lattice.down_masks, lattice.join
    irreducible = sum(1 << j for j in _join_irreducibles(lattice))
    below = [mask & irreducible for mask in down]
    return all(
        below[join[x][y]] == below[x] | below[y] for x in range(n) for y in range(x + 1, n)
    )


def _nested_pair(masks: Sequence[int]) -> Optional[tuple[int, int]]:
    """First strictly-nested pair of sets in enumeration order, if any."""
    for small in masks:
        for big in masks:
            if small != big and small & ~big == 0:
                return (small, big)
    return None


class _Facts:
    """The facts the theorem is read from, for one lattice, each derived on first read.

    Ideals, filters and elements are held as bit masks and element
    indices.  ``sides`` holds the masks of the (maximal, prime) ideals,
    then filters, in enumeration order, and ``nonprime_maximal`` the
    first maximal ideal, then filter, that is not prime; a d-lattice has
    neither.  Con(L) is listed once, sorted: c5 reads the block counts,
    and c6 tests balance, read from one table of principal congruences,
    in that order up to the first unbalanced congruence, which is also
    the report's least witness.  Only ``report`` wraps a set in an
    :class:`ElementSet`.  Each source is called by its module-level
    name, so patched or traced sources see every call.
    """

    def __init__(self, lattice: FiniteLattice) -> None:
        self.lattice = lattice

    @cached_property
    def sides(self) -> tuple[tuple[list[int], list[int]], ...]:
        return _maximal_and_prime(self.lattice)

    @cached_property
    def nonprime_maximal(self) -> tuple[Optional[int], ...]:
        return tuple(
            next((mask for mask in maximal if mask not in prime), None)
            for maximal, prime in self.sides
        )

    @property
    def d_lattice(self) -> bool:
        return self.nonprime_maximal == (None, None)

    @cached_property
    def complementless(self) -> Optional[int]:
        """The least element with no complement, if any."""
        lattice = self.lattice
        return next((a for a in lattice.elements() if not _complements(lattice, a)), None)

    @cached_property
    def principal(self) -> Principal:
        return principal_table(self.lattice)

    @cached_property
    def congruences(self) -> list[Congruence]:
        return all_congruences(self.lattice)

    @cached_property
    def unbalanced(self) -> Optional[Congruence]:
        """The first congruence that is not balanced, if any."""
        lattice, principal = self.lattice, self.principal
        return next(
            (c for c in self.congruences if not is_balanced_congruence(lattice, c, principal)), None
        )

    @cached_property
    def nested_primes(self) -> Optional[tuple[int, int]]:
        return _nested_pair(self.sides[0][1])

    @cached_property
    def seven(self) -> SevenConditions:
        (maximal_ideals, _), (maximal_filters, prime_filters) = self.sides
        full = (1 << self.lattice.size) - 1
        return SevenConditions(
            c1=any(full ^ f not in maximal_ideals for f in maximal_filters),
            c2=any(full ^ i not in maximal_filters for i in maximal_ideals),
            c3=self.nested_primes is not None,
            c4=_nested_pair(prime_filters) is not None,
            c5=any(c.num_blocks == 3 for c in self.congruences),
            c6=self.unbalanced is not None,
            c7=self.complementless is not None,
        )

    def report(self) -> PropertyReport:
        """Every predicate, count and least witness; see ``ReportWitnesses``."""
        lattice, seven = self.lattice, self.seven
        n = lattice.size
        (_, prime_ideals), (_, prime_filters) = self.sides
        nested = self.nested_primes
        return PropertyReport(
            size=lattice.size,
            is_bounded=True,  # FiniteLattice construction rejects unbounded orders
            is_d_lattice=self.d_lattice,
            is_balanced=not seven.c6,
            is_complemented=not seven.c7,
            is_distributive=is_distributive(lattice),
            seven=seven,
            counts=ReportCounts(
                ideals=lattice.size,  # one principal ideal (and filter) per element
                filters=lattice.size,
                prime_ideals=len(prime_ideals),
                prime_filters=len(prime_filters),
                congruences=len(self.congruences),
            ),
            witnesses=ReportWitnesses(
                None if nested is None else (ElementSet(n, nested[0]), ElementSet(n, nested[1])),
                self.complementless,
                self.unbalanced,
                *(None if mask is None else ElementSet(n, mask) for mask in self.nonprime_maximal),
            ),
            convention_note=None if lattice.size > 1 else (
                "one-element lattice: d-lattice, complemented and balanced "
                "hold by convention (all defining implications are vacuous)"
            ),
        )


def seven_conditions(lattice: FiniteLattice) -> SevenConditions:
    """All seven conditions, read from one record of the lattice's facts."""
    return _Facts(lattice).seven


def three_chain_quotient_from_nested_primes(
    lattice: FiniteLattice, inner: ElementSet, outer: ElementSet
) -> LatticeHomomorphism:
    """The surjection onto chain(3) induced by prime ideals inner ⊊ outer.

    Maps inner to 0, outer∖inner to 1, and the rest to 2; the
    homomorphism property and surjectivity are machine-checked before
    the map is returned.
    """
    try:
        inner_prime = is_prime_ideal(lattice, inner)
        outer_prime = is_prime_ideal(lattice, outer)
    except LatticeError as exc:
        raise NotNestedPrimes(str(exc)) from exc
    if not inner_prime or not outer_prime:
        raise NotNestedPrimes("both sets must be prime ideals")
    if inner.mask == outer.mask or not inner.issubset(outer):
        raise NotNestedPrimes("first prime ideal must lie strictly inside the second")
    three = standard_lattice("chain", 3)
    levels = tuple(
        0 if x in inner else 1 if x in outer else 2 for x in lattice.elements()
    )
    hom = LatticeHomomorphism(lattice, three, levels)
    if not is_homomorphism(hom) or not is_surjective(hom):
        raise HomomorphismCheckFailed("three-level map failed verification")
    return hom


def _check(holds: bool, message: str) -> None:
    if not holds:
        raise HomomorphismCheckFailed(message)


def witness_from_noncomplemented(lattice: FiniteLattice, a: int) -> NonComplementedWitness:
    """Build and verify the filter/ideal chain showing condition c1.

    Requires a d-lattice and an element with no complement.  The seed
    filter is the up-set of its meet s, and the maximal filter is ↑p for
    the least atom p below s; a seed that is the whole lattice has no
    such atom and means an internal bug.  Every witness invariant is
    re-checked before returning.
    """
    if not is_d_lattice(lattice):
        raise NotDLattice("witness construction is defined on d-lattices only")
    blockers = annihilator_filter(lattice, a)
    killers = annihilator_ideal(lattice, a)
    if blockers.mask & killers.mask:
        raise HasComplement(f"element {a} has a complement")

    n, down = lattice.size, lattice.down_masks
    full = (1 << n) - 1
    seed = filter_generated_by(lattice, blockers.with_element(a))
    below = down[_fold(lattice.meet, seed.mask)]
    atom = next((x for x in range(n) if below >> x & 1 and down[x].bit_count() == 2), None)
    if atom is None:
        raise HomomorphismCheckFailed("seed filter is the whole lattice")
    maximal = ElementSet(n, lattice.up_masks[atom])
    residual = maximal.complement()
    extended = ideal_generated_by(lattice, residual.with_element(a))

    _check(seed.isdisjoint(killers), "seed filter meets the annihilator ideal")
    _check(is_maximal_filter(lattice, maximal), "greedy extension is not maximal")
    _check(is_ideal(lattice, residual), "complement of the maximal filter is not an ideal")
    _check(extended.mask != full, "extended ideal is improper")
    _check(
        residual.issubset(extended) and residual.mask != extended.mask,
        "extended ideal does not strictly contain the residual",
    )
    _check(extended.isdisjoint(blockers), "extended ideal meets the annihilator filter")
    _check(not is_maximal_ideal(lattice, residual), "residual ideal is maximal")
    return NonComplementedWitness(
        element=a,
        seed_filter=seed,
        maximal_filter=maximal,
        residual_ideal=residual,
        extended_ideal=extended,
    )


def verify_theorem(lattice: FiniteLattice) -> TheoremVerdict:
    """Check the seven-way equivalence plus balanced ⇔ complemented.

    On a d-lattice the verdict fails iff any two conditions differ or
    the balanced/complemented booleans split; off-scope lattices pass
    vacuously with an explicit scope marker.
    """
    facts = _Facts(lattice)
    seven = facts.seven
    balanced, complemented = not seven.c6, not seven.c7
    if not facts.d_lattice:
        return TheoremVerdict("not-a-d-lattice", True, seven, balanced, complemented)
    passed = seven.all_equal() and (balanced == complemented)
    return TheoremVerdict("d-lattice", passed, seven, balanced, complemented)


def classify(lattice: FiniteLattice) -> PropertyReport:
    """Aggregate every predicate, count, and least witness for one lattice."""
    return _Facts(lattice).report()
