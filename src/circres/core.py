"""Clauses, CNF formulas, their evaluation, and brute-force semantic oracles.

Variables are dense positive integers.  A literal is a nonzero signed
integer, ``v`` for ``x_v`` and ``-v`` for ``~x_v``; a clause is a sorted,
duplicate-free tuple of literals, ordered by variable with the positive
phase first (:func:`literal_key`, the one canonical order of the package).
Tautological clauses (containing some ``x`` together with ``~x``) are legal
first-class values and carry a queryable flag, since elementary tautologies
``x | ~x`` arise as rule consequents.  The empty clause is a valid clause of
width 0 and is false under every assignment.  A truth assignment is a plain
mapping from each variable to 0 or 1.

All values here are immutable after construction and all operations are pure.
:class:`Clause`, like the other values built per clause, vertex, term or LP
row, is a ``typing.NamedTuple``: it hashes as the tuple of its fields, so
sets of clauses iterate in a fixed order, and it equals, iterates and orders
like that plain tuple; no set or dict of the package mixes the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

# Exhaustive oracles refuse instances above this many variables.
ORACLE_GUARD = 24


class MalformedLiteralError(ValueError):
    """A literal was 0 or not an integer."""


class IncompleteAssignmentError(KeyError):
    """An assignment did not cover every variable it was asked about."""


class TooLargeError(ValueError):
    """An exhaustive oracle was asked to enumerate too many variables."""


def literal_key(lit: int) -> int:
    """Canonical literal order: by variable, positive phase first.

    Clauses sort their literals by it, and polynomial monomials their twin
    variables (token ``+i`` for ``X_i`` before ``-i`` for ``Xb_i``).
    """
    return 2 * lit if lit > 0 else 1 - 2 * lit


def clause_mask(literals: Iterable[int]) -> int:
    """The bit mask of distinct literals: bit ``literal_key(l)`` for each, so
    bit ``2v`` is ``x_v``, bit ``2v + 1`` is ``~x_v``, and the bits read from
    low to high are the literals in canonical order."""
    return sum([1 << literal_key(l) for l in literals])


def positive_mask(num_vars: int) -> int:
    """The mask of ``x_1 .. x_num_vars``: every even bit from 2 to ``2 * num_vars``."""
    return (1 << 2 * num_vars + 2) // 3 - 1


# Literals of the bits below 512, made once for decoded clauses to share.
_LITERALS = tuple(-(b >> 1) if b & 1 else b >> 1 for b in range(512))


def mask_literals(mask: int) -> tuple[int, ...]:
    """The literals of ``mask`` in canonical order, for a mask of any size:
    ``Clause(mask_literals(m))`` is the clause of mask ``m``."""
    lits = []
    while mask:
        b = mask.bit_length() - 1
        lits.append(_LITERALS[b] if b < 512 else -(b >> 1) if b & 1 else b >> 1)
        mask ^= 1 << b
    lits.reverse()
    return tuple(lits)


def _literal_str(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"~x{-lit}"


class Clause(NamedTuple):
    """A disjunction of literals: a tuple of signed variables, deduplicated
    and sorted by :func:`literal_key`.

    Construct through :meth:`from_signed` (or :meth:`from_ints`), which
    enforces the canonical form.  Complementary pairs are retained, so a
    clause may be tautological.
    """

    literals: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.literals)

    @property
    def is_empty(self) -> bool:
        return not self.literals

    @property
    def is_tautological(self) -> bool:
        return len(self.variables()) < len(self.literals)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(lit) for lit in self.literals)

    def signed(self) -> frozenset[int]:
        """The clause as a frozenset of signed integers."""
        return frozenset(self.literals)

    def with_literal(self, lit: int) -> "Clause":
        return Clause.from_signed((*self.literals, lit))

    @staticmethod
    def from_ints(*ints: int) -> "Clause":
        return Clause.from_signed(ints)

    @staticmethod
    def from_signed(ints: Iterable[int]) -> "Clause":
        """The canonical clause of the signed variables ``ints``.

        Duplicates collapse; complementary pairs are kept, so the result may
        be tautological.  An empty iterable yields the empty clause.
        """
        lits = set(ints)
        for lit in lits:
            if type(lit) is not int or not lit:
                raise MalformedLiteralError(f"not a literal: {lit!r}")
        return Clause(tuple(sorted(lits, key=literal_key)))

    def __str__(self) -> str:
        if not self.literals:
            return "_|_"
        return " | ".join(map(_literal_str, self.literals))


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables ``1..num_variables``."""

    num_variables: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for lit in clause.literals:
                if abs(lit) > self.num_variables:
                    raise MalformedLiteralError(
                        f"literal {_literal_str(lit)} exceeds declared variable count "
                        f"{self.num_variables}"
                    )

    @staticmethod
    def of(num_variables: int, clauses: Iterable[Clause]) -> "CnfFormula":
        return CnfFormula(num_variables, tuple(clauses))


def evaluate(clause: Clause, alpha: Mapping[int, int]) -> bool:
    """True iff some literal of ``clause`` is satisfied under ``alpha``, a
    map from each variable to 0 or 1; the empty clause is false."""
    for lit in clause.literals:
        try:
            value = alpha[abs(lit)]
        except KeyError:
            raise IncompleteAssignmentError(
                f"assignment does not cover variable {abs(lit)}"
            ) from None
        if bool(value) == (lit > 0):
            return True
    return False


def all_assignments(num_variables: int) -> Iterator[dict[int, int]]:
    """Every map from ``1..num_variables`` to 0 or 1, in lexicographic order."""
    for bits in itertools.product((0, 1), repeat=num_variables):
        yield dict(enumerate(bits, 1))


def implies_oracle(hypotheses: CnfFormula, goal: Clause) -> bool:
    """Exhaustively test whether every model of ``hypotheses`` satisfies ``goal``.

    Enumerates all assignments over the formula's variables, so it refuses
    instances above :data:`ORACLE_GUARD` variables.
    """
    num_vars = max(
        hypotheses.num_variables,
        max((v for v in goal.variables()), default=0),
    )
    if num_vars > ORACLE_GUARD:
        raise TooLargeError(f"{num_vars} variables exceed oracle guard of {ORACLE_GUARD}")
    for alpha in all_assignments(num_vars):
        if all(evaluate(c, alpha) for c in hypotheses.clauses) and not evaluate(goal, alpha):
            return False
    return True
