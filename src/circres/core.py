"""Clauses, CNF formulas, their evaluation, and brute-force semantic oracles.

Variables are positive integers up to :data:`MAX_VARIABLE`.  A literal is a
nonzero signed integer, ``v`` for ``x_v`` and ``-v`` for ``~x_v``; a clause
is the mask with bit ``literal_key(l)`` set for each literal ``l``, whose
bits read from low to high are its literals in canonical order.  Only
printing, writing and the oracles decode it.  Tautological clauses
(containing some ``x`` together with ``~x``) are legal first-class values,
since elementary tautologies ``x | ~x`` arise as rule consequents.  The
empty clause ``Clause()`` has width 0 and is false under every assignment.
A truth assignment is a plain mapping from each variable to 0 or 1.

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

#: The largest variable of a clause, whose mask then takes 25 MB.
MAX_VARIABLE = 10 ** 8


class MalformedLiteralError(ValueError):
    """A literal was 0, not an integer, or beyond :data:`MAX_VARIABLE`."""


class IncompleteAssignmentError(KeyError):
    """An assignment did not cover every variable it was asked about."""


class TooLargeError(ValueError):
    """An exhaustive oracle was asked to enumerate too many variables."""


def literal_key(lit: int) -> int:
    """Canonical literal order, by variable and positive phase first: the
    bit of ``lit`` in a clause mask (bit ``2v`` is ``x_v``, ``2v + 1`` is
    ``~x_v``), and of twin-variable token ``lit`` in a monomial's."""
    return 2 * lit if lit > 0 else 1 - 2 * lit


def positive_mask(num_vars: int) -> int:
    """The mask of ``x_1 .. x_num_vars``: every even bit from 2 to ``2 * num_vars``."""
    return (1 << 2 * num_vars + 2) // 3 - 1


def mask_literals(mask: int) -> tuple[int, ...]:
    """The literals of ``mask`` in canonical order, for a mask of any size."""
    lits = []
    while mask:
        b = mask.bit_length() - 1
        lits.append(-(b >> 1) if b & 1 else b >> 1)
        mask ^= 1 << b
    lits.reverse()
    return tuple(lits)


def _literal_str(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"~x{-lit}"


class Clause(NamedTuple):
    """A disjunction of literals as their mask (see the module docstring).

    :meth:`from_signed` (or :meth:`from_ints`) builds one from signed
    integers, checking each.  Complementary pairs are retained, so a clause
    may be tautological.
    """

    mask: int = 0

    @property
    def width(self) -> int:
        return self.mask.bit_count()

    @property
    def is_tautological(self) -> bool:
        both = self.mask & self.mask >> 1  # bit 2v: x_v and ~x_v
        return bool(both and both & positive_mask(both.bit_length() >> 1))

    @property
    def literals(self) -> tuple[int, ...]:
        return mask_literals(self.mask)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(lit) for lit in self.literals)

    def signed(self) -> frozenset[int]:
        """The clause as a frozenset of signed integers."""
        return frozenset(self.literals)

    def with_literal(self, lit: int) -> "Clause":
        return Clause(self.mask | Clause.from_signed((lit,)).mask)

    @staticmethod
    def from_ints(*ints: int) -> "Clause":
        return Clause.from_signed(ints)

    @staticmethod
    def from_signed(ints: Iterable[int]) -> "Clause":
        """The clause of the signed variables ``ints``: duplicates collapse,
        complementary pairs are kept.  Raises :class:`MalformedLiteralError`
        on 0, a non-int (bools included) or a variable above
        :data:`MAX_VARIABLE`."""
        mask = 0
        for lit in ints:
            if type(lit) is not int or not 0 < abs(lit) <= MAX_VARIABLE:
                raise MalformedLiteralError(
                    f"variable x{abs(lit)} exceeds the largest variable index {MAX_VARIABLE}"
                    if type(lit) is int and lit else f"not a literal: {lit!r}")
            mask |= 1 << (2 * lit if lit > 0 else 1 - 2 * lit)
        return Clause(mask)

    def __str__(self) -> str:
        if not self.mask:
            return "_|_"
        return " | ".join(map(_literal_str, self.literals))


def clause_set(masks: Iterable[int]) -> set[Clause]:
    """The set of the clauses of ``masks``, made without a Python-level
    ``Clause.__new__`` frame per mask: ``Clause`` has no validation to skip,
    since ``Clause(m)`` only stores ``m``, so ``tuple.__new__`` on ``(m,)``
    makes the same value, equal and hash-equal to ``Clause(m)``, in C."""
    return set(map(tuple.__new__, itertools.repeat(Clause), zip(masks)))


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables ``1..num_variables``."""

    num_variables: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        limit = 2 * self.num_variables + 2  # the first bit beyond x_num_variables
        for clause in self.clauses:
            if clause.mask >> limit:
                lit = mask_literals(clause.mask >> limit << limit)[0]
                raise MalformedLiteralError(
                    f"literal {_literal_str(lit)} exceeds declared variable count "
                    f"{self.num_variables}"
                )

    @staticmethod
    def of(num_variables: int, clauses: Iterable[Clause]) -> "CnfFormula":
        return CnfFormula(num_variables, tuple(clauses))


def _true_mask(alpha: Mapping[int, int]) -> int:
    """The mask of the literals that ``alpha`` makes true."""
    return sum([1 << 2 * v + (not value) for v, value in alpha.items()])


def evaluate(clause: Clause, alpha: Mapping[int, int]) -> bool:
    """True iff some literal of ``clause`` is satisfied under ``alpha``, a
    map from each variable to 0 or 1, which must cover the clause unless it
    satisfies it; the empty clause is false."""
    if clause.mask & _true_mask(alpha):
        return True
    missing = clause.variables() - alpha.keys()
    if missing:
        raise IncompleteAssignmentError(f"assignment does not cover variable {min(missing)}")
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
    num_vars = max(hypotheses.num_variables, max(goal.variables(), default=0))
    if num_vars > ORACLE_GUARD:
        raise TooLargeError(f"{num_vars} variables exceed oracle guard of {ORACLE_GUARD}")
    for alpha in all_assignments(num_vars):
        true = _true_mask(alpha)
        if all(c.mask & true for c in hypotheses.clauses) and not goal.mask & true:
            return False
    return True
