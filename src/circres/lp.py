"""Exact-rational linear feasibility with certificates.

The solver handles systems of ``>=`` constraints over rational variables,
each free or bounded below by a declared integer, and answers feasibility
exactly, with no floating point and no tolerances anywhere.  Infeasible
systems come with a certificate: a nonnegative combination of the
constraints and the declared bounds that cancels every variable and leaves a
positive right-hand side (the inequality ``0 >= 1`` after scaling).

Method: the least-index criss-cross pivot rule on a sparse integer tableau.
Starting from the all-surplus basis, the row carrying the lowest-index
violated basic variable is repaired by pivoting in the lowest-index column
that can fix it; the walk visits infeasible bases directly, needs no
objective, no artificial variables and no ratio test, and the least-index
rule makes it finite.  A violated row with no eligible column is itself the
infeasibility certificate.  Feasibility programs of flow-balance type are
enormously degenerate, and this violation-chasing rule assembles their
witnesses dramatically faster than objective-driven phase-1 pivoting.

Implementation notes, none of which change the results:

* Rows are integers from :meth:`LinearProgram.add_geq` on: it stores an
  integer row as given and multiplies a rational row once by the lcm of its
  denominators, so ``lp.rows`` and any certificate refer to the scaled rows.
* A variable with a declared lower bound ``x_j >= l`` (from
  :meth:`LinearProgram.add_lower`) is substituted as ``x_j = l + x'_j`` with
  ``x'_j >= 0``; every row of ``lp.rows`` is a tableau row, a one-entry row
  included.  Undeclared variables are free and are split into differences
  of nonnegatives.
* The tableau is stored row-major: each row is a ``{column: int}`` dict of
  its nonbasic entries.  A pivot reads its entering column off the leaving
  row, pops the pivot column from the rows that hold it, and updates just
  those rows against the pivot row.
* All arithmetic is integer-preserving: tableau and basic values are
  integers over one common positive denominator ``den``, and every pivot
  divides exactly.  The exact rechecks stay in integers too: a point passes
  when ``sum(c * X_j) >= rhs * den`` for every row, ``X`` its numerators,
  and a certificate's cancellation and positive right-hand side are summed
  over ``den`` as well.  Rationals only appear in the returned values.
* A :class:`Constraint` is a named tuple (see :mod:`circres.core`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional


class Constraint(NamedTuple):
    """Sparse integer row ``sum(coeffs[j] * x_j) >= rhs``."""

    coeffs: tuple[tuple[int, int], ...]
    rhs: int


@dataclass
class LinearProgram:
    """A ``>=`` system over ``num_vars`` rational variables; ``lower`` maps
    each variable with a declared lower bound to that integer, and every
    other variable is free."""

    num_vars: int
    rows: list[Constraint] = field(default_factory=list)
    lower: dict[int, int] = field(default_factory=dict)

    def add_geq(self, coeffs: Mapping[int, Fraction | int], rhs: Fraction | int = 0) -> None:
        """Append ``sum(coeffs[j] * x_j) >= rhs``, scaled to integers by the
        lcm of its denominators (an integer row is stored as given)."""
        items = sorted([(j, c) for j, c in coeffs.items() if c])
        if items and not (0 <= items[0][0] and items[-1][0] < self.num_vars):
            self._check(next(j for j, _ in items if not 0 <= j < self.num_vars))
        if type(rhs) is not int or not all([type(c) is int for _, c in items]):
            scale = math.lcm(rhs.denominator, *(c.denominator for _, c in items))
            items = [(j, int(c * scale)) for j, c in items]
            rhs = int(rhs * scale)
        self.rows.append(Constraint(tuple(items), rhs))

    def add_lower(self, j: int, bound: int) -> None:
        """Declare ``x_j >= bound`` for an integer ``bound``; declaring a bound
        on ``x_j`` again replaces it."""
        self._check(j)
        self.lower[j] = operator.index(bound)

    def _check(self, j: int) -> None:
        if not 0 <= j < self.num_vars:
            raise IndexError(f"variable index {j} out of range 0..{self.num_vars - 1}")


class _Tableau:
    """Sparse integer criss-cross tableau, stored row by row.

    Every tableau row is stored negated (``-a . x + s = -b``), so each
    surplus variable starts basic with coefficient +1 and value ``-b``;
    the rows violated at the origin are exactly those with positive shifted
    right-hand side.  ``rows[i]`` maps each nonbasic column to its scaled
    entry in row ``i`` (the basic variable's entry there is ``den``), and
    ``den`` is the positive common denominator of the working state.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        self.lb = lp.lower

        # Structural columns: one per lower-bounded variable, a +/- pair per
        # free variable; then one surplus column per tableau row.
        self.col_var: list[tuple[int, int]] = []
        first: list[int] = []
        for j in range(lp.num_vars):
            first.append(len(self.col_var))
            self.col_var.append((j, +1))
            if j not in self.lb:
                self.col_var.append((j, -1))
        self.n_struct = len(self.col_var)

        self.den = 1
        self.xb: list[int] = []
        self.basis: list[int] = []
        self.rows: list[dict[int, int]] = []
        for i, row in enumerate(lp.rows):
            shift = sum(a * self.lb[j] for j, a in row.coeffs if j in self.lb)
            self.xb.append(shift - row.rhs)
            self.basis.append(self.n_struct + i)
            entries: dict[int, int] = {}
            for j, a in row.coeffs:
                if a:
                    entries[first[j]] = -a
                    if j not in self.lb:
                        entries[first[j] + 1] = a
            self.rows.append(entries)
        self.negative = {i for i, v in enumerate(self.xb) if v < 0}

    # -- pivoting -------------------------------------------------------------

    def run(self) -> Optional[int]:
        """Criss-cross walk; returns a stuck row index or None when feasible.

        Leaving row: lowest basic index among violated rows; entering: lowest
        column index with a negative entry there.  The least-index rule makes
        the walk finite.
        """
        basis = self.basis
        while self.negative:
            r = min(self.negative, key=basis.__getitem__)
            eligible = [j for j, a in self.rows[r].items() if a < 0]
            if not eligible:
                return r
            self._pivot(r, min(eligible))
        return None

    def _pivot(self, r: int, c: int) -> None:
        den = self.den
        rows, xb = self.rows, self.xb
        rowr = rows[r]
        piv = rowr.pop(c)
        sigma = 1
        if piv < 0:
            # Re-sign row r so the pivot element is positive.  This silently
            # negates the unit column of the variable currently basic there,
            # which is about to leave; its new entries carry sigma to match.
            sigma = -1
            piv = -piv
            for j in rowr:
                rowr[j] = -rowr[j]
            xb[r] = -xb[r]
        xbr = xb[r]

        updates = [(i, v) for i, row in enumerate(rows) if (v := row.pop(c, 0))]
        if piv == den:
            unit = den == 1
            items = list(rowr.items())
            for i, v in updates:
                row = rows[i]
                get = row.get
                for j, trj in items:
                    # trj * v is nonzero, so a zero result was a stored entry.
                    new = get(j, 0) - (trj * v if unit else (trj * v) // den)
                    if new:
                        row[j] = new
                    else:
                        del row[j]
                if xbr:
                    xb[i] -= v * xbr if unit else (v * xbr) // den
                    self._note(i)
        else:
            col = dict(updates)
            for i, row in enumerate(rows):
                if i == r:
                    continue
                v = col.get(i)
                if v is None:
                    rows[i] = {j: (piv * a) // den for j, a in row.items()}
                    xb[i] = (piv * xb[i]) // den
                else:
                    scaled = {j: piv * a for j, a in row.items()}
                    for j, trj in rowr.items():
                        scaled[j] = scaled.get(j, 0) - trj * v
                    rows[i] = {j: a // den for j, a in scaled.items() if a}
                    xb[i] = (piv * xb[i] - v * xbr) // den
                self._note(i)
            self.den = piv

        # The leaving variable's column materializes from the direction.
        old = self.basis[r]
        for i, v in updates:
            rows[i][old] = -sigma * v
        rowr[old] = sigma * den
        self.basis[r] = c
        self._note(r)

    def _note(self, i: int) -> None:
        if self.xb[i] < 0:
            self.negative.add(i)
        else:
            self.negative.discard(i)

    # -- results ---------------------------------------------------------------

    def point(self) -> list[int]:
        """The basic point's numerators over ``den``."""
        x = [self.lb.get(j, 0) * self.den for j in range(self.lp.num_vars)]
        for i, col in enumerate(self.basis):
            if col < self.n_struct and self.xb[i]:
                j, part = self.col_var[col]
                x[j] += part * self.xb[i]
        return x

    def certificate(self, r: int) -> list[Fraction]:
        """Farkas multipliers from a violated row with no eligible column.

        Row ``r`` of the current combination matrix is row ``r``'s entries
        in the columns of the initial surplus variables (``den`` for the one
        basic there); they are nonnegative exactly because the row is stuck.
        The rows' combination leaves a residual of at most zero on each
        bounded variable and of zero on each free one; the bound multipliers
        pay the residuals off.  Multipliers are integers over ``den`` until
        they are returned.
        """
        lp, lb = self.lp, self.lb
        lam = [0] * len(lp.rows)
        entries = dict(self.rows[r])
        entries[self.basis[r]] = self.den
        for col, entry in entries.items():
            if col >= self.n_struct:
                if entry < 0:
                    raise AssertionError("negative multiplier on a stuck row")
                lam[col - self.n_struct] = entry
        residual = [0] * lp.num_vars
        for v, row in zip(lam, lp.rows):
            if v:
                for j, c in row.coeffs:
                    residual[j] += v * c
        if any(rem and j not in lb for j, rem in enumerate(residual)):
            raise AssertionError("free variable does not cancel in certificate")
        bounded = sorted(lb)
        mu = [-residual[j] for j in bounded]
        if any(m < 0 for m in mu):
            raise AssertionError("shifted variable has positive residual")
        value = sum(v * row.rhs for v, row in zip(lam, lp.rows))
        value += sum(m * lb[j] for m, j in zip(mu, bounded))
        if value <= 0:
            raise AssertionError("certificate does not witness infeasibility")
        return [Fraction(v, self.den) for v in lam + mu]


def _solve(lp: LinearProgram):
    tab = _Tableau(lp)
    stuck = tab.run()
    if stuck is not None:
        return None, tab.certificate(stuck)
    x, den = tab.point(), tab.den
    for row in lp.rows:
        if sum(c * x[j] for j, c in row.coeffs) < row.rhs * den:
            raise AssertionError("candidate point fails exact recheck")
    if any(x[j] < bound * den for j, bound in lp.lower.items()):
        raise AssertionError("candidate point fails exact recheck of a bound")
    return [Fraction(v, den) for v in x], None


def feasible(lp: LinearProgram) -> Optional[list[Fraction]]:
    """A rational point satisfying every constraint exactly, or ``None``."""
    x, _ = _solve(lp)
    return x


def farkas_certificate(lp: LinearProgram) -> Optional[list[Fraction]]:
    """Nonnegative multipliers combining the rows and the declared bounds to
    ``0 >= positive``, or ``None``.

    The returned list holds one multiplier per row of ``lp.rows``, in order,
    then one per declared bound ``x_j >= lp.lower[j]``, in increasing ``j``;
    it is ``None`` exactly when the program is feasible.
    """
    _, cert = _solve(lp)
    return cert
