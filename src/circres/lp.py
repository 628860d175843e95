"""Exact-rational linear feasibility with certificates.

The solver handles systems of ``>=`` constraints over free rational
variables and answers feasibility exactly, with no floating point and no
tolerances anywhere.  Infeasible systems come with a certificate: a
nonnegative combination of the constraints that cancels every variable and
leaves a positive right-hand side (the inequality ``0 >= 1`` after scaling).

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

* Rows are integers from :meth:`LinearProgram.add_geq` on: it multiplies a
  rational row once by the lcm of its denominators, so ``lp.rows`` and any
  certificate refer to the scaled rows.
* A singleton row ``a * x_j >= r`` with ``a > 0`` dividing ``r`` is a lower
  bound and is eliminated by substituting ``x_j = r/a + x'_j`` with
  ``x'_j >= 0``; any other singleton row stays an ordinary tableau row.
  Remaining free variables are split into differences of nonnegatives.
* All arithmetic is integer-preserving: tableau and basic values are
  integers over one common positive denominator, every pivot divides
  exactly, and rationals only appear when results are read off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence


@dataclass(frozen=True)
class Constraint:
    """Sparse integer row ``sum(coeffs[j] * x_j) >= rhs``."""

    coeffs: tuple[tuple[int, int], ...]
    rhs: int

    def dot(self, x: Sequence[Fraction]) -> Fraction:
        return sum((c * x[j] for j, c in self.coeffs), Fraction(0))


@dataclass
class LinearProgram:
    """A pure ``>=`` system over ``num_vars`` free rational variables."""

    num_vars: int
    rows: list[Constraint] = field(default_factory=list)

    def add_geq(self, coeffs: Mapping[int, Fraction | int], rhs: Fraction | int = 0) -> None:
        """Append ``sum(coeffs[j] * x_j) >= rhs``, scaled to integers by the
        lcm of its denominators (an integer row is stored as given)."""
        items = sorted((j, c) for j, c in coeffs.items() if c != 0)
        for j, _ in items:
            if not 0 <= j < self.num_vars:
                raise IndexError(f"variable index {j} out of range 0..{self.num_vars - 1}")
        scale = math.lcm(rhs.denominator, *(c.denominator for _, c in items))
        self.rows.append(Constraint(
            tuple((j, int(c * scale)) for j, c in items), int(rhs * scale)
        ))


class _Tableau:
    """Sparse integer criss-cross tableau.

    Every tableau row is stored negated (``-a . x + s = -b``), so each
    surplus variable starts basic with coefficient +1 and value ``-b``;
    the rows violated at the origin are exactly those with positive shifted
    right-hand side.  Nonbasic columns are ``{row: scaled value}`` maps and
    ``den`` is the positive common denominator of the working state.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        self.lb, self.lb_row = _bounds(lp)
        skip = set(self.lb_row.values())
        # Global row id per tableau row.
        self.tab_rows = [g for g in range(len(lp.rows)) if g not in skip]

        # Structural columns: one per lower-bounded variable, a +/- pair per
        # free variable; then one surplus column per tableau row.
        self.col_var: list[tuple[int, int]] = []
        self.var_cols: dict[int, tuple[int, ...]] = {}
        for j in range(lp.num_vars):
            if j in self.lb:
                self.var_cols[j] = (len(self.col_var),)
                self.col_var.append((j, +1))
            else:
                self.var_cols[j] = (len(self.col_var), len(self.col_var) + 1)
                self.col_var.append((j, +1))
                self.col_var.append((j, -1))
        self.n_struct = len(self.col_var)
        m = len(self.tab_rows)
        self.m = m

        self.den = 1
        self.xb: list[int] = []
        self.basis: list[int] = []
        self.basic_row: dict[int, int] = {}
        self.cols: dict[int, dict[int, int]] = {}
        self.rowsupp: list[set[int]] = [set() for _ in range(m)]
        for i, g in enumerate(self.tab_rows):
            row = lp.rows[g]
            shift = sum(a * self.lb[j] for j, a in row.coeffs if j in self.lb)
            self.xb.append(shift - row.rhs)
            surplus = self.n_struct + i
            self.basis.append(surplus)
            self.basic_row[surplus] = i
            for j, a in row.coeffs:
                for col in self.var_cols[j]:
                    part = self.col_var[col][1]
                    entry = -a * part
                    if entry:
                        self.cols.setdefault(col, {})[i] = entry
                        self.rowsupp[i].add(col)
        self.negative = {i for i in range(m) if self.xb[i] < 0}

    # -- pivoting -------------------------------------------------------------

    def run(self) -> Optional[int]:
        """Criss-cross walk; returns a stuck row index or None when feasible.

        Leaving row: lowest basic index among violated rows; entering: lowest
        column index with a negative entry there.  The least-index rule makes
        the walk finite.
        """
        basis = self.basis
        cols = self.cols
        while self.negative:
            r = min(self.negative, key=basis.__getitem__)
            entering = -1
            for j in self.rowsupp[r]:
                if cols[j][r] < 0 and (entering < 0 or j < entering):
                    entering = j
            if entering < 0:
                return r
            self._pivot(r, entering)
        return None

    def _pivot(self, r: int, c: int) -> None:
        den = self.den
        sigma = 1
        if self.cols[c][r] < 0:
            # Re-sign row r so the pivot element is positive.  This silently
            # negates the unit column of the variable currently basic there,
            # which is about to leave; its stored column flips sign to match.
            sigma = -1
            for j in self.rowsupp[r]:
                self.cols[j][r] = -self.cols[j][r]
            self.xb[r] = -self.xb[r]

        colc = self.cols.pop(c)
        for i in colc:
            self.rowsupp[i].discard(c)
        piv = colc[r]
        xbr = self.xb[r]

        touched = list(self.rowsupp[r])
        updates = [(i, v) for i, v in colc.items() if i != r]
        if piv == den:
            rowsupp = self.rowsupp
            unit = den == 1
            for j in touched:
                colj = self.cols[j]
                trj = colj[r]
                get = colj.get
                for i, v in updates:
                    new = get(i, 0) - (trj * v if unit else (trj * v) // den)
                    if new:
                        colj[i] = new
                        rowsupp[i].add(j)
                    elif i in colj:
                        del colj[i]
                        rowsupp[i].discard(j)
            if xbr:
                xb = self.xb
                for i, v in updates:
                    xb[i] -= v * xbr if unit else (v * xbr) // den
                    self._note(i)
        else:
            for j in touched:
                colj = self.cols[j]
                trj = colj[r]
                for i in set(colj) | set(colc):
                    if i == r:
                        continue
                    new = (piv * colj.get(i, 0) - trj * colc.get(i, 0)) // den
                    if new:
                        colj[i] = new
                        self.rowsupp[i].add(j)
                    elif i in colj:
                        del colj[i]
                        self.rowsupp[i].discard(j)
            for j, colj in self.cols.items():
                if r not in colj:
                    for i in list(colj):
                        colj[i] = (piv * colj[i]) // den
            for i in range(self.m):
                if i == r:
                    continue
                v = colc.get(i, 0)
                self.xb[i] = (piv * self.xb[i] - v * xbr) // den
                self._note(i)
            self.den = piv

        # The leaving variable's column materializes from the direction.
        old = self.basis[r]
        stored = {i: -sigma * v for i, v in colc.items() if i != r and v}
        stored[r] = sigma * den
        self.cols[old] = stored
        for i in stored:
            self.rowsupp[i].add(old)

        del self.basic_row[old]
        self.basis[r] = c
        self.basic_row[c] = r
        self._note(r)

    def _note(self, i: int) -> None:
        if self.xb[i] < 0:
            self.negative.add(i)
        else:
            self.negative.discard(i)

    # -- results ---------------------------------------------------------------

    def point(self) -> list[Fraction]:
        x = [Fraction(self.lb.get(j, 0)) for j in range(self.lp.num_vars)]
        for i, col in enumerate(self.basis):
            if col < self.n_struct and self.xb[i]:
                j, part = self.col_var[col]
                x[j] += Fraction(part * self.xb[i], self.den)
        return x

    def certificate(self, r: int) -> list[Fraction]:
        """Farkas multipliers from a violated row with no eligible column.

        Row ``r`` of the current combination matrix is read off the columns
        of the initial surplus variables; their entries at ``r`` are
        nonnegative exactly because the row is stuck.
        """
        full = [Fraction(0)] * len(self.lp.rows)
        lam: dict[int, Fraction] = {}
        for k, g in enumerate(self.tab_rows):
            surplus = self.n_struct + k
            if surplus in self.basic_row:
                entry = self.den if self.basic_row[surplus] == r else 0
            else:
                entry = self.cols[surplus].get(r, 0)
            if entry < 0:
                raise AssertionError("negative multiplier on a stuck row")
            if entry:
                v = Fraction(entry, self.den)
                lam[g] = v
                full[g] = v
        residual: dict[int, Fraction] = {}
        for g, v in lam.items():
            for j, c in self.lp.rows[g].coeffs:
                residual[j] = residual.get(j, Fraction(0)) + v * c
        for j, rem in residual.items():
            if rem == 0:
                continue
            if j not in self.lb:
                raise AssertionError("free variable does not cancel in certificate")
            if rem > 0:
                raise AssertionError("shifted variable has positive residual")
            g = self.lb_row[j]
            a = dict(self.lp.rows[g].coeffs)[j]
            full[g] += -rem / a
        value = sum(
            (full[g] * row.rhs for g, row in enumerate(self.lp.rows)), Fraction(0)
        )
        if value <= 0:
            raise AssertionError("certificate does not witness infeasibility")
        return full


def _bounds(lp: LinearProgram) -> tuple[dict[int, int], dict[int, int]]:
    """Integral lower bounds from singleton rows, and the row giving each."""
    lb: dict[int, int] = {}
    lb_row: dict[int, int] = {}
    for g, row in enumerate(lp.rows):
        if len(row.coeffs) == 1:
            j, a = row.coeffs[0]
            if a > 0 and row.rhs % a == 0:
                bound = row.rhs // a
                if j not in lb or bound > lb[j]:
                    lb[j] = bound
                    lb_row[j] = g
    return lb, lb_row


def _solve(lp: LinearProgram):
    tab = _Tableau(lp)
    stuck = tab.run()
    if stuck is not None:
        return None, tab.certificate(stuck)
    x = tab.point()
    for row in lp.rows:
        if row.dot(x) < row.rhs:
            raise AssertionError("candidate point fails exact recheck")
    return x, None


def feasible(lp: LinearProgram) -> Optional[list[Fraction]]:
    """A rational point satisfying every constraint exactly, or ``None``."""
    x, _ = _solve(lp)
    return x


def farkas_certificate(lp: LinearProgram) -> Optional[list[Fraction]]:
    """Nonnegative multipliers combining the rows to ``0 >= positive``, or ``None``.

    Returned list aligns with ``lp.rows``; it is ``None`` exactly when the
    program is feasible.
    """
    _, cert = _solve(lp)
    return cert
