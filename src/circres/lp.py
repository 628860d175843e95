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
* The tableau keeps only its surplus block.  It starts as ``[-A | I]`` and
  pivots are row operations, so it is ``M [-A | I]`` with ``M = den * B^-1``
  for the basis ``B``; each row of ``M`` is a ``{row index: int}`` dict,
  kept beside the basic values, the basis and ``den``.  A pivot recomputes
  from ``lp.rows`` the leaving row's structural entries, to pick its column,
  and the entering column, to find the rows to update, then applies the
  integer row operation to ``M`` alone, so nothing fills in.  Each entry the
  walk reads is the full tableau's integer, so the walk, ``den``, the point
  and the certificate are the full tableau's.
* The leaving row's structural entries ``s = M[r] . A`` are summed as big
  integers, 64 variables to a block.  The first time row ``t`` of
  ``lp.rows`` is read it is packed into a ``{block: int}`` map, entry ``a``
  of ``x_j`` as ``a << bits * (j % 64)``, and kept for the walk; block ``b``
  of ``s`` is ``sum(M[r][t] * packed[t][b])``, one step per block of each
  row rather than one per nonzero.  Lanes start at 8 bits.  When
  ``sum(|M[r][t]| * max|A_t|)``, a bound on every ``|s[j]|``, reaches
  ``2^(bits-2)``, ``bits`` doubles and the packed rows are dropped, so each
  lane holds its entry exactly.  Adding ``2^(bits-1) - 1`` and ``2^(bits-1)``
  to every lane sets a lane's top bit when its entry is positive and when it
  is nonnegative, so a few masks mark the eligible lanes, and the lowest set
  bit of the first nonzero mask, blocks read in ascending order, is the
  least eligible column.
* The entering column visits only the rows that share a row index with it:
  ``where[t]`` is the set of rows ``i`` with ``M[i][t] != 0``, built at the
  first structural pivot and kept in step by both row operations.
* All arithmetic is integer-preserving: tableau and basic values are
  integers over one common positive denominator ``den``, and every pivot
  divides exactly.  The exact rechecks stay in integers too: a point passes
  when ``sum(c * X_j) >= rhs * den`` for every row, ``X`` its numerators,
  and a certificate's cancellation and positive right-hand side are summed
  over ``den`` as well.  Rationals only appear in the returned values:
  one ``Fraction`` per nonzero entry, and every zero entry is the one
  shared ``Fraction(0)``.
* A :class:`Constraint` is a named tuple.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

_ZERO = Fraction(0)  # every zero entry of a returned point or certificate


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
    """Integer criss-cross tableau that stores only its surplus block.

    Every tableau row is stored negated (``-a . x + s = -b``), so each
    surplus variable starts basic with coefficient +1 and value ``-b``;
    the rows violated at the origin are exactly those with positive shifted
    right-hand side.  ``rows[i]`` maps each row ``t`` of ``lp.rows`` to the
    nonzero ``M[i][t]`` of ``M = den * B^-1``, where ``den`` is the positive
    common denominator of the working state.  ``packed`` holds the rows of
    ``lp.rows`` read so far as ``{block: int}`` maps at lanes of ``bits``
    bits, and ``height`` each one's largest ``|coefficient|``.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        self.lb = lb = lp.lower
        # Structural columns: one per lower-bounded variable, a +/- pair per
        # free variable; then one surplus column per tableau row.
        self.n_struct = 2 * lp.num_vars - len(lb)
        self.den = 1
        self.xb = [sum([a * lb[j] for j, a in row.coeffs if j in lb]) - row.rhs
                   for row in lp.rows]
        self.basis = list(range(self.n_struct, self.n_struct + len(lp.rows)))
        self.rows = [{i: 1} for i in range(len(lp.rows))]
        self.negative = {i for i, v in enumerate(self.xb) if v < 0}
        self.col_var: list[tuple[int, int]] = []  # with first, cols and where, see _first
        self.bits, self.limit = 8, 0  # limit 0: the lane masks are made at first use
        self.packed: dict[int, dict[int, int]] = {}
        self.height: dict[int, int] = {}

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
            # Every structural column comes before every surplus one.
            c = self._structural(r)
            if c is not None:
                self._pivot(r, c)
                continue
            t = min([t for t, m in self.rows[r].items() if m < 0], default=None)
            if t is None:
                return r
            self._pivot(r, self.n_struct + t)
        return None

    def _structural(self, r: int) -> Optional[int]:
        """Least structural column with a negative entry in row ``r``, or None.

        Row r's entries are -s[j] in x_j's + column and s[j] in its - column,
        for s = M[r] . A; lane k of block b holds s[64 b + k] (see the module
        docstring).
        """
        packed, height = self.packed, self.height
        acc: dict[int, int] = {}
        get, bound = acc.get, 0
        for t, m in self.rows[r].items():
            blocks = packed.get(t) or self._pack(t)
            bound += abs(m) * height[t]
            for b, p in blocks.items():
                acc[b] = get(b, 0) + m * p
        if bound >= self.limit:
            self._widen(bound)
            return self._structural(r)
        tops, below, free = self.tops, self.below, self.free
        for b in sorted(acc):
            s = acc[b]
            # A lane's top bit: s > 0 in s + 2^(bits-1) - 1, s >= 0 in s + 2^(bits-1).
            positive = (s + below) & tops
            eligible = positive | (free.get(b, 0) & ~(s + tops))
            if eligible:
                low = eligible & -eligible
                j = 64 * b + low.bit_length() // self.bits - 1
                return self._first(j) + (not positive & low)  # - column if s[j] < 0
        return None

    def _pack(self, t: int) -> dict[int, int]:
        blocks: dict[int, int] = {}
        bits, height = self.bits, 0
        for j, a in self.lp.rows[t].coeffs:
            b, k = divmod(j, 64)
            blocks[b] = blocks.get(b, 0) + (a << bits * k)
            height = max(height, abs(a))
        self.packed[t], self.height[t] = blocks, height
        return blocks

    def _widen(self, bound: int) -> None:
        """Double the lane width until ``bound < 2^(bits-2)``, and drop the
        packed rows, which were packed at the old width."""
        bits = self.bits
        while bound >> bits - 2:
            bits *= 2
        self.bits, self.limit = bits, 1 << bits - 2
        self.packed.clear()
        ones = sum(1 << bits * k for k in range(64))
        self.tops = ones << bits - 1
        self.below = self.tops - ones
        self.free: dict[int, int] = {}
        for j in range(self.lp.num_vars):
            if j not in self.lb:
                b, k = divmod(j, 64)
                self.free[b] = self.free.get(b, 0) | 1 << bits * k + bits - 1

    def _first(self, j: int) -> int:
        """Column of ``x_j``'s + part; the maps are built at the first use,
        which precedes every row operation: M starts as I, so the first
        pivot is structural."""
        if not self.col_var:
            lp = self.lp
            self.col_var = [(k, part) for k in range(lp.num_vars)
                            for part in ((1,) if k in self.lb else (1, -1))]
            self.first = [k for k, (_, part) in enumerate(self.col_var) if part > 0]
            self.cols: list[dict[int, int]] = [{} for _ in range(lp.num_vars)]
            for t, row in enumerate(lp.rows):
                for k, a in row.coeffs:
                    self.cols[k][t] = a
            self.where = [{t} for t in range(len(lp.rows))]  # of M = I
        return self.first[j]

    def _pivot(self, r: int, c: int) -> None:
        den = self.den
        rows, xb, where = self.rows, self.xb, self.where
        # The entering column: a surplus column is a column of M, and the
        # column of x_j's part is -part * M . A[:, j].
        if c >= self.n_struct:
            t = c - self.n_struct
            col = {i: rows[i][t] for i in where[t]}
        else:
            j, part = self.col_var[c]
            col = {}
            get = col.get
            for t, a in self.cols[j].items():
                a *= -part
                for i in where[t]:
                    col[i] = get(i, 0) + a * rows[i][t]
            col = {i: v for i, v in col.items() if v}
        rowr, piv = rows[r], col.pop(r)
        if piv < 0:
            # Re-sign row r so the pivot element is positive.
            rows[r] = rowr = {t: -m for t, m in rowr.items()}
            piv, xb[r] = -piv, -xb[r]
        xbr = xb[r]

        if piv == den:
            unit = den == 1
            items = list(rowr.items())
            for i, v in col.items():
                row = rows[i]
                for t, mrt in items:
                    d = mrt * v if unit else (mrt * v) // den
                    # d != 0: a fill is nonzero, and a zero cancels a stored entry.
                    if t not in row:
                        row[t] = -d
                        where[t].add(i)
                    elif new := row[t] - d:
                        row[t] = new
                    else:
                        del row[t]
                        where[t].discard(i)
                if xbr:
                    xb[i] -= v * xbr if unit else (v * xbr) // den
                    self._note(i)
        else:
            for i, row in enumerate(rows):
                if i == r:
                    continue
                if v := col.get(i, 0):
                    scaled = {t: piv * a for t, a in row.items()}
                    for t, mrt in rowr.items():
                        if t in scaled:
                            scaled[t] -= mrt * v
                        else:
                            scaled[t] = -mrt * v
                            where[t].add(i)
                    rows[i] = row = {t: a // den for t, a in scaled.items() if a}
                    if len(row) < len(scaled):
                        for t in rowr:
                            if t not in row:
                                where[t].discard(i)
                else:
                    rows[i] = {t: piv * a // den for t, a in row.items()}
                xb[i] = (piv * xb[i] - v * xbr) // den
                self._note(i)
            self.den = piv
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

        Row ``r`` of ``M`` combines the rows of ``lp.rows``; its entries are
        nonnegative exactly because the row is stuck.
        The rows' combination leaves a residual of at most zero on each
        bounded variable and of zero on each free one; the bound multipliers
        pay the residuals off.  Multipliers are integers over ``den`` until
        they are returned.
        """
        lp, lb = self.lp, self.lb
        lam = [0] * len(lp.rows)
        for t, entry in self.rows[r].items():
            if entry < 0:
                raise AssertionError("negative multiplier on a stuck row")
            lam[t] = entry
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
        return [Fraction(v, self.den) if v else _ZERO for v in lam + mu]


def solve(lp: LinearProgram) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]]]:
    """``(point, None)`` or ``(None, certificate)``, from one walk.

    The point satisfies every row and declared bound exactly.  The
    certificate holds nonnegative multipliers combining the rows and the
    declared bounds to ``0 >= positive``: one per row of ``lp.rows``, in
    order, then one per declared bound ``x_j >= lp.lower[j]``, in
    increasing ``j``.
    """
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
    return [Fraction(v, den) if v else _ZERO for v in x], None


def feasible(lp: LinearProgram) -> Optional[list[Fraction]]:
    """The point of :func:`solve`, or ``None`` when the program is infeasible.

    An infeasible program's certificate is still built and checked by
    :func:`solve`, then dropped.  Kept for perfbench, which times the LP as
    the calls to this function and counts a ``None`` as an infeasible call;
    ``flowcheck`` and ``search`` call it so that their solves stay in that
    span.
    """
    return solve(lp)[0]
