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

* A program is built whole: ``LinearProgram(num_vars, rows, lower)``
  takes every row as a :class:`Constraint` with integer coefficients in
  increasing variable order, none zero, and an integer right-hand side, so
  ``lp.rows`` is the tableau's ``A`` and ``b`` and a certificate refers to
  those rows.  The constructor checks, once, every variable index and that
  every right-hand side and bound is an integer; a rational program is
  scaled to integers by its caller.
* A variable with a declared lower bound ``x_j >= l`` (``lower[j] = l``)
  is substituted as ``x_j = l + x'_j`` with ``x'_j >= 0``; every row of
  ``lp.rows`` is a tableau row, a one-entry row included.  Undeclared
  variables are free and are split into differences of nonnegatives.
* The tableau keeps only its surplus block.  It starts as ``[-A | I]`` and
  pivots are row operations, so it is ``M [-A | I]`` with ``M = den * B^-1``
  for the basis ``B``; each row of ``M`` is a ``{row index: int}`` dict,
  kept beside the basic values, the basis and ``den``.  A pivot recomputes
  from ``lp.rows`` the leaving row's structural entries, to pick its column,
  and the entering column, to find the rows to update, then applies one
  integer row operation to ``M`` alone, so nothing fills in.  It changes the
  entering column's rows, and every row when ``den`` changes.  Each entry the
  walk reads is the full tableau's integer, so the walk, ``den``, the point
  and the certificate are the full tableau's.
* The leaving row's structural entries ``s = M[r] . A`` are summed as one
  big integer with a lane of ``bits`` bits per variable.  The first time row
  ``t`` of ``lp.rows`` is read it is packed into one integer, entry ``a`` of
  ``x_j`` as ``a << bits * j``, and kept for the walk; ``s`` is
  ``sum(M[r][t] * packed[t])``, one multiply-add per entry of ``M[r]``.
  Lanes start at 8 bits.  Before any row is packed for the sum, the bound
  ``sum(|M[r][t]| * max|A_t|)`` on every ``|s[j]|`` is read off the rows'
  heights; when it reaches ``2^(bits-2)``, ``bits`` doubles and the packed
  rows are dropped, so each lane holds its entry exactly and each row is
  packed once per width it is summed at; rows packed at a width that stays
  are kept.  Adding ``2^(bits-1) - 1`` and ``2^(bits-1)``
  to every lane sets a lane's top bit when its entry is positive and when
  it is nonnegative (read only for a free variable's - column, so not at
  all when every variable is bounded), so a few whole-integer masks mark
  the eligible lanes, and their lowest set bit is the least eligible
  column.
* The violated rows are kept in a set and in a heap of ``(basis index,
  row)`` pairs, one pushed whenever a row becomes violated; ``run`` drops a
  stale pair when it reaches the top, so the leaving row is the
  least-index violated row without a scan of the set.
* The entering column visits only the rows that share a row index with it:
  ``where[t]`` is the set of rows ``i`` with ``M[i][t] != 0``, built at the
  first structural pivot and kept in step by the row operation.
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

import heapq
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

_ZERO = Fraction(0)  # every zero entry of a returned point or certificate


class Constraint(NamedTuple):
    """Sparse integer row ``sum(coeffs[j] * x_j) >= rhs``."""

    coeffs: tuple[tuple[int, int], ...]
    rhs: int


@dataclass(frozen=True)
class LinearProgram:
    """A ``>=`` system over ``num_vars`` rational variables, built whole.

    Each row of ``rows`` lists its integer coefficients in increasing
    variable order, none zero; ``lower`` maps each variable with a declared
    lower bound to that integer, and every other variable is free.  The
    coefficients are taken as given.  The variable indices are checked, and
    a right-hand side or bound that is not an integer (a ``Fraction`` among
    them) is a ``TypeError``."""

    num_vars: int
    rows: list[Constraint] = field(default_factory=list)
    lower: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.num_vars
        for row in self.rows:
            operator.index(row.rhs)
        for bound in self.lower.values():
            operator.index(bound)
        indices = [j for row in self.rows for j, _ in row.coeffs]
        indices.extend(self.lower)
        if indices and not (0 <= min(indices) and max(indices) < n):
            bad = next(j for j in indices if not 0 <= j < n)
            raise IndexError(f"variable index {bad} out of range 0..{n - 1}")


class _Tableau:
    """Integer criss-cross tableau that stores only its surplus block.

    Every tableau row is stored negated (``-a . x + s = -b``), so each
    surplus variable starts basic with coefficient +1 and value ``-b``;
    the rows violated at the origin are exactly those with positive shifted
    right-hand side.  ``rows[i]`` maps each row ``t`` of ``lp.rows`` to the
    nonzero ``M[i][t]`` of ``M = den * B^-1``, where ``den`` is the positive
    common denominator of the working state.  ``packed[t]`` is row ``t`` of
    ``lp.rows`` as one integer with a lane of ``bits`` bits per variable, or
    None until it is read at that width, and ``height[t]`` its largest
    ``|coefficient|``, or None until it is first read.
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
        # A (basis index, row) pair for every violated row, and stale pairs.
        self.heap = [(self.basis[i], i) for i in self.negative]
        heapq.heapify(self.heap)
        self.col_var: list[tuple[int, int]] = []  # with first, cols and where, see _first
        self.bits, self.limit = 8, 0  # limit 0: the lane masks are made at first use
        self.packed: list[Optional[int]] = [None] * len(lp.rows)
        self.height: list[Optional[int]] = [None] * len(lp.rows)

    # -- pivoting -------------------------------------------------------------

    def run(self) -> Optional[int]:
        """Criss-cross walk; returns a stuck row index or None when feasible.

        Leaving row: lowest basic index among violated rows; entering: lowest
        column index with a negative entry there.  The least-index rule makes
        the walk finite.
        """
        basis, negative, heap = self.basis, self.negative, self.heap
        while negative:
            k, r = heap[0]
            if r not in negative or basis[r] != k:
                # Stale: the row was repaired (every pivot repairs its row),
                # and may be violated again under another basis index.
                heapq.heappop(heap)
                continue
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
        for s = M[r] . A; lane j of the packed sum holds s[j] (see the module
        docstring).
        """
        height, row = self.height, self.rows[r].items()
        bound = 0
        for t, m in row:
            h = height[t]
            if h is None:
                h = height[t] = max([abs(a) for _, a in self.lp.rows[t].coeffs], default=0)
            bound += abs(m) * h
        if bound >= self.limit:
            self._widen(bound)
        packed, s = self.packed, 0
        for t, m in row:
            p = packed[t]
            if p is None:
                p = self._pack(t)
            s += m * p
        # A lane's top bit: s > 0 in s + 2^(bits-1) - 1, s >= 0 in s + 2^(bits-1).
        positive = eligible = (s + self.below) & self.tops
        if self.free:
            eligible |= self.free & ~(s + self.tops)
        if not eligible:
            return None
        low = eligible & -eligible
        j = low.bit_length() // self.bits - 1
        return self._first(j) + (not positive & low)  # - column if s[j] < 0

    def _pack(self, t: int) -> int:
        bits, packed = self.bits, 0
        for j, a in self.lp.rows[t].coeffs:
            packed += a << bits * j
        self.packed[t] = packed
        return packed

    def _widen(self, bound: int) -> None:
        """Double the lane width until ``bound < 2^(bits-2)``, drop the packed
        rows if it changed, and make the lane masks at the new width."""
        bits = self.bits
        while bound >> bits - 2:
            bits *= 2
        if bits != self.bits:
            self.packed = [None] * len(self.packed)
        self.bits, self.limit = bits, 1 << bits - 2
        # Lanes are whole bytes (bits is 8 times a power of 2), little-endian.
        k, n = bits // 8, self.lp.num_vars
        lanes = bytearray((bytes(k - 1) + b"\x80") * n)
        self.tops = int.from_bytes(lanes, "little")
        self.below = self.tops - int.from_bytes((b"\x01" + bytes(k - 1)) * n, "little")
        for j in self.lb:
            lanes[k * j + k - 1] = 0
        self.free = int.from_bytes(lanes, "little")

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
        xbr, items = xb[r], list(rowr.items())
        # M'[i] = (piv * M[i] - col[i] * M[r]) // den, exact as M' is integral.
        for i, v in col.items():
            row = rows[i]
            if piv != den:
                for t, a in row.items():
                    if t not in rowr:
                        row[t] = piv * a // den
            for t, mrt in items:
                # A fill is nonzero, and a zero cancels a stored entry.
                if t not in row:
                    row[t] = -mrt * v // den
                    where[t].add(i)
                elif new := (piv * row[t] - mrt * v) // den:
                    row[t] = new
                else:
                    del row[t]
                    where[t].discard(i)
            xb[i] = (piv * xb[i] - v * xbr) // den
            self._note(i)
        if piv != den:
            # The rows the column misses are scaled; each xb keeps its sign.
            for i, row in enumerate(rows):
                if i != r and i not in col:
                    rows[i] = {t: piv * a // den for t, a in row.items()}
                    xb[i] = piv * xb[i] // den
            self.den = piv
        self.basis[r] = c
        self._note(r)

    def _note(self, i: int) -> None:
        if self.xb[i] >= 0:
            self.negative.discard(i)
        elif i not in self.negative:
            self.negative.add(i)
            heapq.heappush(self.heap, (self.basis[i], i))

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
