import itertools
import math
import random
from fractions import Fraction

import pytest

from circres.flowcheck import find_witness, integralize
from circres.generators import random_circular_proof
from circres.lp import LinearProgram, farkas_certificate, feasible


def geq(lp, coeffs, rhs=0):
    lp.add_geq(coeffs, rhs)


def test_interval_feasible():
    lp = LinearProgram(1)
    geq(lp, {0: 1}, 1)
    geq(lp, {0: -1}, -2)
    x = feasible(lp)
    assert x is not None and Fraction(1) <= x[0] <= Fraction(2)
    assert farkas_certificate(lp) is None


def test_contradictory_bounds():
    lp = LinearProgram(1)
    geq(lp, {0: 1}, 1)
    geq(lp, {0: -1}, 0)
    assert feasible(lp) is None
    cert = farkas_certificate(lp)
    assert cert == [Fraction(1), Fraction(1)]


def test_empty_program_is_feasible():
    assert feasible(LinearProgram(3)) == [Fraction(0)] * 3


def test_zero_row_infeasible():
    lp = LinearProgram(1)
    geq(lp, {}, 1)
    assert feasible(lp) is None
    assert farkas_certificate(lp) == [Fraction(1)]


def test_add_geq_scales_a_rational_row_to_integers():
    lp = LinearProgram(2)
    geq(lp, {0: Fraction(1, 2), 1: Fraction(2, 3)}, Fraction(1, 4))
    geq(lp, {0: 2, 1: 0}, -1)
    assert [(r.coeffs, r.rhs) for r in lp.rows] == [(((0, 6), (1, 8)), 3), (((0, 2),), -1)]
    for row in lp.rows:
        assert type(row.rhs) is int and all(type(c) is int for _, c in row.coeffs)


def _satisfies(rows, x) -> bool:
    return all(
        sum((c * x[j] for j, c in coeffs.items()), Fraction(0)) >= rhs
        for coeffs, rhs in rows
    )


def test_exactness_of_returned_points():
    rng = random.Random(9)
    for _ in range(200):
        lp = LinearProgram(3)
        drawn = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {
                j: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for j in range(3)
                if rng.random() < 0.8
            }
            drawn.append((coeffs, Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
            geq(lp, *drawn[-1])
        x = feasible(lp)
        if x is None:
            continue
        for row in lp.rows:
            assert row.dot(x) >= row.rhs  # no tolerance anywhere
        assert _satisfies(drawn, x)


# ---------------------------------------------------------------------------
# independent oracle: enumerate candidate vertices of the boxed system

_BOX = Fraction(10 ** 9)


def _vertex_oracle(rows, n: int) -> bool:
    """Feasibility of ``rows``, ``(coeffs, rhs)`` pairs of ``Fraction``s over
    ``n`` variables, by exhaustive vertex enumeration inside a huge box.

    With every variable boxed the polyhedron is a polytope whose vertices
    solve n of the constraints with equality; the box is far beyond any
    basic-solution coordinate for these tiny systems.
    """
    rows = list(rows)
    for j in range(n):
        rows.append(({j: Fraction(1)}, -_BOX))
        rows.append(({j: Fraction(-1)}, -_BOX))

    for subset in itertools.combinations(range(len(rows)), n):
        # Solve the chosen constraints as equalities by Gaussian elimination.
        mat = [[rows[i][0].get(j, Fraction(0)) for j in range(n)] + [rows[i][1]]
               for i in subset]
        x = _gauss(mat, n)
        if x is not None and _satisfies(rows, x):
            return True
    return False


def _gauss(mat, n):
    rows = [row[:] for row in mat]
    where = [-1] * n
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        where[col] = r
        r += 1
    for row in rows:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            return None
    return [rows[where[j]][-1] if where[j] >= 0 else Fraction(0) for j in range(n)]


def _integral_draw(rng, n):
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {}
        for j in range(n):
            if rng.random() < 0.75:
                c = rng.randint(-3, 3)
                if c:
                    coeffs[j] = Fraction(c)
        rows.append((coeffs, Fraction(rng.randint(-3, 3))))
    return rows


def _rational_draw(rng, n):
    """Rational rows plus singleton rows such as ``2x >= 1``: the tableau
    eliminates a singleton row as a bound only when the bound is integral."""
    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {j: q() for j in range(n) if rng.random() < 0.75}
        rows.append(({j: c for j, c in coeffs.items() if c}, q()))
    for _ in range(rng.randint(0, 2)):
        rows.append(({rng.randrange(n): q() or Fraction(2)}, q()))
    return rows


@pytest.mark.parametrize(
    "draw, seed", [(_integral_draw, 17), (_rational_draw, 23)], ids=["integral", "rational"]
)
def test_strong_alternative_against_vertex_oracle(draw, seed):
    rng = random.Random(seed)
    for trial in range(400):
        n = rng.randint(1, 3)
        drawn = draw(rng, n)
        lp = LinearProgram(n)
        for coeffs, rhs in drawn:
            geq(lp, coeffs, rhs)
        # Each stored row is its drawn row times a positive integer, so a
        # certificate on the stored rows is one on the drawn rows.
        for (coeffs, rhs), row in zip(drawn, lp.rows):
            scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
            assert dict(row.coeffs) == {j: c * scale for j, c in coeffs.items()}, trial
            assert row.rhs == rhs * scale, trial
        x = feasible(lp)
        cert = farkas_certificate(lp)
        # exactly one of the two answers
        assert (x is None) != (cert is None), trial
        assert _vertex_oracle(drawn, n) == (x is not None), trial
        if x is not None:
            assert _satisfies(drawn, x), trial
        if cert is not None:
            assert all(v >= 0 for v in cert)
            for j in range(n):
                assert sum(
                    cert[g] * dict(lp.rows[g].coeffs).get(j, 0)
                    for g in range(len(lp.rows))
                ) == 0
            assert sum(cert[g] * lp.rows[g].rhs for g in range(len(lp.rows))) > 0


def test_witness_flows_within_factorial_bound():
    # Basic solutions of the flow programs clear to integers bounded by the
    # factorial of the proof length.
    for seed in range(12):
        graph, _ = random_circular_proof(seed, 5, 7)
        report = find_witness(graph)
        assert report.witnessed
        integral = integralize(graph, report.flow)
        bound = math.factorial(graph.length)
        assert all(0 < f <= bound for f in integral.flows.values())
