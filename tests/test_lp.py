import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from circres import lp as lp_module
from circres.core import Clause, CnfFormula
from circres.flowcheck import _witness_program, find_witness, integralize
from circres.generators import (
    complete_bipartite,
    gen_php,
    near_cubic_bipartite,
    php_refutation,
    random_circular_proof,
)
from circres.lp import Constraint, LinearProgram, feasible, solve
from circres.search import circular_search
from test_search import _definition_program, _restricted


_PIVOT_CAP = 2000  # the longest walk of these tests takes 136 pivots (wide-seed0)


@pytest.fixture(autouse=True)
def _pivot_cap():
    """Fail a walk past ``_PIVOT_CAP`` pivots, which would otherwise hang a
    test if it cycled.  It has its own ``MonkeyPatch``: ``_walks`` and
    ``_programs_solved`` undo the test's."""
    pivot = lp_module._Tableau._pivot

    def capped(tab, r, c):
        tab.pivots = getattr(tab, "pivots", 0) + 1
        if tab.pivots > _PIVOT_CAP:
            pytest.fail(f"walk passed {_PIVOT_CAP} pivots on a program of "
                        f"{len(tab.lp.rows)} rows over {tab.lp.num_vars} variables")
        return pivot(tab, r, c)

    patch = pytest.MonkeyPatch()
    patch.setattr(lp_module._Tableau, "_pivot", capped)
    yield
    patch.undo()


def _program(n, drawn=(), lower=None):
    """The program over ``n`` variables of ``drawn``, ``(coeffs, rhs)`` pairs
    of ints or ``Fraction``s, and the integer bounds ``lower``: each row's
    zero entries dropped, the rest in variable order, and the row scaled to
    integers by the lcm of its denominators."""
    rows = []
    for coeffs, rhs in drawn:
        items = sorted([(j, c) for j, c in coeffs.items() if c])
        scale = math.lcm(rhs.denominator, *(c.denominator for _, c in items))
        rows.append(Constraint(tuple((j, int(c * scale)) for j, c in items), int(rhs * scale)))
    return LinearProgram(n, rows, dict(lower or {}))


def test_interval_feasible():
    x, cert = solve(_program(1, [({0: 1}, 1), ({0: -1}, -2)]))
    assert x is not None and Fraction(1) <= x[0] <= Fraction(2)
    assert cert is None


def test_contradictory_bounds():
    lp = _program(1, [({0: 1}, 1), ({0: -1}, 0)])
    assert solve(lp) == (None, [Fraction(1), Fraction(1)])


def test_empty_program_is_feasible():
    assert feasible(LinearProgram(3)) == [Fraction(0)] * 3


def test_zero_row_infeasible():
    assert solve(_program(1, [({}, 1)])) == (None, [Fraction(1)])


def test_declared_bound_joins_the_certificate_after_the_rows():
    rows = [({0: 1}, 1), ({1: -1}, 0)]  # a one-entry row stays a row
    lp = _program(2, rows, {1: 1})
    assert lp.lower == {1: 1} and len(lp.rows) == 2
    assert solve(lp) == (None, [Fraction(0), Fraction(1), Fraction(1)])
    x = feasible(_program(2, rows, {1: -3}))
    assert x is not None and x[0] >= 1 and -3 <= x[1] <= 0
    with pytest.raises(TypeError):
        LinearProgram(2, lp.rows, {0: Fraction(1, 2)})


@pytest.mark.parametrize("row, bound, bad", [
    (((-1, 1), (0, 1)), 0, -1),
    (((0, 1), (4, 1), (5, 2)), 1, 4),
    # Out of order: the row's ends are in range, the middle is not.
    (((0, 1), (99, 1), (1, 1)), 1, 99),
    ((), 3, 3),
], ids=["row-low", "row-high", "row-unsorted", "bound"])
def test_program_built_in_one_call_rejects_an_index_out_of_range(row, bound, bad):
    rows = [Constraint(((0, 1),), 0), Constraint(row, 0)]
    with pytest.raises(IndexError) as info:
        LinearProgram(3, rows, {bound: 0})
    assert str(info.value) == f"variable index {bad} out of range 0..2"
    program = LinearProgram(3, rows[:1], {2: 1})  # in range: stored as given
    assert program.rows == rows[:1] and program.lower == {2: 1}


@pytest.mark.parametrize("rows, lower", [
    # 3x >= 1/2, x >= 3/2: the tableau's floor divisions lose the halves.
    ([Constraint(((0, 3),), Fraction(1, 2)), Constraint(((0, 1),), Fraction(3, 2))], {}),
    # 2x >= 1, x >= 3 and x >= -1/2.
    ([Constraint(((0, 2),), 1), Constraint(((0, 1),), 3)], {0: Fraction(-1, 2)}),
    # An integral Fraction is no int either.
    ([Constraint(((0, 1),), Fraction(1))], {}),
], ids=["rhs", "bound", "integral-fraction"])
def test_a_rational_rhs_or_bound_is_rejected_at_construction(rows, lower):
    # Once accepted, the first two answered with a point that failed its
    # exact recheck.
    with pytest.raises(TypeError):
        LinearProgram(1, rows, lower)


def _stuck_at_row_0(tab):
    return 0


def _negated_row_0(tab):
    tab.rows[0] = {0: -1}
    return 0


def _point_of_zeros(tab):
    return [0] * tab.lp.num_vars


@pytest.mark.parametrize("method, walk, program, message", [
    # run returns a row whose multiplier is negative, so not stuck.
    ("run", _negated_row_0, LinearProgram(1, [Constraint(((0, 1),), 1)], {0: 0}),
     "negative multiplier on a stuck row"),
    # x >= 1 with x free: row 0 has an eligible column.
    ("run", _stuck_at_row_0, LinearProgram(1, [Constraint(((0, 1),), 1)]),
     "free variable does not cancel in certificate"),
    # x >= 1 with x >= 0: row 0 leaves x a positive residual.
    ("run", _stuck_at_row_0, LinearProgram(1, [Constraint(((0, 1),), 1)], {0: 0}),
     "shifted variable has positive residual"),
    # -x >= 0 with x >= 0: row 0 and the bound sum to 0 >= 0.
    ("run", _stuck_at_row_0, LinearProgram(1, [Constraint(((0, -1),), 0)], {0: 0}),
     "certificate does not witness infeasibility"),
    ("point", _point_of_zeros, LinearProgram(1, [Constraint(((0, 1),), 1)]),
     "candidate point fails exact recheck"),
    ("point", _point_of_zeros, LinearProgram(1, [], {0: 1}),
     "candidate point fails exact recheck of a bound"),
], ids=["negative-multiplier", "free-residual", "bounded-residual", "no-witness",
        "row", "bound"])
def test_a_corrupted_walk_fails_its_exact_recheck(monkeypatch, method, walk, program, message):
    # Every answer of solve is rechecked exactly; each case corrupts one
    # step of the walk and checks that the matching recheck raises.
    monkeypatch.setattr(lp_module._Tableau, method, walk)
    with pytest.raises(AssertionError) as info:
        solve(program)
    assert str(info.value) == message


def _satisfies(rows, x) -> bool:
    return all(
        sum((c * x[j] for j, c in coeffs.items()), Fraction(0)) >= rhs
        for coeffs, rhs in rows
    )


def test_exactness_of_returned_points():
    rng = random.Random(9)
    for _ in range(200):
        drawn = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {
                j: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for j in range(3)
                if rng.random() < 0.8
            }
            drawn.append((coeffs, Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
        lp = _program(3, drawn)
        x = feasible(lp)
        if x is None:
            continue
        for row in lp.rows:
            assert sum(c * x[j] for j, c in row.coeffs) >= row.rhs  # no tolerance anywhere
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
    return rows, {}


def _rational_draw(rng, n):
    """Rational rows plus one-entry rows such as ``2x >= 1`` or ``x >= 2``,
    which the tableau keeps as ordinary rows."""
    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {j: q() for j in range(n) if rng.random() < 0.75}
        rows.append(({j: c for j, c in coeffs.items() if c}, q()))
    for _ in range(rng.randint(0, 2)):
        rows.append(({rng.randrange(n): q() or Fraction(2)}, q()))
    return rows, {}


def _bounded_draw(rng, n):
    """Integral rows and 0-2 declared lower bounds."""
    rows, _ = _integral_draw(rng, n)
    return rows, {j: rng.randint(-2, 2) for j in rng.sample(range(n), rng.randint(0, min(2, n)))}


def _check_certificate(lp, cert, trial):
    """``cert`` has one multiplier per row, then one per declared bound in
    increasing variable order, and combines them to ``0 >= positive``."""
    rows = [(dict(row.coeffs), row.rhs) for row in lp.rows]
    rows += [({j: 1}, lp.lower[j]) for j in sorted(lp.lower)]
    assert len(cert) == len(rows) and all(v >= 0 for v in cert), trial
    for j in range(lp.num_vars):
        assert sum(v * coeffs.get(j, 0) for v, (coeffs, _) in zip(cert, rows)) == 0, trial
    assert sum(v * rhs for v, (_, rhs) in zip(cert, rows)) > 0, trial


@pytest.mark.parametrize(
    "draw, seed",
    [(_integral_draw, 17), (_rational_draw, 23), (_bounded_draw, 31)],
    ids=["integral", "rational", "bounded"],
)
def test_strong_alternative_against_vertex_oracle(draw, seed):
    rng = random.Random(seed)
    for trial in range(400):
        n = rng.randint(1, 3)
        drawn, bounds = draw(rng, n)
        lp = _program(n, drawn, bounds)
        # Each stored row is its drawn row times a positive integer, so a
        # certificate on the stored rows is one on the drawn rows.
        for (coeffs, rhs), row in zip(drawn, lp.rows):
            scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
            assert dict(row.coeffs) == {j: c * scale for j, c in coeffs.items()}, trial
            assert row.rhs == rhs * scale, trial
        x, cert = solve(lp)
        # exactly one of the two answers; the oracle sees the bounds as rows
        as_rows = drawn + [({j: Fraction(1)}, Fraction(b)) for j, b in bounds.items()]
        assert (x is None) != (cert is None), trial
        assert _vertex_oracle(as_rows, n) == (x is not None), trial
        if x is not None:
            assert _satisfies(as_rows, x), trial
        if cert is not None:
            _check_certificate(lp, cert, trial)


def test_larger_random_programs_answer_checkably():
    # Beyond the vertex oracle's reach: each answer is checked on its own.
    rng = random.Random(29)
    for trial in range(300):
        n, m = rng.randint(1, 8), rng.randint(1, 12)
        drawn = []
        for _ in range(m):
            if rng.random() < 0.15:
                coeffs = {rng.randrange(n): Fraction(rng.randint(1, 3), rng.randint(1, 3))}
            else:
                coeffs = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                          for j in range(n) if rng.random() < 0.6}
            drawn.append((coeffs, Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
        lp = _program(n, drawn, {j: rng.randint(-3, 3)
                                 for j in rng.sample(range(n), rng.randint(0, min(3, n)))})
        x, cert = solve(lp)
        assert (x is None) != (cert is None), trial
        if x is not None:
            assert all(type(v) is Fraction for v in x)
            assert all(sum(c * x[j] for j, c in row.coeffs) >= row.rhs for row in lp.rows), trial
            assert all(x[j] >= bound for j, bound in lp.lower.items()), trial
        else:
            _check_certificate(lp, cert, trial)


def test_witness_flows_within_factorial_bound():
    # Basic solutions of the flow programs clear to integers bounded by the
    # factorial of the proof length.
    for seed in range(12):
        graph, _ = random_circular_proof(seed, 5, 7)
        _, flow = find_witness(graph)
        assert flow is not None
        integral = integralize(graph, flow)
        bound = math.factorial(graph.length)
        assert all(0 < f <= bound for f in integral.values())


# ---------------------------------------------------------------------------
# pinned answers on the programs that flowcheck and search build

def _programs_solved(monkeypatch, run):
    """The programs passed to ``lp.feasible`` while ``run()`` executes."""
    seen = []
    solve = lp_module.feasible

    def recording(program):
        seen.append(program)
        return solve(program)

    monkeypatch.setattr(lp_module, "feasible", recording)
    run()
    monkeypatch.undo()
    return seen


def _near_cubic(seed, dropped):
    cnf = gen_php(near_cubic_bipartite(3, seed))
    if dropped:
        # Clause ``seed`` is the pigeon clause of pigeon ``seed + 1``.
        cnf = CnfFormula.of(
            cnf.num_variables, [c for i, c in enumerate(cnf.clauses) if i != seed]
        )
    return cnf


def _search_case(seed, dropped):
    # The width-3 search program over every variable, as defined before the
    # search restricts its instance; on the refutable instances, which have
    # no pure literal, it is also the program the search solves.
    program = LinearProgram(*_definition_program(_near_cubic(seed, dropped), Clause(), 3))
    return lambda: lp_module.feasible(program)


def _restricted_search_case(seed):
    # The width-3 search program over the restricted dropped variant, with
    # only the hypotheses free, as defined.
    cnf, goal = _restricted(_near_cubic(seed, True), Clause())
    program = LinearProgram(*_definition_program(cnf, goal, 3))
    return lambda: lp_module.feasible(program)


def _presolved_search_case(seed):
    # What the search solves on the dropped variant: the restricted program
    # with the acyclic closure's kept clauses and their weakenings free as
    # well.
    cnf = _near_cubic(seed, True)
    return lambda: circular_search(cnf, Clause(), 3)


def _witness_case(dropped):
    # The flow program of the pigeonhole refutation, built directly:
    # find_witness decides the complete one at the unit flow without it.
    g = complete_bipartite(7, 6)
    cnf = gen_php(g)
    graph, _ = php_refutation(g)
    graph = dataclasses.replace(
        graph, hypotheses=frozenset(cnf.clauses[1:] if dropped else cnf.clauses))
    program, _ = _witness_program(graph)
    return lambda: lp_module.feasible(program)


def _random_witness_case(seed):
    # Unlike the pigeonhole flow programs, these take two pivots each.
    graph, _ = random_circular_proof(seed, 5, 7)
    return lambda: find_witness(graph)


def _wide_case(seed):
    """40 rows of 20 entries up to 10^6 over 150 variables, 60 of them
    bounded: its packed leaving rows span 150 lanes, and the lanes widen
    from 32 to 512 bits as ``den`` grows over its 136 pivots."""
    rng = random.Random(seed)
    drawn = [({j: rng.randint(-10 ** 6, 10 ** 6) for j in rng.sample(range(150), 20)},
              rng.randint(-10 ** 6, 10 ** 6)) for _ in range(40)]
    program = _program(150, drawn, {j: rng.randint(-2, 2) for j in rng.sample(range(150), 60)})
    return lambda: lp_module.feasible(program)


_PINNED = {
    **{
        f"search-n3-seed{seed}{'-dropped' if dropped else ''}": (_search_case, (seed, dropped))
        for seed in range(3) for dropped in (False, True)
    },
    **{f"search-n3-seed{seed}-restricted": (_restricted_search_case, (seed,)) for seed in range(3)},
    **{f"search-n3-seed{seed}-presolved": (_presolved_search_case, (seed,)) for seed in range(3)},
    "witness-php7x6": (_witness_case, (False,)),
    "witness-php7x6-dropped": (_witness_case, (True,)),
    "witness-random-seed4": (_random_witness_case, (4,)),
    "witness-random-seed9": (_random_witness_case, (9,)),
    "wide-seed0": (_wide_case, (0,)),
}

# sha256 of the (point, certificate) pairs.  The answers follow from the
# least-index pivot rule alone, so a faster tableau must reproduce them.
_DIGESTS = {
    "search-n3-seed0": "4145cfa1617ac81264ce35bc226c2171cd0d33c26e7065428fd18261030250f7",
    "search-n3-seed0-dropped": "041bdf02e7be2fcd48aba6ac88225269a4c36b464e09c10b015c7372382df1cd",
    "search-n3-seed1": "dc24a1afa9e6a117d57ad35fbd8e61c4fd8f3d1f2b8b8f5863ed83cce530309d",
    "search-n3-seed1-dropped": "0a0d8060ce9c336459b36d53bc747cc53e839c463e469ca6c504cc66d20e7290",
    "search-n3-seed2": "93563d0142d4c141aeab50dca9ed0576e81dc190d9686756d3b78b203dcdaded",
    "search-n3-seed2-dropped": "c786f1158dc1f0e4f2916cd3b2ab63fd3905b9ecfd2823bb31dcb94c336d8e9d",
    # What the search solves on the dropped variants: 315 variables and 59
    # rows over the 7 variables left once the dropped pigeon's two, which
    # occur only negatively, go.  Recorded when the search began restricting
    # its instance.
    "search-n3-seed0-restricted": "d5c34dc5837b35eb41ca6b56a68a4dee542b1f4582da88f827168a278b53e6fc",
    "search-n3-seed1-restricted": "8ec78647e8b5b71ff98815c1438f05a03c24d263b3fac6e79ed656826e90ea0a",
    "search-n3-seed2-restricted": "d5c34dc5837b35eb41ca6b56a68a4dee542b1f4582da88f827168a278b53e6fc",
    # The same with the acyclic closure's kept clauses and all their
    # weakenings free, less the variables that enter no row left: 24 rows
    # and 193 declared bounds over 265 variables, in place of 59 and 312
    # over 315.  Recorded when the search began freeing the weakenings.
    "search-n3-seed0-presolved": "b01cccd970cef1e14aea5654121130aa35fb9b59c4f89e301936ad5229f3a69d",
    "search-n3-seed1-presolved": "e8c78186f10522d01917e9d228fb1441a35800dbdbbf3cb4fd434e327a06aade",
    "search-n3-seed2-presolved": "b01cccd970cef1e14aea5654121130aa35fb9b59c4f89e301936ad5229f3a69d",
    "witness-php7x6": "34bebbf60e49c2435693a996bf2fbce990cd7f519c4fe6ccf140c064eaa902db",
    "witness-php7x6-dropped": "533203e8a0ad6232fce042307982c5bce075c87baa124197a4cf3a5d72c8111d",
    "witness-random-seed4": "040ba9a8815c18891b9fda4ed8e08f7324ea2a0ded80190fbcb91c609beae05a",
    "witness-random-seed9": "d58612acfed6af4fbc45549e7afcd62833385b72a74fcc333aa26704a54ae7e3",
    "wide-seed0": "3d47c59377ffb5ce3260207846ef623dfdede57d1b1f0a1d290104b0bd8f7b0e",
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_answers_are_stable(monkeypatch, case):
    make, args = _PINNED[case]
    programs = _programs_solved(monkeypatch, make(*args))
    assert programs
    answers = [solve(p) for p in programs]
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == _DIGESTS[case]


@pytest.mark.parametrize("make, seed", [
    *((_restricted_search_case, seed) for seed in range(3)),
    *((_presolved_search_case, seed) for seed in range(3)),
], ids=[*map(str, range(3)), *(f"{seed}-presolved" for seed in range(3))])
def test_restricted_search_programs_answer_with_a_checked_certificate(monkeypatch, make, seed):
    (program,) = _programs_solved(monkeypatch, make(seed))
    point, cert = solve(program)
    assert point is None
    _check_certificate(program, cert, seed)


class _CertificateBuilt(Exception):
    pass


def test_every_none_answer_checks_its_certificate(monkeypatch):
    # feasible drops the certificate, yet every None it returns, and every
    # none answer of the search and the checker, comes from a certificate
    # that _Tableau.certificate built and checked.
    def built(tab, r):
        raise _CertificateBuilt

    monkeypatch.setattr(lp_module._Tableau, "certificate", built)
    program = _program(1, [({0: 1}, 1), ({0: -1}, 0)])
    with pytest.raises(_CertificateBuilt):
        feasible(program)
    with pytest.raises(_CertificateBuilt):
        circular_search(_near_cubic(0, True), Clause(), 3)
    # check-sat: the complete pigeonhole refutation against its CNF less the
    # first pigeon clause.
    g = complete_bipartite(7, 6)
    graph, _ = php_refutation(g)
    graph = dataclasses.replace(graph, hypotheses=frozenset(gen_php(g).clauses[1:]))
    with pytest.raises(_CertificateBuilt):
        find_witness(graph)


def _walks(monkeypatch, programs):
    """The ``(row, entering column)`` pair of every pivot, per program, and
    the answers of :func:`solve`."""
    walks, answers = [], []
    pivot = lp_module._Tableau._pivot

    def recording(tab, r, c):
        walks[-1].append((r, c))
        return pivot(tab, r, c)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", recording)
    for program in programs:
        walks.append([])
        answers.append(solve(program))
    monkeypatch.undo()
    return walks, answers


# sha256 of the pivot sequences.  Equal answers do not imply an equal walk,
# so the walk itself is pinned: a tableau that stores less must still pivot
# on the same rows and columns.
_WALK_DIGESTS = {
    "search-n3-seed0": "d7bb1a39906391360318b25df39366c97bc57222e01edba4e8e6d0d3f77cdf23",
    "search-n3-seed0-dropped": "1f95259d5e5926ac61b6667b6439aeab891b804d14517540e45e609d7e63078d",
    "search-n3-seed1": "db928a5d321a908ae4698fa341ce407f2a70de8b4648c7745b5801bffa854213",
    "search-n3-seed1-dropped": "330e0b39fe4813058745b30be79c0d5105fcc0415913167f455fa10454e26bac",
    "search-n3-seed2": "d14bf1e9b808f2bce335f58b4952cb24301b561044d2ae42820508833cb6cdc2",
    "search-n3-seed2-dropped": "63315a4455e243da76245ce555007eaae42e8e55d0e791673d6f96acf825d76f",
    "search-n3-seed0-restricted": "e8cf0a2f24b1b800c09e6e23920dd73f68a0ec42d7e173e7f11ac465d3c48178",
    "search-n3-seed1-restricted": "781eac25e6a243f13792c408b244915082c136edf7def45f4d4a6bb520f808c4",
    "search-n3-seed2-restricted": "e8cf0a2f24b1b800c09e6e23920dd73f68a0ec42d7e173e7f11ac465d3c48178",
    "search-n3-seed0-presolved": "206247cf99372cfbbf649a461a32b68b4b2a6ffe82357c534c530653619d3aee",
    "search-n3-seed1-presolved": "c678a76c746fe5689031289dd546076b6ccc826963d767049adae3ad0d45d18f",
    "search-n3-seed2-presolved": "206247cf99372cfbbf649a461a32b68b4b2a6ffe82357c534c530653619d3aee",
    # The pigeonhole flow programs take no pivot: each is feasible at its
    # lower bounds or stuck at once.  The random proofs' programs pivot twice,
    # on the same (row, column) pairs.
    "witness-php7x6": "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
    "witness-php7x6-dropped": "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
    "witness-random-seed4": "3077927f753592ef38a2306d04e810adae2f707ed139540e56e70258b190dcf8",
    "witness-random-seed9": "3077927f753592ef38a2306d04e810adae2f707ed139540e56e70258b190dcf8",
    "wide-seed0": "3217c9dc310b81610516e18bd3cf14985402b0479f48922a40e4c1ba9192e85d",
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_walks_are_stable(monkeypatch, case):
    make, args = _PINNED[case]
    walks, _ = _walks(monkeypatch, _programs_solved(monkeypatch, make(*args)))
    assert walks
    digest = hashlib.sha256(repr(walks).encode()).hexdigest()
    assert digest == _WALK_DIGESTS[case]


# ---------------------------------------------------------------------------
# the sparse tableau against a dense reference walk

def _dense_walk(lp):
    """Least-index criss-cross on the full ``Fraction`` tableau ``[-A | I]``
    of the negated, shifted rows.  Returns the pivots, the point or the
    certificate, and the kinds of pivot taken."""
    lb, m = lp.lower, len(lp.rows)
    cols = [(j, part) for j in range(lp.num_vars) for part in ((1,) if j in lb else (1, -1))]
    n = len(cols)
    tab = [[Fraction(-part * dict(row.coeffs).get(j, 0)) for j, part in cols]
           + [Fraction(t == i) for t in range(m)] for i, row in enumerate(lp.rows)]
    xb = [Fraction(sum(a * lb.get(j, 0) for j, a in row.coeffs) - row.rhs) for row in lp.rows]
    basis, walk, kinds = list(range(n, n + m)), [], set()
    while violated := [i for i in range(m) if xb[i] < 0]:
        r = min(violated, key=basis.__getitem__)
        c = min((k for k in range(n + m) if tab[r][k] < 0), default=None)
        if c is None:
            lam = tab[r][n:]
            residual = [sum(v * dict(row.coeffs).get(j, 0) for v, row in zip(lam, lp.rows))
                        for j in range(lp.num_vars)]
            return walk, None, lam + [-residual[j] for j in sorted(lb)], kinds
        walk.append((r, c))
        piv = tab[r][c]
        kinds |= {"fractional"} if abs(piv) != 1 else set()
        kinds |= {"free-negative"} if c < n and cols[c][1] < 0 else set()
        tab[r], xb[r] = [v / piv for v in tab[r]], xb[r] / piv
        for i in range(m):
            if i != r and (f := tab[i][c]):
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[r])]
                xb[i] -= f * xb[r]
        basis[r] = c
    x = [Fraction(lb.get(j, 0)) for j in range(lp.num_vars)]
    for i, k in enumerate(basis):
        if k < n:
            x[cols[k][0]] += cols[k][1] * xb[i]
    return walk, x, None, kinds


_Q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _programs(draw):
    """Small programs with rational rows, zero rows and free and bounded
    variables."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(st.dictionaries(st.integers(0, n - 1), _Q), _Q), max_size=6))
    return _program(n, rows, draw(st.dictionaries(st.integers(0, n - 1), st.integers(-2, 2))))


@st.composite
def _wide_programs(draw):
    """Programs over up to 150 variables, so that the packed leaving row
    spans up to 150 lanes, with integer coefficients up to 10^6, which widen
    its lanes, and free and bounded variables."""
    n = draw(st.integers(1, 150))
    # Magnitudes of every bit length, so that some entry nears its lane's limit.
    big = st.integers(0, 20).flatmap(lambda e: st.integers(-min(2 ** e, 10 ** 6),
                                                           min(2 ** e, 10 ** 6)))
    index = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(st.dictionaries(index, big, max_size=8), big), max_size=6))
    return _program(n, rows, draw(st.dictionaries(index, st.integers(-2, 2), max_size=8)))


def _matches_dense_reference(lp):
    walk, x, cert, kinds = _dense_walk(lp)
    # One solve answers with the dense point or certificate, in len(walk)
    # pivots, and each of its entries, a zero too, is a Fraction.
    walks, answers = _walks(pytest.MonkeyPatch(), [lp])
    assert (walks, answers) == ([walk], [(x, cert)])
    assert all(type(v) is Fraction for v in answers[0][0] or answers[0][1])
    return kinds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_programs())
def test_sparse_tableau_walks_like_the_dense_one(lp):
    _matches_dense_reference(lp)


@pytest.mark.parametrize("kind", ["fractional", "free-negative"])
def test_drawn_programs_reach_each_kind_of_pivot(kind):
    # A pivot of absolute value other than 1 is one where the integer
    # tableau's pivot differs from its den.
    lp = find(_programs(), lambda lp: kind in _dense_walk(lp)[3],
              settings=settings(max_examples=2000, database=None, derandomize=True))
    assert kind in _matches_dense_reference(lp)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_wide_programs())
def test_packed_rows_walk_like_the_dense_tableau(lp):
    _matches_dense_reference(lp)


def _checked_walk(lp):
    """Walk ``lp``'s tableau and check each pivot: the leaving row's entry
    in the entering column is negative; a pivot that keeps ``den`` leaves
    every row with a zero in its entering column as it was, the same dict
    with the same entries and ``xb``; and after every pivot ``where[t]`` is
    the set of rows with an entry at ``t`` and every row with ``xb < 0`` has
    its ``(basis index, row)`` pair in the heap.  Returns how many pivots
    kept ``den`` and how many changed it."""
    tab = lp_module._Tableau(lp)
    pivot, coeffs, kinds = tab._pivot, [dict(row.coeffs) for row in lp.rows], [0, 0]

    def entry(row, c):
        if c >= tab.n_struct:
            return row.get(c - tab.n_struct, 0)
        j, part = tab.col_var[c]
        return -part * sum(m * coeffs[t].get(j, 0) for t, m in row.items())

    def checked(r, c):
        den = tab.den
        assert entry(tab.rows[r], c) < 0
        missed = [(i, row, dict(row), tab.xb[i])
                  for i, row in enumerate(tab.rows) if not entry(row, c)]
        pivot(r, c)
        kinds[tab.den != den] += 1
        if tab.den == den:
            assert all(tab.rows[i] is row and row == before and tab.xb[i] == x
                       for i, row, before, x in missed)
        assert tab.where == [{i for i, row in enumerate(tab.rows) if t in row}
                             for t in range(len(lp.rows))]
        assert all((tab.basis[i], i) in tab.heap for i, x in enumerate(tab.xb) if x < 0)

    tab._pivot = checked
    tab.run()
    return kinds


@pytest.mark.parametrize("case", ["search-n3-seed0", "wide-seed0", "drawn"])
def test_a_pivot_that_keeps_den_touches_only_its_entering_column(monkeypatch, case):
    # A walk reads only the rows it pivots on, so the walk pins alone would
    # not see a pivot that rebuilt every row.
    if case == "drawn":
        programs = [find(_programs(), lambda lp: all(_checked_walk(lp)),
                         settings=settings(max_examples=2000, database=None, derandomize=True,
                                           phases=[Phase.generate]))]
    else:
        make, args = _PINNED[case]
        programs = _programs_solved(monkeypatch, make(*args))
    kinds = [sum(k) for k in zip(*map(_checked_walk, programs))]
    assert all(kinds)


@pytest.mark.parametrize("case", ["witness-php7x6", "witness-php7x6-dropped"])
def test_a_walk_without_pivots_builds_no_column_maps(monkeypatch, case):
    # The first is feasible at its lower bounds and the second stuck at once,
    # like php_pipeline's check-sat program: neither needs the column maps.
    make, args = _PINNED[case]
    (program,) = _programs_solved(monkeypatch, make(*args))

    def first(tab, j):
        pytest.fail("a walk without pivots built the column maps")

    monkeypatch.setattr(lp_module._Tableau, "_first", first)
    point, _ = solve(program)
    assert (point is None) == case.endswith("dropped")


def test_leaving_row_is_the_least_index_violated_row(monkeypatch):
    # Dense programs repair a row and violate it again under another basis
    # index, which leaves a stale pair for a violated row in the heap; every
    # leaving row is still the violated row of least basis index.
    structural = lp_module._Tableau._structural

    def checked(tab, r):
        violated = [i for i, x in enumerate(tab.xb) if x < 0]
        assert r == min(violated, key=tab.basis.__getitem__)
        return structural(tab, r)

    monkeypatch.setattr(lp_module._Tableau, "_structural", checked)
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(5, 40)
        drawn = [({j: rng.randint(-3, 3) for j in rng.sample(range(n), rng.randint(1, n))},
                  rng.randint(-3, 3)) for _ in range(rng.randint(5, 40))]
        solve(_program(n, drawn, {j: rng.randint(-2, 2)
                                  for j in rng.sample(range(n), rng.randint(0, n))}))


def _doublings(lp):
    """How often the lanes double after the walk's first leaving row."""
    tab = lp_module._Tableau(lp)
    structural, widths = tab._structural, []

    def recording(r):
        c = structural(r)
        widths.append(tab.bits)
        return c

    tab._structural = recording
    tab.run()
    return (widths[-1] // widths[0]).bit_length() - 1 if widths else 0


@pytest.mark.parametrize("case", ["search-n3-seed0", "search-n3-seed0-dropped", "wide-seed0"])
def test_each_row_is_packed_once_per_lane_width(monkeypatch, case):
    # Lanes start at 8 bits, which the search programs keep.  The bound on
    # the leaving row's sum is read off the row heights before any row is
    # packed, so wide-seed0, whose first leaving row already needs 32-bit
    # lanes, packs nothing at 8 bits, and a widening packs each row read
    # after it once more.
    packs = []
    pack = lp_module._Tableau._pack

    def recording(tab, t):
        packs.append((t, tab.bits))
        return pack(tab, t)

    monkeypatch.setattr(lp_module._Tableau, "_pack", recording)
    make, args = _PINNED[case]
    make(*args)()
    assert packs and len(set(packs)) == len(packs)
    widths = sorted({bits for _, bits in packs})
    assert widths == ([8] if case.startswith("search") else [32, 64, 128, 256, 512])


def test_drawn_walks_widen_the_packed_lanes_at_least_twice():
    # Each widening drops the rows packed at the old width and read before.
    # The first walk drawn is kept as it is: shrinking it takes seconds.
    lp = find(_wide_programs(), lambda lp: _doublings(lp) >= 2,
              settings=settings(max_examples=2000, database=None, derandomize=True,
                                phases=[Phase.generate]))
    assert _doublings(lp) >= 2
    _matches_dense_reference(lp)
