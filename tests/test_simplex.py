"""The exact LP core, cross-checked against an independent float solver."""

import collections
import copy
import math
import random
from fractions import Fraction as F

import pytest
from scipy.optimize import linprog

from probterm import farkas, lower_to_pcfg, parse_program, simplex, synthesis
from probterm.pcfg_io import invariant_from_json
from probterm.simplex import IntRow, LPStatus, PivotCapReached, RowRel, integer_row

from conftest import load_fixture
from test_strict_rule import PROGRAMS, synthesize, workloads


def solve(n, nonneg, rows, obj, **kwargs):
    """The simplex on rational (coeffs, rel, rhs) rows and objective, each
    converted to an integer row once."""
    return simplex.solve(n, nonneg, [(integer_row(c, b), rel) for c, rel, b in rows],
                         integer_row(obj, F(0)), **kwargs)


def test_bounded_maximum():
    r = solve(1, [True], [({0: F(1)}, RowRel.LE, F(3))], {0: F(1)})
    assert r.status is LPStatus.OPTIMAL and r.x == [F(3)] and r.value == 3


def test_unbounded():
    r = solve(1, [True], [], {0: F(1)})
    assert r.status is LPStatus.UNBOUNDED


def test_infeasible():
    r = solve(1, [True], [({0: F(1)}, RowRel.LE, F(-1))], {})
    assert r.status is LPStatus.INFEASIBLE


def test_free_variable_negative_optimum():
    rows = [({0: F(1)}, RowRel.GE, F(-5)), ({0: F(1)}, RowRel.LE, F(-2))]
    r = solve(1, [False], rows, {0: F(1)})
    assert r.status is LPStatus.OPTIMAL and r.x == [F(-2)]


def test_equalities_and_redundant_rows():
    rows = [({0: F(1), 1: F(1)}, RowRel.EQ, F(4)),
            ({0: F(2), 1: F(2)}, RowRel.EQ, F(8)),  # redundant copy
            ({0: F(1), 1: F(-1)}, RowRel.EQ, F(0))]
    r = solve(2, [True, True], rows, {0: F(1)})
    assert r.status is LPStatus.OPTIMAL and r.x == [F(2), F(2)]


def test_exact_fractional_vertex():
    # max x + y  s.t. 3x + y <= 1, x + 3y <= 1  ->  vertex (1/4, 1/4)
    rows = [({0: F(3), 1: F(1)}, RowRel.LE, F(1)),
            ({0: F(1), 1: F(3)}, RowRel.LE, F(1))]
    r = solve(2, [True, True], rows, {0: F(1), 1: F(1)})
    assert r.x == [F(1, 4), F(1, 4)] and r.value == F(1, 2)


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    rows = [({0: F(1, 4), 1: F(-8), 2: F(-1), 3: F(9)}, RowRel.LE, F(0)),
            ({0: F(1, 2), 1: F(-12), 2: F(-1, 2), 3: F(3)}, RowRel.LE, F(0)),
            ({2: F(1)}, RowRel.LE, F(1))]
    obj = {0: F(3, 4), 1: F(-20), 2: F(1, 2), 3: F(-6)}
    r = solve(4, [True] * 4, rows, obj)
    assert r.status is LPStatus.OPTIMAL and r.value == F(5, 4)


def test_pivot_cap():
    rows = [({0: F(1), 1: F(1)}, RowRel.LE, F(10)),
            ({0: F(1), 1: F(-1)}, RowRel.GE, F(-10))]
    obj = {0: F(1), 1: F(1)}
    with pytest.raises(PivotCapReached, match="^0 pivots$"):
        solve(2, [True, True], rows, obj, pivot_cap=0)
    # the cap bounds the pivots made: the uncapped count still fits
    free = solve(2, [True, True], rows, obj)
    assert free.status is LPStatus.OPTIMAL and free.pivots > 0
    r = solve(2, [True, True], rows, obj, pivot_cap=free.pivots)
    assert r.status is LPStatus.OPTIMAL and r.pivots == free.pivots
    assert r.x == free.x and r.value == free.value
    with pytest.raises(PivotCapReached, match=f"^{free.pivots - 1} pivots$"):
        solve(2, [True, True], rows, obj, pivot_cap=free.pivots - 1)


def test_duplicated_zero_rhs_equality_is_dropped():
    # the second row doubles the first, and each unknown is read by a
    # bound as well, so no equality owns a column: once x1 enters on the
    # first row, the copy has no entry left outside the artificial columns
    # and is dropped without a pivot
    rows = [({0: F(1), 1: F(-1)}, RowRel.EQ, F(0)),
            ({0: F(2), 1: F(-2)}, RowRel.EQ, F(0)),
            ({0: F(1)}, RowRel.LE, F(3)),
            ({1: F(1)}, RowRel.LE, F(4))]
    obj = {0: F(1), 1: F(1)}
    r = solve(2, [False, False], rows, obj)
    assert r.status is LPStatus.OPTIMAL and r.x == [F(3), F(3)] and r.value == 6
    single = solve(2, [False, False], rows[:1] + rows[2:], obj)
    assert single.pivots > 0 and r.pivots == single.pivots


@pytest.mark.parametrize("obj", [{}, {0: F(1)}], ids=["crash-only", "crash-then-phase2"])
def test_pivot_cap_counts_crash_pivots(obj):
    # zero-rhs equalities over free unknowns, each unknown read by two
    # rows: no equality owns a column, so each is driven out by a pivot,
    # with no phase 1
    rows = [({0: F(1), 1: F(1)}, RowRel.EQ, F(0)),
            ({1: F(1), 2: F(-1)}, RowRel.EQ, F(0)),
            ({0: F(1)}, RowRel.LE, F(1)),
            ({2: F(1)}, RowRel.LE, F(1))]
    free = solve(3, [False] * 3, rows, obj)
    assert free.status is LPStatus.OPTIMAL and free.pivots >= 2
    r = solve(3, [False] * 3, rows, obj, pivot_cap=free.pivots)
    assert r.status is LPStatus.OPTIMAL and r.pivots == free.pivots and r.x == free.x
    with pytest.raises(PivotCapReached, match=f"^{free.pivots - 1} pivots$"):
        solve(3, [False] * 3, rows, obj, pivot_cap=free.pivots - 1)


def test_owned_columns_start_without_a_pivot():
    # x1 and x2 are each read by one zero-rhs equality only, so both rows
    # start basic on them and no pivot is made, not even under a cap of 0;
    # the two rows force x0 = 0
    rows = [({0: F(1), 1: F(-1)}, RowRel.EQ, F(0)),
            ({0: F(1), 2: F(2)}, RowRel.EQ, F(0)),
            ({0: F(1)}, RowRel.LE, F(1))]
    for cap in (0, simplex.DEFAULT_PIVOT_CAP):
        r = solve(3, [False, True, True], rows, {}, pivot_cap=cap)
        assert r.status is LPStatus.OPTIMAL and r.x == [0, 0, 0] and r.pivots == 0


def test_owned_column_with_a_negative_entry():
    # x1 owns the first row with entry -3: the row is negated before it is
    # divided by 3, so that x1 starts basic at +1 and is priced out of the
    # objective with the right sign
    rows = [({0: F(1), 1: F(-3)}, RowRel.EQ, F(0)),
            ({0: F(1)}, RowRel.LE, F(2))]
    r = solve(2, [True, True], rows, {0: F(1), 1: F(1)})
    assert r.status is LPStatus.OPTIMAL and r.x == [F(2), F(2, 3)] and r.value == F(8, 3)


def test_owned_free_column():
    # free x1 owns the first row and ends negative: 2 x0 + x1 = 0
    rows = [({0: F(2), 1: F(1)}, RowRel.EQ, F(0)),
            ({0: F(1)}, RowRel.LE, F(4))]
    r = solve(2, [True, False], rows, {0: F(1)})
    assert r.status is LPStatus.OPTIMAL and r.x == [F(4), F(-8)] and r.value == 4


@pytest.mark.parametrize("weight", [F(2), F(-1, 2)], ids=["positive", "negative"])
def test_owned_column_with_objective_weight(weight):
    # the objective weighs the owned x1, which starts basic: its weight is
    # priced through x1 = x0
    rows = [({0: F(-1), 1: F(1)}, RowRel.EQ, F(0)),
            ({0: F(1)}, RowRel.LE, F(5))]
    r = solve(2, [True, True], rows, {1: weight})
    best = F(5) if weight > 0 else F(0)
    assert r.status is LPStatus.OPTIMAL and r.x == [best, best]
    assert r.value == weight * best


def _scipy_status(n, nonneg, rows, obj):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for coeffs, rel, b in rows:
        vec = [float(coeffs.get(j, 0)) for j in range(n)]
        if rel is RowRel.LE:
            A_ub.append(vec); b_ub.append(float(b))
        elif rel is RowRel.GE:
            A_ub.append([-v for v in vec]); b_ub.append(-float(b))
        else:
            A_eq.append(vec); b_eq.append(float(b))
    bounds = [(0, None) if nn else (None, None) for nn in nonneg]
    return linprog([-float(obj.get(j, 0)) for j in range(n)],
                   A_ub=A_ub or None, b_ub=b_ub or None,
                   A_eq=A_eq or None, b_eq=b_eq or None,
                   bounds=bounds, method="highs")


def _integer(rng, lo, hi):
    return F(rng.randint(lo, hi))


def _rational(rng, lo, hi):
    # mixed denominators, so rows start with a denominator other than 1
    return F(rng.randint(2 * lo, 2 * hi), rng.randint(1, 6))


def _general(draw):
    def lp(rng):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        nonneg = [rng.random() < 0.7 for _ in range(n)]
        rows = [({j: draw(rng, -4, 4) for j in range(n)},
                 rng.choice([RowRel.LE, RowRel.GE, RowRel.EQ]),
                 draw(rng, -6, 6)) for _ in range(m)]
        return n, nonneg, rows, {j: draw(rng, -3, 3) for j in range(n)}
    return lp


def _homogeneous(rng):
    # the shape of a Farkas LP: zero right-hand sides on == and >= rows,
    # free and nonneg unknowns, and a few <= 1 bounds
    n = rng.randint(1, 5)
    nonneg = [rng.random() < 0.5 for _ in range(n)]
    rows = [({j: F(rng.randint(-3, 3)) for j in rng.sample(range(n), rng.randint(1, n))},
             rng.choice([RowRel.EQ, RowRel.GE]), F(0))
            for _ in range(rng.randint(1, 6))]
    rows += [({j: F(1)}, RowRel.LE, F(1)) for j in rng.sample(range(n), min(rng.randint(0, 2), n))]
    rng.shuffle(rows)
    return n, nonneg, rows, {j: _integer(rng, -3, 3) for j in range(n)}


def _planted(make):
    """LPs from `make` with one-entry `= 0` rows planted at random places,
    some of them pinning an unknown only once an earlier pin is deleted."""
    def lp(rng):
        n, nonneg, rows, obj = make(rng)
        rows = list(rows)
        order = rng.sample(range(n), rng.randint(1, n))
        for k, j in enumerate(order):
            row = {j: F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))}
            if k and rng.random() < 0.5:
                row[order[k - 1]] = F(rng.randint(1, 4))  # pinned once that one is
            rows.insert(rng.randint(0, len(rows)), (row, RowRel.EQ, F(0)))
        return n, nonneg, rows, obj
    return lp


def _owned(make):
    """LPs from `make` with a fresh unknown planted into some of the
    zero-rhs equalities, which then own its column; some fresh unknowns
    are free, and some carry objective weight."""
    def lp(rng):
        n, nonneg, rows, obj = make(rng)
        rows, nonneg, obj = list(rows), list(nonneg), dict(obj)
        for i, (coeffs, rel, b) in enumerate(rows):
            if rel is RowRel.EQ and b == 0 and rng.random() < 0.6:
                rows[i] = ({**coeffs, n: F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))},
                           rel, b)
                nonneg.append(rng.random() < 0.7)
                if rng.random() < 0.3:
                    obj[n] = _integer(rng, -3, 3)
                n += 1
        return n, nonneg, rows, obj
    return lp


@pytest.mark.parametrize("seed,make", [(42, _general(_integer)), (43, _general(_rational)),
                                       (44, _homogeneous), (45, _planted(_general(_rational))),
                                       (46, _planted(_homogeneous)), (47, _owned(_homogeneous)),
                                       (48, _owned(_planted(_homogeneous)))],
                         ids=["integer", "rational", "homogeneous", "planted-rational",
                              "planted-homogeneous", "owned-homogeneous", "owned-planted"])
def test_randomized_against_scipy(seed, make):
    rng = random.Random(seed)
    for trial in range(400):
        n, nonneg, rows, obj = make(rng)
        mine = solve(n, nonneg, rows, obj)
        if mine.status is LPStatus.OPTIMAL:
            sp = _scipy_status(n, nonneg, rows, obj)
            assert sp.status == 0, trial
            assert abs(float(mine.value) + sp.fun) < 1e-6, trial
        elif mine.status is LPStatus.INFEASIBLE:
            sp = _scipy_status(n, nonneg, rows, {})
            assert sp.status == 2, trial
        else:
            # unbounded: scipy finds no optimum, and the objective reaches
            # any level (HiGHS may call such an LP infeasible, not unbounded)
            assert mine.status is LPStatus.UNBOUNDED, trial
            assert _scipy_status(n, nonneg, rows, obj).status in (2, 3), trial
            high = rows + [(obj, RowRel.GE, F(10 ** 4))]
            assert _scipy_status(n, nonneg, high, {}).status == 0, trial


def test_row_permutation_invariance_of_value():
    rng = random.Random(9)
    for _ in range(40):
        n, m = 3, 5
        rows = [({j: F(rng.randint(-3, 3)) for j in range(n)}, RowRel.LE,
                 F(rng.randint(0, 8))) for _ in range(m)]
        rows.append(({j: F(1) for j in range(n)}, RowRel.LE, F(20)))
        obj = {j: F(rng.randint(0, 3)) for j in range(n)}
        base = solve(n, [True] * n, rows, obj)
        if base.status is not LPStatus.OPTIMAL:
            continue
        shuffled = rows[:]
        rng.shuffle(shuffled)
        again = solve(n, [True] * n, shuffled, obj)
        assert again.status is LPStatus.OPTIMAL
        assert again.value == base.value


def test_resubstitution_is_exact():
    # every optimum is re-checked for exact satisfaction inside solve; a
    # deliberately fractional optimum exercises that check
    rows = [({0: F(7), 1: F(3)}, RowRel.LE, F(1)),
            ({0: F(-2), 1: F(9)}, RowRel.LE, F(1)),
            ({0: F(1), 1: F(1)}, RowRel.GE, F(-5))]
    r = solve(2, [False, False], rows, {0: F(5), 1: F(1)})
    assert r.status is LPStatus.OPTIMAL
    assert 7 * r.x[0] + 3 * r.x[1] <= 1 and -2 * r.x[0] + 9 * r.x[1] <= 1
    assert 5 * r.x[0] + r.x[1] == r.value


def test_pinned_unknowns_read_back_zero():
    # x0 free, x1 nonneg and x2 free with the largest objective weight are
    # each pinned by a one-entry = 0 row; only x3 keeps a tableau column,
    # so the one pivot made is phase 2's
    rows = [({0: F(2)}, RowRel.EQ, F(0)),
            ({1: F(-3)}, RowRel.EQ, F(0)),
            ({2: F(1, 2)}, RowRel.EQ, F(0)),
            ({0: F(1), 1: F(1), 2: F(1), 3: F(1)}, RowRel.LE, F(5))]
    r = solve(4, [False, True, False, True], rows, {2: F(7), 3: F(1)})
    assert r.status is LPStatus.OPTIMAL
    assert r.x == [0, 0, 0, 5] and r.value == 5 and r.pivots == 1


def test_pins_are_followed_down_a_chain():
    # x0 = 0 pins x0, which leaves x0 + x1 = 0 with one entry: x1 is pinned too
    rows = [({0: F(1)}, RowRel.EQ, F(0)),
            ({0: F(1), 1: F(1)}, RowRel.EQ, F(0)),
            ({1: F(1), 2: F(1)}, RowRel.LE, F(4))]
    r = solve(3, [False, False, True], rows, {1: F(1), 2: F(1)})
    assert r.status is LPStatus.OPTIMAL
    assert r.x == [0, 0, 4] and r.value == 4 and r.pivots == 1


@pytest.mark.parametrize("rel,b", [(RowRel.EQ, F(1)), (RowRel.LE, F(-1)), (RowRel.GE, F(1))],
                         ids=["0=1", "0<=-1", "0>=1"])
def test_row_emptied_by_pins_keeps_its_right_hand_side(rel, b):
    rows = [({0: F(3)}, RowRel.EQ, F(0)), ({0: F(1)}, rel, b)]
    for nonneg in (True, False):
        assert solve(1, [nonneg], rows, {0: F(1)}).status is LPStatus.INFEASIBLE
    # the same row with right-hand side 0 holds
    assert solve(1, [False], [rows[0], ({0: F(1)}, rel, F(0))], {}).x == [0]


# max x0 + x1  s.t. x0 + 2 x1 <= 4, 3 x0 + x1 <= 6  ->  vertex (8/5, 6/5)
_VERTEX_ROWS = [({0: F(1), 1: F(2)}, RowRel.LE, F(4)),
                ({0: F(3), 1: F(1)}, RowRel.LE, F(6))]


def _wrong_tableau(basic_value: bool):
    """A _Tableau whose optimum comes back wrong: either x0 one unit higher
    and x1 one lower, which keeps the objective value and each tableau row
    consistent but leaves the caller's second row violated, or the
    reported objective value one unit too high."""

    class Wrong(simplex._Tableau):
        def maximize(self, cost, den):
            outcome, value = super().maximize(cost, den)
            if not basic_value:
                return outcome, value + 1
            for col, step in ((0, 1), (1, -1)):
                i = self.basis.index(col)
                self.rhs[i] += step * self.den[i]
            return outcome, value

    return Wrong


@pytest.mark.parametrize("basic_value", [True, False], ids=["basic-value", "optimum"])
def test_recheck_detects_a_wrong_optimum(monkeypatch, basic_value):
    obj = {0: F(1), 1: F(1)}
    r = solve(2, [True, True], _VERTEX_ROWS, obj)
    assert r.x == [F(8, 5), F(6, 5)] and r.value == F(14, 5)
    monkeypatch.setattr(simplex, "_Tableau", _wrong_tableau(basic_value))
    with pytest.raises(AssertionError):
        solve(2, [True, True], _VERTEX_ROWS, obj)


def test_recheck_covers_rows_the_presolve_dropped(monkeypatch):
    # x1 is pinned by the first row, which the presolve drops, and appears
    # in no other row. It has no tableau column, so the wrong value is
    # planted in the read-back handed to the re-check: x1 = 1. Only the
    # caller's dropped row can catch it.
    rows = [({1: F(2)}, RowRel.EQ, F(0)), ({0: F(1)}, RowRel.LE, F(3))]
    r = solve(2, [False, True], rows, {0: F(1)})
    assert r.x == [3, 0] and r.value == 3
    check = simplex._check_solution

    def wrong_read_back(nonneg, rows, objective, X, D, value):
        check(nonneg, rows, objective, [X[0], D], D, value)

    monkeypatch.setattr(simplex, "_check_solution", wrong_read_back)
    with pytest.raises(AssertionError, match="row violated"):
        solve(2, [False, True], rows, {0: F(1)})


def _solved_untouched(n, nonneg, rows, objective):
    """`simplex.solve` on integer rows, which must leave them, and the
    objective, equal to deep copies taken before."""
    before = copy.deepcopy((rows, objective))
    result = simplex.solve(n, nonneg, rows, objective)
    assert (rows, objective) == before
    return result


def test_caller_input_is_left_alone_and_ints_equal_fractions():
    # x0 and x2 free; the optimum puts both at negative fractions
    rows = [({0: 3, 1: 1}, RowRel.GE, -2),
            ({1: 1}, RowRel.LE, 1),
            ({0: 1, 2: -3}, RowRel.EQ, 0)]
    obj = {0: -1, 1: -1}
    as_fractions = [({j: F(c) for j, c in coeffs.items()}, rel, F(b))
                    for coeffs, rel, b in rows]
    results = []
    for rs, ob in [(rows, obj), (as_fractions, {j: F(c) for j, c in obj.items()})]:
        results.append(_solved_untouched(3, [False, True, False],
                                         [(integer_row(c, b), rel) for c, rel, b in rs],
                                         integer_row(ob, F(0))))
    ints, fracs = results
    assert ints.status is LPStatus.OPTIMAL
    assert ints.x == [F(-2, 3), F(0), F(-2, 9)] and ints.value == F(2, 3)
    assert (ints.x, ints.value, ints.pivots) == (fracs.x, fracs.value, fracs.pivots)


def _synthesis_lps():
    """The first iteration LPs of fig1b and of the depth-6 general ladder."""
    p, inv = load_fixture("fig1b")
    yield synthesis.build_lp(p, inv, [t.id for t in p.non_terminal_transitions()]).lp
    p = lower_to_pcfg(parse_program(workloads.ladder_source(6, True)))
    inv = invariant_from_json(workloads.ladder_invariant(6), p)
    yield synthesis.build_lp(p, inv, [t.id for t in p.non_terminal_transitions()]).lp


def test_solve_leaves_synthesis_rows_untouched():
    # the re-check reads the same row objects the tableau is built from,
    # and a pivot may update a tableau row in place
    for lp in _synthesis_lps():
        r = _solved_untouched(lp.num_vars(), lp.nonneg, lp.constraints, lp.objective)
        assert r.status is LPStatus.OPTIMAL and r.pivots > 0


@pytest.mark.parametrize("seed,make", [(50, _general(_rational)), (51, _planted(_homogeneous)),
                                       (52, _owned(_planted(_homogeneous)))],
                         ids=["rational", "planted-homogeneous", "owned-planted"])
def test_solve_leaves_random_rows_untouched(seed, make):
    rng = random.Random(seed)
    for _ in range(200):
        n, nonneg, rows, obj = make(rng)
        _solved_untouched(n, nonneg, [(integer_row(c, b), rel) for c, rel, b in rows],
                          integer_row(obj, F(0)))


def _lcm_row(coeffs, rhs):
    """The rational formula: scale by the lcm of every denominator, then
    divide by the gcd of every integer."""
    coeffs = {j: F(c) for j, c in coeffs.items() if c != 0}
    rhs = F(rhs)
    den = math.lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
    row = {j: c.numerator * (den // c.denominator) for j, c in coeffs.items()}
    b = rhs.numerator * (den // rhs.denominator)
    g = math.gcd(b, den, *row.values())
    return {j: v // g for j, v in row.items()}, b // g, den // g


@pytest.mark.parametrize("draw", [_integer, _rational], ids=["integral", "rational"])
def test_integer_row_matches_the_rational_formula(draw):
    rng = random.Random(47)
    for trial in range(500):
        n = rng.randint(0, 6)
        # zero entries, and right-hand sides that are zero or negative
        coeffs = {j: draw(rng, -4, 4) if rng.random() < 0.7 else F(0)
                  for j in rng.sample(range(8), n)}
        rhs = rng.choice([F(0), draw(rng, -6, 0), draw(rng, -6, 6)])
        assert integer_row(coeffs, rhs) == _lcm_row(coeffs, rhs), trial


@pytest.mark.parametrize("draw", [_integer, _rational], ids=["integral", "rational"])
def test_integer_row_reads_back_its_fractions(draw):
    rng = random.Random(49)
    for trial in range(500):
        coeffs = {j: draw(rng, -4, 4) if rng.random() < 0.7 else F(0)
                  for j in rng.sample(range(8), rng.randint(0, 6))}
        rhs = rng.choice([F(0), draw(rng, -6, 6)])
        row = integer_row(coeffs, rhs)
        assert isinstance(row, IntRow) and row.den > 0, trial
        assert list(row.terms) == [j for j, c in coeffs.items() if c], trial
        assert all(F(row.terms[j], row.den) == c for j, c in coeffs.items() if c), trial
        assert F(row.rhs, row.den) == rhs, trial
        assert math.gcd(row.rhs, row.den, *row.terms.values()) == 1, trial
        if all(c.denominator == 1 for c in (*coeffs.values(), rhs)):
            assert row.den == 1, trial


def test_recheck_rejects_a_perturbed_point_on_an_integral_row():
    rng = random.Random(48)
    for trial in range(200):
        n = rng.randint(1, 4)
        coeffs = {j: F(rng.choice([-3, -2, -1, 1, 2, 3])) for j in range(1, n)}
        coeffs[0] = F(rng.choice([-1, 1]))
        b = F(rng.randint(-6, 6))
        # x = X / D with x0 solved from the row, so each relation holds
        # with equality
        D = rng.randint(1, 5)
        X = [0] + [rng.randint(-10, 10) for _ in range(1, n)]
        X[0] = int((b * D - sum(c * X[j] for j, c in coeffs.items())) / coeffs[0])
        row = integer_row(coeffs, b)
        assert row.den == 1
        nothing = IntRow({}, 0, 1)
        for rel in RowRel:
            simplex._check_solution([False] * n, [(row, rel)], nothing, X, D, F(0))
        # one numerator step along a coefficient's sign raises the left side
        j = rng.randrange(n)
        up = list(X)
        up[j] += 1 if coeffs[j] > 0 else -1
        down = list(X)
        down[j] -= 1 if coeffs[j] > 0 else -1
        for rel, point in ((RowRel.EQ, up), (RowRel.LE, up), (RowRel.GE, down)):
            with pytest.raises(AssertionError, match="row violated"):
                simplex._check_solution([False] * n, [(row, rel)], nothing, point, D, F(0))


# -- the presolve and the tableau it starts from ----------------------------------

def _rounds_start(n, nonneg, rows):
    """The tableau start the presolve by rounds and a row-by-row build
    give: drop every row 0 rel 0; pin every one-entry zero-rhs equality,
    delete the pins from every row and drop 0 rel 0, until nothing is
    pinned; then split each row, add its slack, negate it to a
    nonnegative right-hand side (or a basic slack), and start it on its
    own column, its slack or an artificial. Returns the rows' items, rhs,
    den, basis and artificials."""
    pinned = set()
    rows = [(row, rel) for row, rel in rows if row[0] or row[1]]
    while pins := {j for (t, r, _), rel in rows if r == 0 and rel is RowRel.EQ and len(t) == 1
                   for j in t}:
        pinned |= pins
        rows = [(row if pins.isdisjoint(row[0]) else
                 simplex._reduced({j: v for j, v in row[0].items() if j not in pins}, *row[1:]), rel)
                for row, rel in rows]
        rows = [(row, rel) for row, rel in rows if row[0] or row[1]]
    col_of, ncols = {}, 0
    for j in range(n):
        if j not in pinned:
            col_of[j] = (ncols, -1) if nonneg[j] else (ncols, ncols + 1)
            ncols += 1 if nonneg[j] else 2
    slack, art = ncols, ncols + sum(rel is not RowRel.EQ for _, rel in rows)
    readers = collections.Counter(j for (t, _, _), _ in rows for j in t)
    start = ([], [], [], [], [])
    for (terms, r, d), rel in rows:
        row = {}
        for j, v in terms.items():
            row[col_of[j][0]] = v
            if col_of[j][1] >= 0:
                row[col_of[j][1]] = -v
        if rel is not RowRel.EQ:
            row[slack] = d if rel is RowRel.LE else -d
        if r < 0 or (r == 0 and rel is RowRel.GE):
            row, r = {j: -v for j, v in row.items()}, -r
        owned = [j for j in terms if readers[j] == 1] if rel is RowRel.EQ and r == 0 else []
        if rel is not RowRel.EQ and row[slack] > 0:
            b = slack
        elif owned:
            b = col_of[max(owned)][0]
            if row[b] < 0:
                row = {j: -v for j, v in row.items()}
            row, r, d = simplex._reduced(row, 0, row[b])
        else:
            b = art
            row[art] = d
            start[4].append(art)
            art += 1
        slack += rel is not RowRel.EQ
        for part, item in zip(start, (list(row.items()), r, d, b)):
            part.append(item)
    return list(start)


_TABLEAU = simplex._Tableau


def _assert_same_start(monkeypatch, n, nonneg, rows, objective):
    """The worklist presolve and the one-pass build start the tableau
    where the presolve by rounds and the row-by-row build do: the rows
    (their items in order), rhs, den and basis it is built with, and the
    artificial columns `feasible_start` gets."""
    start = []

    class Recording(_TABLEAU):
        def __init__(self, rows, rhs, den, basis, pivot_cap):
            start.extend(([list(row.items()) for row in rows], list(rhs), list(den), list(basis)))
            super().__init__(rows, rhs, den, basis, pivot_cap)

        def feasible_start(self, art):
            start.append(sorted(art))
            return super().feasible_start(art)

    monkeypatch.setattr(simplex, "_Tableau", Recording)
    simplex.solve(n, nonneg, rows, objective)
    monkeypatch.undo()
    assert start == _rounds_start(n, nonneg, rows)


@pytest.mark.parametrize("seed,make", [(45, _planted(_general(_rational))),
                                       (46, _planted(_homogeneous)), (47, _owned(_homogeneous)),
                                       (48, _owned(_planted(_homogeneous)))],
                         ids=["planted-rational", "planted-homogeneous", "owned-homogeneous",
                              "owned-planted"])
def test_tableau_start_matches_the_presolve_by_rounds(seed, make, monkeypatch):
    rng = random.Random(seed)
    for _ in range(400):
        n, nonneg, rows, obj = make(rng)
        _assert_same_start(monkeypatch, n, nonneg, [(integer_row(c, b), rel) for c, rel, b in rows],
                           integer_row(obj, F(0)))


def test_row_without_terms_and_rhs_zero_is_dropped_without_a_pin(monkeypatch):
    # nothing is pinned, and each 0 rel 0 row gets no tableau row, so no
    # artificial that the drive-out would have to delete
    starts = []

    class Recording(_TABLEAU):
        def __init__(self, rows, *args):
            starts.append(len(rows))
            super().__init__(rows, *args)

    monkeypatch.setattr(simplex, "_Tableau", Recording)
    rows = [(IntRow({}, 0, 1), rel) for rel in RowRel] + [(IntRow({0: 1, 1: 1}, 2, 1), RowRel.LE)]
    r = simplex.solve(2, [True, True], rows, IntRow({0: 1}, 0, 1))
    assert starts == [1]
    assert r.status is LPStatus.OPTIMAL and r.value == 2 and r.pivots == 1


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_iteration_lps_start_as_the_presolve_by_rounds_does(name, monkeypatch):
    lps = []

    def recording(lp, *args, **kwargs):
        lps.append(lp)
        return farkas.solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(synthesis, "solve_lp", recording)
    synthesize(*PROGRAMS[name]())
    monkeypatch.undo()
    assert lps
    for lp in lps:
        _assert_same_start(monkeypatch, lp.num_vars(), lp.nonneg, lp.constraints, lp.objective)


class _CountedTerms(dict):
    """A row's terms that count how often the row is read whole."""
    reads = 0

    def _read(self):
        self.reads += 1

    def items(self):
        self._read()
        return super().items()

    def values(self):
        self._read()
        return super().values()

    def __iter__(self):
        self._read()
        return super().__iter__()

    def __len__(self):
        self._read()
        return super().__len__()


def test_long_pin_chain_reads_each_row_a_bounded_number_of_times():
    # x0 = 0, x0 + x1 = 0, ..., x(k-2) + x(k-1) = 0 pins x0, ..., x(k-1)
    # one at a time; the <= row keeps x(k) and a slack that starts basic
    k = 2000
    rows = [(IntRow(_CountedTerms({0: 1}), 0, 1), RowRel.EQ)]
    rows += [(IntRow(_CountedTerms({j - 1: 1, j: 1}), 0, 1), RowRel.EQ) for j in range(1, k)]
    rows.append((IntRow(_CountedTerms({k - 1: 2, k: 1}), 1, 1), RowRel.LE))
    r = simplex.solve(k + 1, [False] * k + [True], rows, IntRow({k - 1: 1, k: -1}, 0, 1))
    assert r.status is LPStatus.OPTIMAL and r.pivots == 0 and r.value == 0
    assert r.x == [0] * (k + 1)
    assert max(terms.reads for (terms, _, _), _ in rows) <= 8
