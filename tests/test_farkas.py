"""Implication encoding, feasibility and entailment queries."""

import functools
import random
from fractions import Fraction as F

import pytest
from scipy.optimize import linprog

from probterm import (LinConstraint, LinExpr, LPProblem, Polyhedron,
                      check_feasible, encode_implication, entails, solve_lp)
from probterm import farkas
from probterm.farkas import dump_lp
from probterm.linear import Rel
from probterm.simplex import IntRow, LPStatus, PivotCapReached, RowRel, integer_row

from conftest import encode_into, lifted

x = LinExpr.var(0)
y = LinExpr.var(1)
c = LinExpr.const


def poly(*constraints):
    return Polyhedron(list(constraints))


# -- feasibility -----------------------------------------------------------------


def test_infeasible_box():
    ok, _ = check_feasible(poly(LinConstraint.le(x + c(1)), LinConstraint.le(-x)))
    assert not ok  # x <= -1 and x >= 0


def test_strict_band_feasible_with_witness():
    ok, w = check_feasible(poly(LinConstraint.le(-x), LinConstraint.lt(x - c(1))))
    assert ok and w[0] >= 0 and w[0] < 1


def test_empty_conjunction_feasible():
    ok, w = check_feasible(poly())
    assert ok and w == {}


def test_strictness_matters():
    # x >= 1 and x < 1: non-strict relaxation is feasible, the system is not
    ok, _ = check_feasible(poly(LinConstraint.le(c(1) - x), LinConstraint.lt(x - c(1))))
    assert not ok


# -- entailment -------------------------------------------------------------------


def test_entails_sum_nonneg():
    p = poly(LinConstraint.le(-x), LinConstraint.le(-y))
    ok, _ = entails(p, x + y)
    assert ok


def test_entails_counterexample_point_is_inside():
    p = poly(LinConstraint.le(-x))
    ok, w = entails(p, x - c(1))  # x >= 1 ?
    assert not ok
    assert w[0] >= 0 and w[0] < 1


def test_infeasible_entails_anything():
    p = poly(LinConstraint.le(x + c(1)), LinConstraint.le(-x))
    ok, _ = entails(p, c(-10**9))
    assert ok


def test_strictly_empty_antecedent_entails_anything():
    # {x >= 1, x < 1} is empty, but its relaxation {x = 1} is not: the two
    # rows add up to the false constant row 0 < 0
    p = poly(LinConstraint.le(c(1) - x), LinConstraint.lt(x - c(1)))
    assert entails(p, -x) == (True, None)


def test_entails_respects_strict_antecedent():
    # on {x < 0}: -x > 0, so -x >= 0 holds even though the relaxed set
    # touches x = 0
    p = poly(LinConstraint.lt(x))
    ok, _ = entails(p, -x)
    assert ok


def test_entails_equality_consequent():
    # an equality consequent is two inequality entailments
    p = poly(LinConstraint.eq(x - y))
    assert entails(p, x - y) == (True, None)
    assert entails(p, y - x) == (True, None)
    assert entails(p, y - x + c(1)) == (True, None)
    ok, w = entails(p, x - y - c(1))
    assert not ok and w[0] == w[1]


@pytest.fixture
def solves(monkeypatch):
    """The results of every `simplex.solve` call, in call order."""
    results = []
    solve = farkas.simplex.solve

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(farkas.simplex, "solve", recording)
    return results


def test_constant_rows_are_decided_without_an_lp(solves):
    assert check_feasible(poly(LinConstraint.le(c(1)), LinConstraint.le(-x))) == (False, None)
    assert entails(poly(LinConstraint.le(-x)), c(0)) == (True, None)
    assert entails(poly(), c(3)) == (True, None)
    assert solves == []


def test_negative_constant_consequent_fails_at_a_point_of_p(solves):
    # x >= 2 and y = 5 give the box point x = 3, y = 5, which satisfies
    # x < y too: it is the counterexample, with no LP
    p = poly(LinConstraint.le(c(2) - x), LinConstraint.lt(x - y), LinConstraint.eq(y - c(5)))
    assert entails(p, c(-1)) == (False, {0: F(3), 1: F(5)})
    assert solves == []


def test_strict_antecedent_holds_through_a_zero_gap(solves):
    # x > 0 and y > 0 entail x + y >= 0: a point with x + y < 0 as well
    # would need a positive gap under all three strict rows, and the best
    # gap is 0; no two of the rows contradict, so only the LP decides
    assert entails(poly(LinConstraint.lt(-x), LinConstraint.lt(-y)), x + y) == (True, None)
    [res] = solves
    assert res.status is LPStatus.OPTIMAL and res.value == 0


def _gap_lp_verdict(p, n):
    """Float oracle: does the gap LP of `p` (constant rows included) have a
    positive optimum? Same LP shape as `check_feasible`, solved by scipy."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in p.constraints:
        row = [float(con.lhs.coeff(i)) for i in range(n)]
        if con.rel is Rel.EQ:
            a_eq.append(row + [0.0])
            b_eq.append(-float(con.lhs.constant))
        else:
            a_ub.append(row + [1.0 if con.rel is Rel.LT else 0.0])
            b_ub.append(-float(con.lhs.constant))
    res = linprog([0.0] * n + [-1.0], A_ub=a_ub or None, b_ub=b_ub or None,
                  A_eq=a_eq or None, b_eq=b_eq or None,
                  bounds=[(None, None)] * n + [(0, 1)], method="highs")
    assert res.status in (0, 2)
    return res.status == 0 and -res.fun > 1e-7


def test_entails_agrees_with_float_gap_lp():
    """Random small polyhedra with strict, equality and constant rows:
    every counterexample is a point of p where e < 0, exactly, and every
    verdict matches scipy's solve of the same gap LP."""
    rng = random.Random(16)
    rels = [Rel.LE, Rel.LT, Rel.EQ]
    seen = {"holds": 0, "fails": 0, "constant": 0}
    for trial in range(300):
        n = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(0, 4)):
            lhs = rand_expr(rng, n) if rng.random() < 0.8 else c(rng.randint(-2, 2))
            rows.append(LinConstraint(lhs, rng.choice(rels)))
        p = poly(*rows)
        e = rand_expr(rng, n) if rng.random() < 0.8 else c(rng.randint(-2, 2))
        ok, w = entails(p, e)
        if not ok:
            point = [w.get(i, F(0)) for i in range(n)]
            assert p.satisfied(point) and e.evaluate(point) < 0, trial
        assert ok == (not _gap_lp_verdict(poly(*rows, LinConstraint.lt(e)), n)), trial
        seen["fails" if not ok else "holds"] += 1
        seen["constant"] += any(not r.lhs.coeffs for r in rows) or not e.coeffs
    assert min(seen.values()) > 50, seen


def test_capped_queries_raise(monkeypatch):
    # a capped LP answers neither yes nor no
    monkeypatch.setattr(farkas.simplex, "solve",
                        functools.partial(farkas.simplex.solve, pivot_cap=0))
    # x + y <= 0, x - y <= -1 and x >= 1 are empty only through all three
    # rows, so no bound conflict or box point settles them, and phase 1 must
    # pivot
    band = [LinConstraint.le(x + y), LinConstraint.le(x - y + c(1))]
    with pytest.raises(PivotCapReached):
        check_feasible(poly(*band, LinConstraint.le(c(1) - x)))
    # the same three rows as an entailment query: x > 1 is the negated
    # consequent
    with pytest.raises(PivotCapReached):
        entails(poly(*band), c(1) - x)


# -- bound conflicts and box points -------------------------------------------------


def lp_only(rows, n):
    """The answer of the LP path alone: a false constant row, or else the
    gap LP over the other rows."""
    if any(not r.lhs.coeffs and not r.satisfied({}) for r in rows):
        return False, None
    return farkas._gap_lp(rows, n)


def random_polyhedron(rng, n):
    """Rows over n variables, each over a random nonempty subset of them:
    `<=`, `<` and `=` rows, constant rows, and rows proportional to an
    earlier row at another scale and sign, with a nearby constant."""
    rows = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.1:
            lhs = c(rng.randint(-2, 2))
        elif kind < 0.45 and rows and any(r.lhs.coeffs for r in rows):
            base = rng.choice([r for r in rows if r.lhs.coeffs]).lhs
            scale = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            lhs = LinExpr({i: v * scale for i, v in base.coeffs.items()},
                          base.constant * scale + rng.randint(-2, 2))
        else:
            used = rng.sample(range(n), rng.randint(1, min(n, 2)))
            lhs = LinExpr({i: F(rng.choice([-3, -2, -1, 1, 2, 3])) for i in used},
                          F(rng.randint(-4, 4)))
        rows.append(LinConstraint(lhs, rng.choice([Rel.LE, Rel.LE, Rel.LT, Rel.EQ])))
    return rows


def test_certificates_agree_with_the_lp_path(monkeypatch):
    """Seeded polyhedra over 1-4 variables: `check_feasible` gives the LP
    path's answer on every one, whichever test settles it, and its point
    satisfies every row exactly and has an entry for each variable below
    the largest one used. `entails` gives the LP path's verdict too, and
    its counterexample satisfies p and e < 0 exactly, many of them a box
    point found with no LP."""
    rng = random.Random(29)
    solve = farkas.simplex.solve
    spent = []

    def counting(*args, **kwargs):
        spent.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(farkas.simplex, "solve", counting)
    settled = {"constant": 0, "pair": 0, "point": 0, "lp": 0,
               "entails.pair": 0, "entails.point": 0}
    for trial in range(600):
        n = rng.randint(1, 4)
        rows = random_polyhedron(rng, n)
        nvars = max((i for r in rows for i in r.lhs.coeffs), default=-1) + 1
        expected = lp_only(rows, nvars)
        del spent[:]
        ok, w = check_feasible(poly(*rows))
        assert ok == expected[0], (trial, rows)
        if ok:
            assert sorted(w) == list(range(nvars)) and poly(*rows).satisfied(w), trial
        else:
            assert w is None
        if spent:
            settled["lp"] += 1
            assert (ok, w) == expected, trial
        elif any(not r.lhs.coeffs and not r.satisfied({}) for r in rows):
            settled["constant"] += 1
        else:
            settled["point" if ok else "pair"] += 1

        e = rand_expr(rng, n) if rng.random() < 0.7 else rows[0].lhs.scale(-2) if rows else c(1)
        query = rows + [LinConstraint.lt(e)]
        lp_verdict, _ = lp_only(query, max(nvars, max(e.coeffs, default=-1) + 1))
        del spent[:]
        ok, w = entails(poly(*rows), e)
        assert ok == (not lp_verdict), trial
        if ok:
            assert w is None
            settled["entails.pair"] += not spent
        else:
            assert poly(*query).satisfied(w), trial
            settled["entails.point"] += not spent
    assert min(settled.values()) >= 40, settled


def test_box_point_missing_a_strict_row_goes_to_the_lp(solves):
    # 0 <= x <= 2 gives the box point x = 1, y = 0, which misses x + y > 1
    # by its strictness alone: the LP finds a point
    rows = [LinConstraint.le(-x), LinConstraint.le(x - c(2)), LinConstraint.lt(c(1) - x - y)]
    assert farkas._box_point(*farkas._scan(rows), 2) is None
    ok, w = check_feasible(poly(*rows))
    assert ok and poly(*rows).satisfied(w) and len(solves) == 1
    # without the strictness the box point is a witness, with no LP
    rows[-1] = LinConstraint.le(c(1) - x - y)
    assert check_feasible(poly(*rows)) == (True, {0: F(1), 1: F(0)})
    assert len(solves) == 1


@pytest.mark.parametrize("rows", [
    # proportional rows pointing the same way, strict or not: never a
    # contradiction, though one minus a multiple of the other is a false
    # constant row
    [LinConstraint.le(x + c(1)), LinConstraint.le(x.scale(2) - c(4))],
    [LinConstraint.lt(x + c(1)), LinConstraint.lt(x.scale(3) - c(6))],
    [LinConstraint.le(x - y + c(1)), LinConstraint.lt((x - y).scale(2) - c(5))],
    [LinConstraint.eq(x - y), LinConstraint.le((x - y).scale(3) - c(1))],
], ids=["le", "lt", "two-variables", "equality"])
def test_same_way_rows_are_not_a_contradiction(rows, solves):
    assert farkas._scan(rows) is not None
    ok, w = check_feasible(poly(*rows))
    assert ok and poly(*rows).satisfied(w)


@pytest.mark.parametrize("rows", [
    [LinConstraint.le(x.scale(2) - c(4)), LinConstraint.lt(c(6) - x.scale(3))],
    [LinConstraint.eq(x - c(1)), LinConstraint.le(x.scale(3))],
    [LinConstraint.le(x.scale(3)), LinConstraint.eq(x - c(1))],
    # x <= 1 and x >= 1 agree; x < 1 or x > 1 ties with one of them, and
    # the tie is the tighter bound however the rows are listed
    [LinConstraint.le(x - c(1)), LinConstraint.lt(x - c(1)), LinConstraint.le(c(1) - x)],
    [LinConstraint.le(c(1) - x), LinConstraint.lt(c(1) - x), LinConstraint.le(x - c(1))],
], ids=["scaled-strict", "equality-first", "equality-second", "strict-upper-tie",
        "strict-lower-tie"])
def test_contradicting_pairs_need_no_lp(rows, solves):
    assert check_feasible(poly(*rows)) == (False, None)
    assert check_feasible(poly(*reversed(rows))) == (False, None)
    assert solves == []


@pytest.mark.parametrize("rows", [
    [LinConstraint.eq(x - y - c(1)), LinConstraint.eq((y - x).scale(2))],
    [LinConstraint.le(c(1) - x - y), LinConstraint.le((x + y).scale(F(1, 2)))],
], ids=["equalities", "two-variables"])
def test_contradicting_wide_rows_need_one_lp(rows, solves):
    # two rows over two variables bound neither variable alone, so the
    # gap LP decides them, once in either order
    assert check_feasible(poly(*rows)) == (False, None)
    assert len(solves) == 1
    assert check_feasible(poly(*reversed(rows))) == (False, None)
    assert len(solves) == 2


# -- the encoder -------------------------------------------------------------------


def test_encoder_hand_multiplier():
    # forall x: x >= 0  ->  2x + 1 >= 0, witnessed by multiplier 2
    lp = LPProblem()
    lams = encode_into(poly(LinConstraint.le(-x)), lifted(x.scale(2) + c(1)), lp)
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.x[lams[0]] == 2


def test_encoder_false_implication_infeasible():
    # forall x in [0,1]: x >= 2 is false at both vertices, so the
    # multiplier system must be infeasible
    ante = poly(LinConstraint.le(-x), LinConstraint.le(x - c(1)))
    for vertex in (F(0), F(1)):
        assert vertex < 2  # the vertex-enumeration oracle for the claim
    lp = LPProblem()
    encode_into(ante, lifted(x - c(2)), lp)
    assert solve_lp(lp).status is LPStatus.INFEASIBLE


def test_encoder_empty_antecedent_constant_consequent():
    # forall x: true -> t >= 0 reduces to the constraint t >= 0
    lp = LPProblem()
    t = lp.add_var("t")
    encode_into(poly(), LinExpr({}, LinExpr.var(t)), lp)
    lp.objective = IntRow({t: -1}, 0, 1)
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL and sol.x[t] == 0


def test_encoder_zero_consequent_emits_nothing():
    # a consequent that cancels to 0 holds everywhere: the LP gets no
    # multiplier and no row
    lp = LPProblem()
    a = lp.add_var("a")
    here = LinExpr({0: LinExpr.var(a)}, LinExpr.var(a))
    assert encode_into(poly(LinConstraint.le(-x)), here - here, lp) == []
    assert lp.names == ["a"] and lp.constraints == []


def test_encoder_reads_strict_rows_as_relaxed():
    # a strict row is encoded as its relaxation: the LP is the one built
    # from the relaxed antecedent, row for row
    ante = poly(LinConstraint.lt(x - c(1)), LinConstraint.eq(x - y),
                LinConstraint.lt(-y))
    relaxed = poly(LinConstraint.le(x - c(1)), LinConstraint.eq(x - y),
                   LinConstraint.le(-y))
    dumps = []
    for antecedent in (ante, relaxed):
        lp = LPProblem()
        a, b = lp.add_var("a"), lp.add_var("b")
        consequent = LinExpr({0: LinExpr.var(a), 1: LinExpr.const(-1)}, LinExpr.var(b))
        encode_into(antecedent, consequent, lp)
        dumps.append(dump_lp(lp))
    assert dumps[0] == dumps[1]
    assert " lam_3 >= 0" in dumps[0]  # one multiplier per row, equality split


def rand_expr(rng, n, span=3):
    return LinExpr({j: F(rng.randint(-span, span)) for j in range(n)},
                   F(rng.randint(-4, 4)))


def test_encoder_agrees_with_entailment_oracle():
    """Dual-route check on random instances: the multiplier system is
    feasible exactly when brute-force optimization proves the implication."""
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        ante = poly(*[LinConstraint.le(rand_expr(rng, n))
                      for _ in range(rng.randint(1, 5))])
        feasible, _ = check_feasible(ante)
        if not feasible:
            continue
        cons = rand_expr(rng, n)
        truth, _ = entails(ante, cons)
        lp = LPProblem()
        encode_into(ante, lifted(cons), lp)
        assert (solve_lp(lp).status is LPStatus.OPTIMAL) == truth
        checked += 1
    assert checked > 150


def test_encoder_complete_on_feasible_antecedents():
    """Whenever the entailment holds on a feasible antecedent, multipliers
    exist (the completeness direction)."""
    rng = random.Random(8)
    found = 0
    while found < 60:
        n = rng.randint(1, 2)
        ante = poly(*[LinConstraint.le(rand_expr(rng, n))
                      for _ in range(rng.randint(1, 4))])
        feasible, _ = check_feasible(ante)
        if not feasible:
            continue
        cons = rand_expr(rng, n)
        truth, _ = entails(ante, cons)
        if not truth:
            continue
        lp = LPProblem()
        encode_into(ante, lifted(cons), lp)
        assert solve_lp(lp).status is LPStatus.OPTIMAL
        found += 1


def reference_rows(antecedent, consequent, first):
    """The rows of "`antecedent` implies `consequent` >= 0", each built as
    a dict of Fractions and converted by `integer_row`, its multipliers
    numbered from column `first`: per row its terms in order, rhs, den
    and relation."""
    halves = []   # A x <= b, an equality as its two halves
    for cons in antecedent.constraints:
        halves.append((dict(cons.lhs.coeffs), -cons.lhs.constant))
        if cons.rel is Rel.EQ:
            halves.append(({i: -a for i, a in cons.lhs.coeffs.items()}, cons.lhs.constant))
    lams = range(first, first + len(halves))
    rows = []

    def add(base, terms, rel):
        coeffs = dict(base.coeffs) if base is not None else {}
        coeffs.update(terms)
        form = integer_row(coeffs, -base.constant if base is not None else F(0))
        rows.append((list(form.terms.items()), form.rhs, form.den, rel))

    variables = set(consequent.coeffs).union(*(a for a, _ in halves))
    for i in sorted(variables):
        add(consequent.coeffs.get(i),
            [(lam, a[i]) for lam, (a, _) in zip(lams, halves) if i in a], RowRel.EQ)
    add(consequent.constant, [(lam, -b) for lam, (_, b) in zip(lams, halves) if b], RowRel.GE)
    return rows


def test_encoder_rows_match_the_rational_reference():
    """`encode_implication` writes, row for row, what the reference builds
    from Fractions: on rational and integral antecedents with equalities
    and zero constants, and on consequents whose template coefficients
    carry rational factors, as the pre-expectation of a 1/3 branch does.
    A `Block` and the LP it is placed into get the same rows."""
    from probterm.farkas import Block
    rng = random.Random(41)
    width = 6   # template columns 0 .. 5, then the multipliers

    def rational():
        return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    def expr(n, value):
        return LinExpr({i: value() for i in rng.sample(range(n), rng.randint(0, n))}, value())

    def template():
        return LinExpr({i: LinExpr.var(k) for i, k in enumerate(rng.sample(range(width), 2))},
                       LinExpr.var(rng.randrange(width)))

    def consequent(n):
        if rng.random() < 0.5:
            return expr(n, lambda: expr(width, rational))
        here, there, other = template(), template(), template()
        pre = there.scale(F(1, 3)) + other.scale(F(2, 3))
        return (here - pre).shift(LinExpr.var(rng.randrange(width), -1))

    relations = (LinConstraint.le, LinConstraint.lt, LinConstraint.eq)
    dens = set()
    for trial in range(300):
        value = rational if rng.random() < 0.5 else (lambda: F(rng.randint(-3, 3)))
        ante = poly(*[rng.choice(relations)(expr(2, value)) for _ in range(rng.randint(0, 4))])
        cons = consequent(2)
        tag = rng.choice(("lam", "rk.t1"))
        expected = reference_rows(ante, cons, width)
        block = Block(width)
        lp = LPProblem()
        for _ in range(width):
            lp.add_var("t")
        lams = encode_into(ante, cons, lp, tag)
        assert encode_implication(ante, cons, block, tag) == lams
        if not cons:
            assert lams == [] and lp.constraints == block.rows == []
            continue
        assert [(list(form.terms.items()), form.rhs, form.den, rel)
                for form, rel in lp.constraints] == expected, trial
        assert [(list(terms.items()), rhs, den, rel)
                for terms, rhs, den, rel in block.rows] == expected, trial
        assert lams == list(range(width, width + len(block.tags)))
        assert lp.names[width:] == [(tag, k) for k in range(len(lams))]
        assert block.tags == [tag] * len(lams)
        dens.update(den for _, _, den, _ in expected)
    # the integral rows and the rows that `integer_row` scales both occur
    assert 1 in dens and dens - {1}


def test_solve_lp_examples():
    lp = LPProblem()
    v = lp.add_var("v", nonneg=True)
    lp.add_row({v: 1}, 3, 1, RowRel.LE)
    lp.objective = IntRow({v: 1}, 0, 1)
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL and sol.value == 3

    lp = LPProblem()
    v = lp.add_var("v", nonneg=True)
    lp.objective = IntRow({v: 1}, 0, 1)
    assert solve_lp(lp).status is LPStatus.UNBOUNDED

    lp = LPProblem()
    v = lp.add_var("v", nonneg=True)
    lp.add_row({v: 1}, -1, 1, RowRel.LE)
    assert solve_lp(lp).status is LPStatus.INFEASIBLE


def test_lp_dump_format():
    lp = LPProblem()
    coeff = lp.add_var("c[l0][x]")
    lam = lp.add_var("lam.0", nonneg=True)
    lp.add_row({coeff: 1, lam: 2}, 0, 1, RowRel.EQ)
    lp.objective = IntRow({coeff: 1}, 0, 1)
    text = dump_lp(lp)
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")


def _parts(e: LinExpr):
    """Coefficients and constant, a `LinExpr` over LP columns as its terms
    in order."""
    def part(v):
        return (list(v.coeffs.items()), v.constant) if isinstance(v, LinExpr) else v
    return [(i, part(v)) for i, v in e.coeffs.items()], part(e.constant)


def test_subtraction_is_adding_the_negation_term_for_term():
    # templates, concrete expressions and the two mixed; shared unknowns
    # cancel, and a coefficient cancels to nothing
    rng = random.Random(50)

    def draw(affine):
        coeffs = {}
        for i in rng.sample(range(3), rng.randint(0, 3)):
            if affine:
                coeffs[i] = LinExpr({n: F(rng.randint(-2, 2)) for n in rng.sample(range(3), 2)},
                                    rng.randint(-1, 1))
            else:
                coeffs[i] = F(rng.randint(-2, 2), rng.randint(1, 2))
        const = LinExpr.var(rng.choice(range(3)), rng.randint(-1, 1)) if affine else F(rng.randint(-2, 2))
        return LinExpr(coeffs, const)

    for trial in range(300):
        a, b = draw(rng.random() < 0.7), draw(rng.random() < 0.7)
        for left, right in ((a, b), (a, a), (b, a)):
            assert _parts(left - right) == _parts(left + right.scale(-1)), trial


@pytest.mark.parametrize("f", [1, -1, F(1, 2)])
def test_affine_scale_owns_its_terms(f):
    # a template coefficient is a LinExpr over LP columns
    a = LinExpr({0: F(2), 1: F(-3)}, F(1))
    scaled = a.scale(f)
    assert list(scaled.coeffs.items()) == [(k, v * f) for k, v in a.coeffs.items()]
    assert scaled.constant == a.constant * f
    scaled.coeffs[2] = F(1)
    assert a.coeffs == {0: F(2), 1: F(-3)}
    negated = -a
    negated.coeffs[2] = F(1)
    assert a.coeffs == {0: F(2), 1: F(-3)}
