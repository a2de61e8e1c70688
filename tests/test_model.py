"""Core domain types: exact arithmetic, predicates, structural checks."""

import random
from fractions import Fraction

import pytest

from probterm import (DistributionSpec, EncodingBlowup, GuardedStep, Invariant,
                      LinConstraint, LinExpr, LinExprMap, NoUpdate, PCFG, Polyhedron,
                      Predicate, ProbBranch, Rel, Transition, check_bsp,
                      check_linpp_star, negate_predicate, validate_pcfg)

from conftest import load_fixture


def rand_rational(rng, span=50):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def test_rational_roundtrip_exact():
    rng = random.Random(0)
    for _ in range(500):
        a, b = rand_rational(rng), rand_rational(rng)
        assert (a + b) - b == a
        assert a.denominator > 0


def test_linexpr_drops_zero_coefficients():
    e = LinExpr({0: Fraction(1), 1: Fraction(0)}, Fraction(2))
    assert 1 not in e.coeffs
    assert (e - e).coeffs == {}


def test_linexpr_evaluation_is_linear():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 4)
        e1 = LinExpr({i: rand_rational(rng) for i in range(n)}, rand_rational(rng))
        e2 = LinExpr({i: rand_rational(rng) for i in range(n)}, rand_rational(rng))
        alpha = rand_rational(rng)
        x = [rand_rational(rng) for _ in range(n)]
        assert (e1.scale(alpha) + e2).evaluate(x) == \
            alpha * e1.evaluate(x) + e2.evaluate(x)


def test_linexpr_substitute():
    e = LinExpr({0: Fraction(2), 1: Fraction(1)}, Fraction(5))
    sub = e.substitute(0, LinExpr({1: Fraction(3)}, Fraction(-1)))
    assert sub == LinExpr({1: Fraction(7)}, Fraction(3))


# -- structural validation -----------------------------------------------------


def test_reference_pcfgs_validate_clean(fig1a, fig1b):
    assert validate_pcfg(fig1a[0]) == []
    assert validate_pcfg(fig1b[0]) == []


def test_terminal_with_outgoing_edge_flagged(fig1b):
    p, _ = fig1b
    bad = PCFG(p.variables, p.locations, p.init_location, p.terminal_location,
               p.transitions + [Transition("t9", "out",
                                           GuardedStep("l0", Predicate.true(), NoUpdate()))])
    codes = {d.code for d in validate_pcfg(bad)}
    assert codes == {"NonSelfLoopAtTerminal"}


def test_pb_probabilities_must_sum_to_one():
    p = PCFG(["x"], ["a", "b", "c", "out"], "a", "out", [
        Transition("t0", "a", ProbBranch("b", Fraction(3, 5), "c", Fraction(1, 2))),
        Transition("t1", "b", GuardedStep("out", Predicate.true(), NoUpdate())),
        Transition("t2", "c", GuardedStep("out", Predicate.true(), NoUpdate())),
    ])
    codes = {d.code for d in validate_pcfg(p)}
    assert "PBProbNotOne" in codes


def test_pb_needs_distinct_targets():
    p = PCFG(["x"], ["a", "b", "out"], "a", "out", [
        Transition("t0", "a", ProbBranch("b", Fraction(1, 2), "b", Fraction(1, 2))),
        Transition("t1", "b", GuardedStep("out", Predicate.true(), NoUpdate())),
    ])
    assert "PBSameTarget" in {d.code for d in validate_pcfg(p)}


def test_dangling_location_flagged():
    p = PCFG(["x"], ["a", "b", "out"], "a", "out", [
        Transition("t0", "a", GuardedStep("out", Predicate.true(), NoUpdate())),
    ])
    codes = {d.code for d in validate_pcfg(p)}
    assert "NoOutgoing" in codes  # b has no outgoing transition


# -- bounded support ------------------------------------------------------------


def test_bsp_uniform_program(fig1b):
    ok, bound = check_bsp(fig1b[0])
    assert ok and bound == 7


def test_bsp_normal_program(fig1a):
    ok, bound = check_bsp(fig1a[0])
    assert not ok and bound is None


def test_bsp_no_sampling():
    p, _ = load_fixture("countdown")
    assert check_bsp(p) == (True, Fraction(0))


def test_bsp_bound_is_attained(fig1b):
    p, _ = fig1b
    _, bound = check_bsp(p)
    attained = []
    for t in p.transitions:
        d = t.samples_from()
        if d is not None:
            assert -bound <= d.support_lo and d.support_hi <= bound
            attained.append(abs(d.support_lo) == bound or abs(d.support_hi) == bound)
    assert any(attained)


def test_linpp_star(fig1a, fig1b):
    assert check_linpp_star(fig1a[0])
    assert check_linpp_star(fig1b[0])


def test_linpp_star_violation():
    d = DistributionSpec.normal(0, 1)
    from probterm import ExprUpdate
    p = PCFG(["x"], ["a", "b", "out"], "a", "out", [
        Transition("t0", "a", ProbBranch("b", Fraction(1, 2), "out", Fraction(1, 2))),
        Transition("t1", "b", GuardedStep("b", Predicate.true(),
                                          ExprUpdate(0, LinExpr({0: 1}), (Fraction(1), d)))),
    ])
    assert not check_linpp_star(p)  # b is PB successor and sampling target


def test_linpp_star_vacuous_without_branching(fig1b):
    assert all(not t.is_pb for t in fig1b[0].transitions)
    assert check_linpp_star(fig1b[0])


# -- guard negation ---------------------------------------------------------------


def ge(var, c=0):  # var >= c as a predicate
    return Predicate.of_constraints(
        [LinConstraint.le(LinExpr({var: -1}, Fraction(c)))])


def lt(var, c=0):
    return Predicate.of_constraints(
        [LinConstraint.lt(LinExpr({var: 1}, Fraction(-c)))])


def negate_union(guards, **kwargs):
    """DNF of ``not (g1 or ... or gn)``: the negation of the union of the
    guards' disjuncts, `true` for no guard."""
    return negate_predicate(Predicate([d for g in guards for d in g.disjuncts]),
                            **kwargs)


def test_negate_single_guard():
    neg = negate_union([ge(0)])
    assert len(neg.disjuncts) == 1
    [c] = neg.disjuncts[0].constraints
    assert c.rel is Rel.LT and c.lhs == LinExpr({0: 1})  # x < 0


def test_negate_conjunction_demorgan():
    guard = ge(0).conjoin(ge(1))  # x >= 0 and y >= 0
    neg = negate_union([guard])
    assert len(neg.disjuncts) == 2  # x < 0  or  y < 0


def test_negate_two_guards():
    # not(x >= 0 or y < 0)  ==  x < 0 and y >= 0
    neg = negate_union([ge(0), lt(1)])
    assert len(neg.disjuncts) == 1
    assert len(neg.disjuncts[0].constraints) == 2
    for point, expect in [((-1, 1), True), ((1, 1), False), ((-1, -1), False)]:
        vals = [Fraction(v) for v in point]
        assert neg.satisfied(vals) == expect


def test_negation_is_exact_complement():
    rng = random.Random(7)
    for _ in range(50):
        guards = []
        for _ in range(rng.randint(1, 3)):
            disjuncts = []
            for _ in range(rng.randint(1, 2)):
                cons = []
                for _ in range(rng.randint(1, 3)):
                    e = LinExpr({i: rand_rational(rng, 4) for i in range(2)},
                                rand_rational(rng, 4))
                    cons.append(LinConstraint(e, rng.choice([Rel.LE, Rel.LT, Rel.EQ])))
                disjuncts.append(Polyhedron(cons))
            guards.append(Predicate(disjuncts))
        union = Predicate([])
        for g in guards:
            union = union.disjoin(g)
        neg = negate_union(guards)
        for _ in range(20):
            x = [rand_rational(rng, 6) for _ in range(2)]
            assert union.satisfied(x) != neg.satisfied(x)


def test_negate_empty_guard_list_is_true():
    assert negate_union([]).is_true()


def test_dnf_cap_raises():
    # not of a wide disjunction of conjunctions multiplies out
    disjuncts = []
    for i in range(8):
        disjuncts.append(Polyhedron([
            LinConstraint.le(LinExpr({j: Fraction(i + j + 1)}, Fraction(1)))
            for j in range(4)]))
    wide = Predicate(disjuncts)
    with pytest.raises(EncodingBlowup):
        negate_union([wide], cap=100)


# -- where side conditions hold, and components as maps -----------------------------


def test_antecedents_order_without_context():
    # one antecedent per guard disjunct, invariant rows first
    inv_rows = [LinConstraint.le(-LinExpr.var(0)), LinConstraint.le(-LinExpr.var(1))]
    g1 = [LinConstraint.le(LinExpr.var(0) - LinExpr.const(3)),
          LinConstraint.lt(LinExpr.var(1))]
    g2 = [LinConstraint.eq(LinExpr.var(0) - LinExpr.var(1))]
    t = Transition("t", "a", GuardedStep("b", Predicate([Polyhedron(g1), Polyhedron(g2)]),
                                         NoUpdate()))
    inv = Invariant({"a": Polyhedron(inv_rows)})
    assert inv.antecedents(t) == [Polyhedron(inv_rows + g1), Polyhedron(inv_rows + g2)]
    # no invariant at the source: the guard disjuncts alone
    assert Invariant({}).antecedents(t) == [Polyhedron(g1), Polyhedron(g2)]


def test_antecedents_order_with_context():
    # guard disjunct outer, context disjunct inner; rows: invariant, guard, context
    inv_rows = [LinConstraint.le(-LinExpr.var(0))]
    g1, g2 = [LinConstraint.lt(LinExpr.var(1))], [LinConstraint.lt(-LinExpr.var(1))]
    c1 = [LinConstraint.le(LinExpr.var(0) - LinExpr.const(1))]
    c2 = [LinConstraint.le(LinExpr.const(2) - LinExpr.var(0)),
          LinConstraint.eq(LinExpr.var(1) - LinExpr.const(5))]
    t = Transition("t", "a", GuardedStep("b", Predicate([Polyhedron(g1), Polyhedron(g2)]),
                                         NoUpdate()))
    inv = Invariant({"a": Polyhedron(inv_rows)})
    ctx = Predicate([Polyhedron(c1), Polyhedron(c2)])
    assert inv.antecedents(t, ctx) == [Polyhedron(inv_rows + g + c)
                                       for g in (g1, g2) for c in (c1, c2)]
    # a branch is guard-true: one antecedent per context disjunct
    pb = Transition("p", "a", ProbBranch("b", Fraction(1, 2), "c", Fraction(1, 2)))
    assert inv.antecedents(pb) == [Polyhedron(inv_rows)]
    assert inv.antecedents(pb, ctx) == [Polyhedron(inv_rows + c1), Polyhedron(inv_rows + c2)]
    assert inv.antecedents(pb, Predicate.false()) == []


def test_component_is_one_index_across_locations():
    vec_a = [LinExpr.var(0), LinExpr.const(2)]
    vec_b = [LinExpr.var(1, 3), LinExpr.var(0, -1)]
    lem = LinExprMap(2, {"a": vec_a, "b": vec_b})
    assert lem.component(1) == {"a": vec_a[0], "b": vec_b[0]}
    assert lem.component(2) == {"a": vec_a[1], "b": vec_b[1]}
    assert all(lem.component(j)[loc] == lem.at(loc, j) for j in (1, 2) for loc in "ab")
