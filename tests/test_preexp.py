"""Pre-expectation algebra against hand values and Monte-Carlo draws."""

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from probterm import (DistributionSpec, GuardedStep, LinConstraint, LinExpr,
                      NondetUpdate, PCFG, Polyhedron, Predicate, ProbBranch, Rel,
                      Transition, entails, load_pcfg, pre_and_bounds, pre_pb_restricted)
from probterm.model import ExprUpdate, NoUpdate
from probterm.simulate import Program, UniformRandom, _integer_state, run_rngs

from conftest import fixture_path, load_fixture


def lin(p, cx=0, cy=0, c=0):
    return LinExpr({p.var_index("x"): F(cx), p.var_index("y"): F(cy)}, F(c))


def by_id(p, tid):
    return p.transition(tid)


def pre(p, eta, t):
    """The pre-expectation of `eta` across `t` in program `p`."""
    return pre_and_bounds(len(p.variables), eta, t)[0]


def at_end(expr, end, nvars=2):
    """`expr` with the demonic value, variable `nvars`, set to `end`."""
    return expr.substitute(nvars, LinExpr.const(end))


def test_sampling_mean_substitution(fig1a):
    # component x+1 across the inner self-loop x := x - 1 + noise(mean 0)
    p, _ = fig1a
    eta = {loc: lin(p, cx=1, c=1) for loc in p.locations}
    t = by_id(p, "t2")
    # x, and no demonic value to bound
    assert pre_and_bounds(2, eta, t) == (lin(p, cx=1, c=0), Polyhedron.true())


def test_uniform_mean_substitution(fig1b):
    # component y+7 across the if-branch self-loop y := y + U[-7,1]
    p, _ = fig1b
    eta = {loc: lin(p, cy=1, c=7) for loc in p.locations}
    t = by_id(p, "t1")
    assert pre(p, eta, t) == lin(p, cy=1, c=4)   # y + 4


def test_min_pre_example3_entry(fig1b):
    # component x+8 across l0 -> l1 with x := x + U[-7,1]
    p, _ = fig1b
    eta = {loc: lin(p, cx=1, c=8) for loc in p.locations}
    t = by_id(p, "t2")
    assert pre(p, eta, t) == lin(p, cx=1, c=5)   # x + 5


def test_constant_component_is_fixed_point(fig1b):
    p, _ = fig1b
    eta = {loc: lin(p, c=1) for loc in p.locations}
    for t in p.transitions:
        assert pre(p, eta, t) == lin(p, c=1)


def _nondet_transition(target=1, lo=0, hi=5):
    return Transition("n0", "a", GuardedStep("b", Predicate.true(),
                                             NondetUpdate(target, F(lo), F(hi))))


def test_nondet_endpoints():
    t = _nondet_transition()
    eta = {"b": LinExpr({1: F(2)}, F(1))}      # 2y + 1, increasing
    e, bounds = pre_and_bounds(2, eta, t)
    assert e == LinExpr({2: F(2)}, F(1))         # 2 * demonic + 1
    assert bounds == Polyhedron([LinConstraint.le(LinExpr({2: F(-1)})),
                                 LinConstraint.le(LinExpr({2: F(1)}, F(-5)))])
    assert at_end(e, 0) == LinExpr.const(1)    # minimal at lo
    assert at_end(e, 5) == LinExpr.const(11)   # maximal at hi
    eta_dec = {"b": LinExpr({1: F(-2)}, F(1))}
    e_dec, _ = pre_and_bounds(2, eta_dec, t)
    assert at_end(e_dec, 5) == LinExpr.const(-9)   # minimal at hi
    assert at_end(e_dec, 0) == LinExpr.const(1)    # maximal at lo


def test_endpoint_gap_rule():
    rng = random.Random(3)
    for _ in range(100):
        lo = F(rng.randint(-5, 5))
        hi = lo + F(rng.randint(0, 10))
        coeff = F(rng.randint(-6, 6))
        t = _nondet_transition(1, lo, hi)
        eta = {"b": LinExpr({0: F(rng.randint(-3, 3)), 1: coeff}, F(rng.randint(-4, 4)))}
        e, _ = pre_and_bounds(2, eta, t)
        gap = at_end(e, hi) - at_end(e, lo)
        assert gap == LinExpr.const(coeff * (hi - lo))   # |gap| = |coeff| * (hi - lo)


def test_bounded_demonic_value_agrees_with_both_ends():
    # a condition over the pre-expectation, on the antecedent conjoined
    # with the bounds, holds exactly where it holds with either end of the
    # interval substituted: the pre-expectation is linear in the value
    rng = random.Random(29)

    def form(span):
        """A random form over x0 and x1 that is 0 half the time."""
        if rng.random() < 0.5:
            return LinExpr()
        return LinExpr({i: F(rng.randint(-span, span)) for i in range(2)})

    agreed = {True: 0, False: 0}
    for _ in range(300):
        lo = F(rng.randint(-5, 5), rng.randint(1, 2))
        hi = lo + rng.choice([F(0), F(0), F(rng.randint(1, 6), rng.randint(1, 3))])
        t = _nondet_transition(1, lo, hi)
        coeff = F(rng.choice([0, 0, rng.randint(-4, -1), rng.randint(1, 4)]))
        eta = {"b": LinExpr({0: F(rng.randint(-3, 3)), 1: coeff}, F(rng.randint(-6, 6)))}
        if rng.random() < 0.5:
            eta["b"] = eta["b"] - LinExpr({0: eta["b"].coeff(0)})
        e, bounds = pre_and_bounds(2, eta, t)
        # as a decrease (source minus pre) or a nonnegativity (pre) condition
        if rng.random() < 0.5:
            e = form(2).shift(F(rng.randint(-4, 8))) - e
        if not e.coeffs.keys() - {2}:
            # it reads only the demonic value: make it tight at the worse end
            worse = min(at_end(e, lo).constant, at_end(e, hi).constant)
            e = e.shift(rng.choice([F(-1, 2), F(0), F(1, 2)]) - worse)
        ante = Polyhedron([LinConstraint(form(2).shift(F(rng.randint(-4, 4))),
                                         rng.choice([Rel.LE, Rel.LE, Rel.LT]))
                           for _ in range(rng.randint(1, 3))])
        ok = entails(ante.conjoin(bounds), e)[0]
        assert ok == all(entails(ante, at_end(e, end))[0] for end in (lo, hi)), (ante, e, lo, hi)
        agreed[ok] += 1
    assert min(agreed.values()) > 60, agreed


def test_unchanged_variable_transparent():
    t = _nondet_transition(target=1)
    eta = {"b": LinExpr({0: F(3)}, F(2))}   # independent of the updated var
    e, _ = pre_and_bounds(2, eta, t)
    assert e == at_end(e, 0) == at_end(e, 5) == eta["b"]


def test_max_pre_linearity():
    rng = random.Random(11)
    p, _ = load_fixture("fig1b")
    for _ in range(100):
        t = p.transitions[rng.randrange(len(p.transitions))]
        e1 = {loc: lin(p, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
              for loc in p.locations}
        e2 = {loc: lin(p, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
              for loc in p.locations}
        alpha = F(rng.randint(-5, 5))  # a demonic value stays a variable
        combo = {loc: e1[loc].scale(alpha) + e2[loc] for loc in p.locations}
        assert pre(p, combo, t) == pre(p, e1, t).scale(alpha) + pre(p, e2, t)


FIXTURES = ["bern_walk", "branching", "countdown", "diverge_const", "diverge_inc",
            "fig1a", "fig1b", "prob_join", "straightline", "zero_drift_walk",
            "fig2left.pcfg.json", "fig2right.pcfg.json"]


def _fixture_pcfg(name):
    if name.endswith(".pcfg.json"):
        return load_pcfg(fixture_path(name))
    return load_fixture(name)[0]


def _evaluated(template, assignment):
    return LinExpr({i: a.evaluate(assignment) for i, a in template.coeffs.items()},
                   template.constant.evaluate(assignment))


@pytest.mark.parametrize("name", FIXTURES)
def test_max_pre_of_templates(name):
    # the algebra is generic in its coefficients: the pre-expectation of a
    # template over LP unknowns, evaluated at a point, is the pre-expectation
    # of the evaluated template, across a demonic step too
    p = _fixture_pcfg(name)
    columns = itertools.count()
    templates = {loc: LinExpr({i: LinExpr.var(next(columns))
                               for i in range(len(p.variables))},
                              LinExpr.var(next(columns)))
                 for loc in p.locations}
    unknowns = [u for e in templates.values()
                for a in [*e.coeffs.values(), e.constant] for u in a.coeffs]
    assignment = {u: F(2 * k - 7, k % 3 + 1) for k, u in enumerate(unknowns)}
    eta = {loc: _evaluated(e, assignment) for loc, e in templates.items()}
    for t in p.transitions:
        assert _evaluated(pre(p, templates, t), assignment) == pre(p, eta, t)


def test_pb_is_probability_weighted_sum():
    t = Transition("p0", "a", ProbBranch("b", F(1, 3), "c", F(2, 3)))
    eta = {"b": LinExpr({0: F(3)}), "c": LinExpr({0: F(-3)}, F(1))}
    expect = LinExpr({0: F(1) - F(2)}, F(2, 3))
    assert pre_and_bounds(1, eta, t) == (expect, Polyhedron.true())


# -- restricted branch pre-expectation ---------------------------------------------


def _settling_graph():
    """A branch p0 from a to b and c, and p1 from a to c twice; b exits on
    x >= 0 or x < 0, c on true."""
    x = LinExpr.var(0)
    ge0 = Predicate.of_constraints([LinConstraint.le(-x)])
    lt0 = Predicate.of_constraints([LinConstraint.lt(x)])
    transitions = [
        Transition("p0", "a", ProbBranch("b", F(1, 2), "c", F(1, 2))),
        Transition("p1", "a", ProbBranch("c", F(1, 4), "c", F(3, 4))),
        Transition("b1", "b", GuardedStep("out", ge0, NoUpdate())),
        Transition("b2", "b", GuardedStep("out", lt0, NoUpdate())),
        Transition("c1", "c", GuardedStep("out", Predicate.true(), NoUpdate())),
    ]
    return PCFG(["x"], ["a", "b", "c", "out"], "a", "out", transitions)


# component x at b and -x at c
SETTLING_ETA = {"b": LinExpr({0: F(1)}), "c": LinExpr({0: F(-1)})}


def test_pb_restricted_everything_ranked():
    # nothing open: every successor state is settled
    p = _settling_graph()
    cases = pre_pb_restricted(p, SETTLING_ETA, p.transition("p0"), set())
    assert len(cases) == 1
    ctx, expr = cases[0]
    assert ctx.is_true() and expr == LinExpr.const(0)  # x/2 - x/2


def test_settled_states_none_open_is_true():
    # nothing open: every target of every branch is settled everywhere, so
    # the one case holds on true and keeps the full weighted sum
    p = _settling_graph()
    for tid in ("p0", "p1"):
        t = p.transition(tid)
        [(ctx, expr)] = pre_pb_restricted(p, SETTLING_ETA, t, set())
        assert ctx.is_true()
        assert expr == pre(p, SETTLING_ETA, t)


def test_pb_restricted_one_side():
    # c1 open: no successor state at c is settled, so only b's share stays
    p = _settling_graph()
    cases = pre_pb_restricted(p, SETTLING_ETA, p.transition("p0"), {"c1"})
    assert len(cases) == 1
    ctx, expr = cases[0]
    assert ctx.is_true()
    assert expr == LinExpr({0: F(1, 2)})   # x/2


def test_pb_restricted_nothing_ranked_yet():
    # everything open: a target whose open guard is true settles nothing
    p = _settling_graph()
    every = {t.id for t in p.transitions}
    assert pre_pb_restricted(p, SETTLING_ETA, p.transition("p1"), every) == []
    # b's open guards cover every state, so its restriction set holds nowhere
    [(ctx, expr)] = pre_pb_restricted(p, SETTLING_ETA, p.transition("p0"), every)
    assert not ctx.satisfied([F(0)]) and not ctx.satisfied([F(-1)])
    assert expr == LinExpr({0: F(1, 2)})


def test_empty_restriction_set_needs_no_lp(monkeypatch):
    # b's restriction set x < 0 and x >= 0 is not syntactically false, but
    # its two rows add up to 0 < 0, so a screen or an entailment over it is
    # decided with no LP
    from probterm import check_feasible, entails, farkas
    monkeypatch.setattr(farkas.simplex, "solve", lambda *a, **k: pytest.fail("LP solved"))
    p = _settling_graph()
    every = {t.id for t in p.transitions}
    [(ctx, expr)] = pre_pb_restricted(p, SETTLING_ETA, p.transition("p0"), every)
    [restricted] = ctx.disjuncts
    assert len(restricted.constraints) == 2
    assert check_feasible(restricted) == (False, None)
    assert entails(restricted, LinExpr.const(-1) - expr) == (True, None)


def test_pb_restricted_contexts_are_one_negation():
    # only b1 open: the restriction set at b is x < 0, its complement the
    # open guard x >= 0 itself, not a re-expanded double negation
    p = _settling_graph()
    x = LinExpr.var(0)
    cases = pre_pb_restricted(p, SETTLING_ETA, p.transition("p0"), {"b1"})
    assert cases == [
        (Predicate.of_constraints([LinConstraint.lt(x)]), LinExpr.const(0)),
        (Predicate.of_constraints([LinConstraint.le(-x)]), LinExpr({0: F(-1, 2)})),
    ]


def test_pb_restricted_rejects_non_branch():
    p = _settling_graph()
    with pytest.raises(ValueError):
        pre_pb_restricted(p, SETTLING_ETA, p.transition("b1"), set())


def _random_guard(rng):
    if rng.random() < 0.15:
        return Predicate.true()
    disjuncts = []
    for _ in range(rng.randint(1, 2)):
        cons = []
        for _ in range(rng.randint(1, 2)):
            e = LinExpr({i: F(rng.randint(-2, 2)) for i in range(2)}, F(rng.randint(-2, 2)))
            cons.append(LinConstraint(e, rng.choice([Rel.LE, Rel.LE, Rel.LT, Rel.EQ])))
        disjuncts.append(Polyhedron(cons))
    return Predicate(disjuncts)


def test_pb_restricted_cases_match_open_guards():
    """Against the open guards evaluated directly: a returned context holds
    exactly where its case applies, and an omitted case applies nowhere."""
    rng = random.Random(17)
    eta = {"b": LinExpr({0: F(1)}), "c": LinExpr({1: F(1)})}
    branch = Transition("p0", "a", ProbBranch("b", F(1, 3), "c", F(2, 3)))
    # distinct expressions name the cases: both, b only, c only
    shares = [LinExpr({0: F(1, 3), 1: F(2, 3)}), LinExpr({0: F(1, 3)}),
              LinExpr({1: F(2, 3)})]
    returned_total = 0
    for _ in range(150):
        transitions = [branch]
        for loc in ("b", "c"):
            for k in range(rng.randint(0, 3)):
                transitions.append(Transition(f"{loc}{k}", loc, GuardedStep(
                    "out", _random_guard(rng), NoUpdate())))
        p = PCFG(["x", "y"], ["a", "b", "c", "out"], "a", "out", transitions)
        open_ids = {t.id for t in transitions[1:] if rng.random() < 0.6}
        cases = pre_pb_restricted(p, eta, branch, open_ids)
        returned = {shares.index(expr): ctx for ctx, expr in cases}
        assert len(returned) == len(cases)
        returned_total += len(cases)
        for _ in range(25):
            if rng.random() < 0.5:
                point = [F(rng.randint(-3, 3)) for _ in range(2)]
            else:
                point = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(2)]
            settled = [not any(t.guard().satisfied(point) for t in p.outgoing(loc)
                               if t.id in open_ids) for loc in ("b", "c")]
            applies = [settled[0] and settled[1], settled[0] and not settled[1],
                       not settled[0] and settled[1]]
            for i, holds in enumerate(applies):
                if i in returned:
                    assert returned[i].satisfied(point) == holds, (i, point)
                else:
                    assert not holds, (i, point)
    assert returned_total > 150


# -- Monte-Carlo consistency ---------------------------------------------------------


def test_pre_expectation_matches_empirical_mean():
    """For transitions without demonic updates the resolved pre-expectation
    is the exact one-step conditional mean; 1e5 draws must land within four
    standard errors at each probed state. Each transition runs alone, its
    guard true, for one step per run, all runs of a probe on one stream."""
    p, _ = load_fixture("fig1b")
    rng = random.Random(5)
    sched = UniformRandom()
    probes = 0
    for t in p.transitions:
        kind = t.kind if t.is_pb else GuardedStep(t.kind.dest, Predicate.true(), t.kind.update)
        program = Program(PCFG(p.variables, p.locations, t.source, p.terminal_location,
                               [Transition(t.id, t.source, kind)]))
        eta = {loc: lin(p, rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
               for loc in p.locations}
        expected_fn = pre(p, eta, t)
        target = getattr(t.update(), "target", None)
        for _ in range(5):
            values = [F(rng.randint(-5, 5)), F(rng.randint(-5, 5))]
            expected = float(expected_fn.evaluate(values))
            # a step moves only the target, so eta[dest] after it is exactly
            # (n + a * v) / d, with v the target's new value and the integer
            # coefficient a; int / int rounds like float(Fraction)
            fixed = {}
            for dest in t.destinations():
                a = eta[dest].coeffs.get(target, F(0))
                rest = eta[dest].evaluate(values) - a * (values[target] if a else 0)
                fixed[dest] = rest.numerator, rest.denominator, int(a)
            nprng = next(run_rngs(77, [probes]))
            samples = []
            for r in program.runs(_integer_state(values), sched, 1,
                                  itertools.repeat(nprng, 100_000), record_states=False):
                n, d, a = fixed[r.final_location]
                if a:
                    vn, vd = r.final_nums[target], r.final_dens[target]
                    n, d = n * vd + a * vn * d, d * vd
                samples.append(n / d)
            samples = np.array(samples)
            se = samples.std(ddof=1) / np.sqrt(samples.size)
            assert abs(samples.mean() - expected) <= max(4 * se, 1e-12), (t.id, values)
            probes += 1
    assert probes == 20
