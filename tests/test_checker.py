"""Independent verification: published maps, named mutations, structure."""

from fractions import Fraction as F

import pytest

from probterm import (Certificate, CertificateMode, Invariant, LinExpr, LinExprMap,
                      PCFG, StructuralMismatch, check_certificate)

from conftest import (example3_certificate, example4_certificate, load_fixture,
                      perturbed)


def test_example3_map_accepted(fig1b):
    p, inv = fig1b
    report = check_certificate(p, inv, example3_certificate(p))
    assert report.accepted
    assert report.mode == "BSPComplete"


def test_example4_map_accepted_with_coeff_zero_check(fig1a):
    p, inv = fig1a
    report = check_certificate(p, inv, example4_certificate(p))
    assert report.accepted
    checked = {c.condition for c in report.conditions if c.transition == "t2"}
    assert "sampling-coeff-zero" in checked


def test_example3_decrease_mutation_rejected(fig1b):
    # weakening component 2 at l1 from x+8 to x+6 breaks the required
    # decrease across l1 -> l0
    p, inv = fig1b
    cert = perturbed(example3_certificate(p), "l1", 2, None, -2)
    report = check_certificate(p, inv, cert)
    assert not report.accepted
    assert any(v.transition == "t3" and v.condition == "decrease"
               for v in report.violations)


def test_counterexample_point_violates():
    p, inv = load_fixture("fig1b")
    cert = perturbed(example3_certificate(p), "l1", 2, None, -2)
    report = check_certificate(p, inv, cert)
    v = next(v for v in report.violations if v.condition == "decrease")
    assert v.counterexample is not None
    x = F(v.counterexample["x"])
    assert x >= -7  # the point lies inside the invariant at l1


# -- curated single-coefficient mutations with hand-derived verdicts -----------------

# Each row is (loc, component, var (None = const), delta, violated): the
# mutant adds delta to one coefficient of the published map, and `violated`
# is the exact set of (transition, condition, component) the checker
# rejects it for; an empty set means the mutant is accepted.

E3_MUTATIONS = [
    # x+6 at l1: negative on the invariant, and no decrease across l1->l0
    ("l1", 2, None, -2, {("t3", "decrease", 2), ("t3", "nonneg", 2)}),
    # x+9 keeps slack everywhere
    ("l1", 2, None, +1, set()),
    # the exit is no longer 1-ranked, and l0->l1 raises component 1
    ("l0", 1, None, -1, {("t0", "decrease", 1), ("t2", "unaffected", 1)}),
    # y-1 is negative at y=0 on the self-loop
    ("l0", 3, None, -8, {("t1", "nonneg", 3), ("t1", "expected-nonneg", 3)}),
    # terminal entries of high components are idle
    ("out", 3, None, +63, set()),
    # x+y+7 at l0 can be negative, and after l1->l0 dips below 0 in expectation
    ("l0", 2, "y", +1, {("t2", "decrease", 2), ("t2", "nonneg", 2),
                        ("t3", "decrease", 2), ("t3", "expected-nonneg", 2)}),
    # 7 at l0: component 2 no longer decreases across l0->l1 or l1->l0
    ("l0", 2, "x", -1, {("t2", "decrease", 2), ("t3", "decrease", 2)}),
]

E4_MUTATIONS = [
    # the zero-coefficient discipline at l1 is broken
    ("l1", 2, "x", +1, {("t1", "decrease", 2), ("t2", "sampling-coeff-zero", 2),
                        ("t3", "decrease", 2), ("t3", "nonneg", 2)}),
    # the expected one-step value of the loop's component 3 is below 0
    ("l1", 3, None, -1, {("t2", "expected-nonneg", 3)}),
    # the l0->l1 entry loses its unit decrease
    ("l0", 2, None, -1, {("t1", "decrease", 2), ("t3", "expected-nonneg", 2)}),
    # the l1->l0 return increases component 2
    ("l0", 2, "y", +1, {("t3", "decrease", 2), ("t3", "expected-nonneg", 2)}),
    # the exit transition no longer decreases
    ("out", 1, None, +1, {("t0", "decrease", 1)}),
]


def violated_conditions(report) -> set:
    return {(v.transition, v.condition, v.component) for v in report.violations}


def mutation_ids(rows) -> list:
    """loc-component-var-delta-accepted, one id per row."""
    return ["-".join(map(str, row[:4] + (not row[4],))) for row in rows]


@pytest.mark.parametrize("loc,comp,var,delta,violated", E3_MUTATIONS,
                         ids=mutation_ids(E3_MUTATIONS))
def test_mutation_suite_bounded(fig1b, loc, comp, var, delta, violated):
    p, inv = fig1b
    base = example3_certificate(p)
    idx = p.var_index(var) if var else None
    report = check_certificate(p, inv, perturbed(base, loc, comp, idx, delta))
    assert report.accepted == (not violated)
    assert violated_conditions(report) == violated


@pytest.mark.parametrize("loc,comp,var,delta,violated", E4_MUTATIONS,
                         ids=mutation_ids(E4_MUTATIONS))
def test_mutation_suite_general(fig1a, loc, comp, var, delta, violated):
    p, inv = fig1a
    base = example4_certificate(p)
    idx = p.var_index(var) if var else None
    report = check_certificate(p, inv, perturbed(base, loc, comp, idx, delta))
    assert report.accepted == (not violated)
    assert violated_conditions(report) == violated


def refuted_by_two_rows(rows):
    """Is one of `rows` a false constant row, or are two single-variable
    rows on one variable empty on their own? The gap LP alone decides each
    such pair."""
    import itertools
    from probterm import farkas
    if any(not r.lhs.coeffs and not r.satisfied({}) for r in rows):
        return True
    n = max((i for r in rows for i in r.lhs.coeffs), default=-1) + 1
    return any(not farkas._gap_lp([r, s], n)[0]
               for r, s in itertools.combinations(rows, 2)
               if len(r.lhs.coeffs) == 1 and r.lhs.coeffs.keys() == s.lhs.coeffs.keys())


def box_point(rows):
    """The box point of `rows` when it satisfies every one of them, else
    None; the rows must not be refuted by two of them."""
    from probterm import Polyhedron, farkas
    n = max((i for r in rows for i in r.lhs.coeffs), default=-1) + 1
    point = farkas._box_point(*farkas._scan(rows), n)
    assert point is None or Polyhedron(rows).satisfied(point)
    return point


def test_check_solves_at_most_one_lp_per_entailment(monkeypatch):
    # each entailment is one query for a point where its consequent is
    # negative: no LP when one or two of its rows are empty on their own
    # (a constant consequent >= 0, or a lower and an upper bound on one
    # variable that contradict) or when the box point is such a point, the
    # counterexample; exactly one LP otherwise
    from probterm import checker, simplex
    from probterm.linear import LinConstraint
    calls = {"solves": 0, "entailments": 0, "violated": 0, "pair": 0, "point": 0}
    counting = [True]
    solve, entails = simplex.solve, checker.entails

    def counting_solve(*args, **kwargs):
        calls["solves"] += counting[0]
        return solve(*args, **kwargs)

    def counting_entails(ante, e):
        counting[0] = False
        query = ante.constraints + [LinConstraint.lt(e)]
        settled = refuted_by_two_rows(query)
        point = None if settled else box_point(query)
        counting[0] = True
        before = calls["solves"]
        ok, w = entails(ante, e)
        spent = calls["solves"] - before
        assert spent == (0 if settled or point is not None else 1)
        if point is not None:
            assert (ok, w) == (False, point)
        calls["entailments"] += 1
        calls["violated"] += not ok
        calls["pair"] += settled and not (e.is_constant() and e.constant >= 0)
        calls["point"] += point is not None
        return ok, w

    monkeypatch.setattr(simplex, "solve", counting_solve)
    monkeypatch.setattr(checker, "entails", counting_entails)
    for name, published, mutations in [("fig1b", example3_certificate, E3_MUTATIONS),
                                       ("fig1a", example4_certificate, E4_MUTATIONS)]:
        p, inv = load_fixture(name)
        base = published(p)
        check_certificate(p, inv, base)
        for loc, comp, var, delta, _ in mutations:
            idx = p.var_index(var) if var else None
            check_certificate(p, inv, perturbed(base, loc, comp, idx, delta))
    assert calls == {"solves": 6, "entailments": 336, "violated": 21, "pair": 96,
                     "point": 19}


def test_branch_expectation_checked_on_ranked_region():
    """The probabilistic branch back into the loop head gets a genuine
    restricted-expectation check; weakening the head component below zero
    on the exit region is reported against the branch transition."""
    from probterm import synthesize_bsp
    p, inv = load_fixture("prob_join")
    cert = synthesize_bsp(p, inv).certificate
    pb = next(t for t in p.transitions if t.is_pb)
    ok = check_certificate(p, inv, cert)
    assert ok.accepted
    assert any(c.transition == pb.id and c.condition == "expected-nonneg"
               for c in ok.conditions)
    j = cert.levels[pb.id]
    bad = perturbed(cert, "l0", j, None, -1)
    report = check_certificate(p, inv, bad)
    assert not report.accepted
    assert any(v.transition == pb.id and v.condition == "expected-nonneg"
               for v in report.violations)


def test_unbound_violation_is_specific(fig1a):
    # adding x to component 2 at l1 leaves decrease intact but trips the
    # coefficient-zero condition
    p, inv = fig1a
    cert = perturbed(example4_certificate(p), "l1", 2, p.var_index("x"), +1)
    report = check_certificate(p, inv, cert)
    conds = {v.condition for v in report.violations}
    assert "sampling-coeff-zero" in conds


# -- structure ------------------------------------------------------------------------


def test_dimension_mismatch_is_structural(fig1b):
    p, inv = fig1b
    cert = example3_certificate(p)
    bad = Certificate(LinExprMap(2, {loc: vec[:2] for loc, vec
                                     in cert.lem.components.items()}),
                      cert.levels, F(0), cert.mode)
    with pytest.raises(StructuralMismatch):
        check_certificate(p, inv, bad)


def test_missing_location_is_structural(fig1b):
    p, inv = fig1b
    cert = example3_certificate(p)
    comps = dict(cert.lem.components)
    del comps["l1"]
    bad = Certificate(LinExprMap(3, comps), cert.levels, F(0), cert.mode)
    with pytest.raises(StructuralMismatch):
        check_certificate(p, inv, bad)


def test_level_zero_on_ordinary_transition_is_structural(fig1b):
    p, inv = fig1b
    cert = example3_certificate(p)
    levels = dict(cert.levels)
    levels["t0"] = 0
    with pytest.raises(StructuralMismatch):
        check_certificate(p, inv, Certificate(cert.lem, levels, F(0), cert.mode))


def test_unknown_location_is_structural(fig1b):
    p, inv = fig1b
    cert = example3_certificate(p)
    comps = {**cert.lem.components, "nowhere": cert.lem.components["l1"]}
    bad = Certificate(LinExprMap(3, comps), cert.levels, F(0), cert.mode)
    with pytest.raises(StructuralMismatch,
                       match=r"^certificate mentions unknown location 'nowhere'$"):
        check_certificate(p, inv, bad)


def test_variable_outside_the_program_is_structural(fig1b):
    # fig1b has the variables 0 and 1
    p, inv = fig1b
    cert = example3_certificate(p)
    comps = dict(cert.lem.components)
    comps["l1"] = [*comps["l1"][:2], LinExpr({2: F(1)}, F(0))]
    bad = Certificate(LinExprMap(3, comps), cert.levels, F(0), cert.mode)
    with pytest.raises(StructuralMismatch, match=r"^component at l1 uses variable index 2$"):
        check_certificate(p, inv, bad)


def test_level_of_unknown_transition_is_structural(fig1b):
    # `certificate_from_json` does not check level ids, so the CLI reaches
    # this refusal too
    p, inv = fig1b
    cert = example3_certificate(p)
    levels = {**cert.levels, "t9": 1}
    with pytest.raises(StructuralMismatch,
                       match=r"^level map mentions unknown transition 't9'$"):
        check_certificate(p, inv, Certificate(cert.lem, levels, F(0), cert.mode))


def test_bsp_mode_on_unbounded_program_rejected(fig1a):
    p, inv = fig1a
    cert = example4_certificate(p)
    as_bsp = Certificate(cert.lem, cert.levels, F(0), CertificateMode.BSP_COMPLETE)
    report = check_certificate(p, inv, as_bsp)
    assert not report.accepted
    assert any(v.condition == "program-shape" for v in report.violations)


def test_verdict_independent_of_transition_order(fig1b):
    p, inv = fig1b
    cert = example3_certificate(p)
    shuffled = PCFG(p.variables, p.locations, p.init_location,
                    p.terminal_location, list(reversed(p.transitions)))
    r1 = check_certificate(p, inv, cert)
    r2 = check_certificate(shuffled, inv, cert)
    assert r1.accepted and r2.accepted
    assert [c.as_dict() for c in r1.conditions] == [c.as_dict() for c in r2.conditions]


def test_verdict_independent_of_disjunct_order(fig1b):
    """Every guard gets a second, redundant disjunct (itself with x <= 0);
    reversing the disjuncts of every guard and the constraints of every
    invariant then leaves each condition's status unchanged. Counterexample
    points are not compared: another row order may pick another vertex."""
    from probterm import LinConstraint, LinExpr, Polyhedron, Predicate
    from probterm.model import GuardedStep, Transition
    p, inv = fig1b
    x_le_0 = Predicate.of_constraints([LinConstraint.le(LinExpr.var(p.var_index("x")))])

    def with_guards(guard_of):
        ts = [t if t.is_pb else
              Transition(t.id, t.source,
                         GuardedStep(t.kind.dest, guard_of(t.kind.guard), t.kind.update))
              for t in p.transitions]
        return PCFG(p.variables, p.locations, p.init_location, p.terminal_location, ts)

    def double(g):
        return g.disjoin(g.conjoin(x_le_0))

    doubled = with_guards(double)
    flipped = with_guards(lambda g: Predicate(reversed(double(g).disjuncts)))
    guards = [t.kind.guard.disjuncts for t in doubled.transitions if not t.is_pb]
    assert guards and all(len(ds) >= 2 and ds[0] != ds[1] for ds in guards)
    flipped_inv = Invariant({loc: Polyhedron(list(reversed(poly.constraints)))
                             for loc, poly in inv.by_location.items()})

    def rows(report):
        return sorted((r.transition, r.condition, r.component, r.status)
                      for r in report.conditions)

    base = example3_certificate(p)
    certs = [base] + [perturbed(base, loc, comp, p.var_index(var) if var else None, delta)
                      for loc, comp, var, delta, _ in E3_MUTATIONS]
    for cert in certs:
        assert rows(check_certificate(doubled, inv, cert)) == \
            rows(check_certificate(flipped, flipped_inv, cert))


def test_synthesized_certificates_all_pass_checker():
    from probterm import synthesize_bsp, synthesize_general
    for name, mode in [("fig1b", "bsp"), ("countdown", "bsp"),
                       ("straightline", "bsp"), ("branching", "bsp"),
                       ("fig1a", "general")]:
        p, inv = load_fixture(name)
        res = synthesize_bsp(p, inv) if mode == "bsp" else synthesize_general(p, inv)
        assert res.found, name
        assert check_certificate(p, inv, res.certificate).accepted, name
