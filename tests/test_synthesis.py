"""The iterative certificate search, on fixtures and adversarial cases."""

import json
from fractions import Fraction as F

import pytest

from probterm import (CertificateMode, Invariant, MissingBoundedSupport,
                      NotLinPPStar, TemplateRestriction, build_lp,
                      check_certificate, extract_level_map, lower_to_pcfg,
                      parse_program, solve_lp, synthesize_bsp, synthesize_general)
from probterm.pcfg_io import certificate_to_json, invariant_from_json
from probterm.simplex import LPStatus, RowRel, integer_row

from conftest import LP_SCREENED_INVARIANT, encode_into, load_fixture, template_at
from test_strict_rule import FIXTURE_NAMES


def ranked_at_optimum(p, inv, unranked, restrict=TemplateRestriction(), zero_eps=()):
    """The transitions ranked at the optimum of the iteration LP, with an
    `eps == 0` row appended for each transition id in `zero_eps`."""
    slp = build_lp(p, inv, unranked, restrict)
    for tid in zero_eps:
        slp.lp.add_row({slp.eps[tid]: 1}, 0, 1, RowRel.EQ)
    sol = solve_lp(slp.lp)
    assert sol.status is LPStatus.OPTIMAL
    return [tid for tid in unranked if sol.x[slp.eps[tid]] > 0], sol


def test_first_iteration_ranks_exactly_the_exit(fig1b):
    # with every transition unranked, templates must be nonnegative on
    # every guard, which pins them to constants; only the exit can drop
    p, inv = fig1b
    unranked = [t.id for t in p.non_terminal_transitions()]
    ranked, sol = ranked_at_optimum(p, inv, unranked)
    assert ranked == ["t0"]
    assert sol.value == 1


def test_guard_infeasible_transition_ranked_for_free():
    p, inv = load_fixture("countdown")
    doc_p = p
    # add an unreachable-guard transition: x >= 0 and x <= -1
    from probterm import (GuardedStep, LinConstraint, LinExpr, NoUpdate,
                          Polyhedron, Predicate, Transition)
    dead_guard = Predicate([Polyhedron([
        LinConstraint.le(LinExpr({0: F(-1)})),
        LinConstraint.le(LinExpr({0: F(1)}, F(1)))])])
    doc_p.transitions.append(
        Transition("tdead", "l0", GuardedStep("out", dead_guard, NoUpdate())))
    unranked = [t.id for t in doc_p.non_terminal_transitions()]
    ranked, _ = ranked_at_optimum(doc_p, inv, unranked)
    assert "tdead" in ranked


def test_forced_zero_eps_blocks_ranking(fig1b):
    p, inv = fig1b
    unranked = [t.id for t in p.non_terminal_transitions()]
    ranked, sol = ranked_at_optimum(p, inv, unranked, zero_eps=["t0"])
    assert ranked == [] and sol.value == 0


def test_build_lp_requires_work(fig1b):
    with pytest.raises(ValueError):
        build_lp(fig1b[0], fig1b[1], [])


def test_build_lp_emits_no_empty_row():
    # the loop never reads x, so the x coefficient of `template - pre`
    # cancels, and its guard y >= 0 gives x no multiplier either: a Farkas
    # row for x would read 0 = 0
    from probterm import (ExprUpdate, GuardedStep, LinConstraint, LinExpr,
                          NoUpdate, PCFG, Predicate, Transition, validate_pcfg)
    y = LinExpr.var(1)
    p = PCFG(["x", "y"], ["l0", "out"], "l0", "out", [
        Transition("t0", "l0", GuardedStep(
            "l0", Predicate.of_constraints([LinConstraint.le(-y)]),
            ExprUpdate(1, y.shift(-1)))),
        Transition("t1", "l0", GuardedStep(
            "out", Predicate.of_constraints([LinConstraint.lt(y)]), NoUpdate())),
        Transition("t2", "out", GuardedStep("out", Predicate.true(), NoUpdate())),
    ])
    assert validate_pcfg(p) == []
    slp = build_lp(p, Invariant({}), ["t0", "t1"])
    assert all(c.form.terms for c in slp.lp.constraints)


# -- the bounded-support procedure ---------------------------------------------------


def test_fig1b_bsp_certificate(fig1b):
    p, inv = fig1b
    res = synthesize_bsp(p, inv)
    assert res.found
    cert = res.certificate
    assert cert.dimension <= 3
    assert cert.mode is CertificateMode.BSP_COMPLETE
    assert check_certificate(p, inv, cert).accepted
    # iterations strictly shrink the unranked set
    sizes = [len(r.unranked_before) for r in res.history]
    assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)
    assert extract_level_map(p, res.history) == cert.levels


def test_fig1b_bsp_shift_is_support_times_maxcoeff(fig1b):
    p, inv = fig1b
    res = synthesize_bsp(p, inv)
    cert = res.certificate
    # undo the shift and recompute: shift = 2 * N * max |coefficient|
    unshifted = cert.lem.shifted(-cert.shift)
    assert cert.shift == 2 * F(7) * unshifted.max_abs_coeff()


def test_determinism_bit_identical(fig1b):
    p, inv = fig1b
    a = synthesize_bsp(p, inv)
    b = synthesize_bsp(p, inv)
    ja = json.dumps(certificate_to_json(a.certificate, p), sort_keys=True)
    jb = json.dumps(certificate_to_json(b.certificate, p), sort_keys=True)
    assert ja == jb


def test_bsp_rejects_unbounded_program(fig1a):
    p, inv = fig1a
    with pytest.raises(MissingBoundedSupport):
        synthesize_bsp(p, inv)


def test_divergent_loop_has_no_certificate():
    p, inv = load_fixture("diverge_const")
    res = synthesize_bsp(p, inv)
    assert not res.found and "no" in res.failure


def test_divergent_increment_has_no_certificate():
    p, inv = load_fixture("diverge_inc")
    res = synthesize_bsp(p, inv)
    assert not res.found


def test_straightline_dimension_one():
    p, inv = load_fixture("straightline")
    res = synthesize_bsp(p, inv)
    assert res.found and res.certificate.dimension == 1
    assert check_certificate(p, inv, res.certificate).accepted
    levels = set(res.certificate.levels.values())
    assert levels == {1}


def test_countdown_component_is_x_plus_one():
    p, inv = load_fixture("countdown")
    res = synthesize_bsp(p, inv)
    assert res.found
    cert = res.certificate
    # the loop transition's ranking component at the loop head is exactly
    # x + 1 (after scaling; no shift, the program draws nothing)
    assert cert.shift == 0
    loop = next(t for t in p.transitions if t.kind.dest == t.source)
    j = cert.levels[loop.id]
    comp = cert.lem.at("l0", j)
    assert comp.coeffs == {p.var_index("x"): F(1)} and comp.constant == 1
    assert check_certificate(p, inv, cert).accepted


def test_bernoulli_walk_certificate():
    p, inv = load_fixture("bern_walk")
    res = synthesize_bsp(p, inv)
    assert res.found
    assert check_certificate(p, inv, res.certificate).accepted
    # support bound comes from the coin's [0, 1] support
    from probterm import check_bsp
    assert check_bsp(p) == (True, F(1))


def test_branching_fixture_with_demonic_and_probabilistic_choice():
    p, inv = load_fixture("branching")
    res = synthesize_bsp(p, inv)
    assert res.found
    assert check_certificate(p, inv, res.certificate).accepted
    # the probabilistic branch is ranked at some level >= 1
    pb = next(t for t in p.transitions if t.is_pb)
    assert res.certificate.levels[pb.id] >= 1


def test_branch_into_ranked_region_constrains_the_lp():
    """A coin flip straight back to the loop head makes the restricted
    branch-expectation condition non-vacuous: the ranking component at the
    head must stay nonnegative on the already-ranked exit region, which
    pins its constant to its slope (value 0 at x = -1)."""
    p, inv = load_fixture("prob_join")
    res = synthesize_bsp(p, inv)
    assert res.found and res.certificate.dimension == 2
    rep = check_certificate(p, inv, res.certificate)
    assert rep.accepted
    pb = next(t for t in p.transitions if t.is_pb)
    comp = res.certificate.levels[pb.id]
    head = res.certificate.lem.at("l0", comp)
    assert head.evaluate([F(-1), F(0)]) >= 0  # nonneg where only the exit ran
    assert head.evaluate([F(-1), F(0)]) == 0  # and the LP made it tight



# The open guards at the inner branch's target are a union of 6 two-atom
# disjuncts (2 from the then-guard, 4 from its lowered complement), so the
# restriction set there has 64 disjuncts of 6 atoms. Negating it again to
# get the open region back would need 6^64 disjuncts, far past the DNF cap.
WIDE_GUARD_SOURCE = """
while x >= 0 do
  if prob(1/2) then
    if (x >= 0 and y <= 0) or (x >= 1 and y <= 1) then x := x - 1 else x := x - 1 fi
  else x := x - 1 fi
od
"""


def test_branch_target_with_wide_open_guards_is_decided():
    p = lower_to_pcfg(parse_program(WIDE_GUARD_SOURCE))
    inv = invariant_from_json({f"l{i}": ["x >= 0"] for i in range(1, 6)}, p)
    res = synthesize_bsp(p, inv)
    assert res.found and res.certificate.dimension == 2
    assert check_certificate(p, inv, res.certificate).accepted

def test_pruned_set_is_maximal(fig1b):
    """Forcing any single ranked transition's eps to zero must not stop the
    remaining ones from ranking (additivity argument)."""
    p, inv = fig1b
    res = synthesize_bsp(p, inv)
    unranked = [t.id for t in p.non_terminal_transitions()]
    for rec in res.history:
        for banned in rec.ranked:
            if len(rec.ranked) == 1:
                continue
            ranked, _ = ranked_at_optimum(p, inv, unranked, zero_eps=[banned])
            assert set(ranked) == set(rec.ranked) - {banned}
        unranked = [tid for tid in unranked if tid not in set(rec.ranked)]


# -- the general procedure -------------------------------------------------------------


def test_fig1a_general_certificate(fig1a):
    p, inv = fig1a
    res = synthesize_general(p, inv)
    assert res.found
    cert = res.certificate
    assert cert.mode is CertificateMode.GENERAL_SOUND and cert.shift == 0
    assert check_certificate(p, inv, cert).accepted
    # the sampling self-loop needed the coefficient unlock
    assert any(r.tau0 == "t2" for r in res.history)
    # components left of the self-loop's level have no x at l1
    x = p.var_index("x")
    for j in range(1, cert.levels["t2"]):
        assert cert.lem.at("l1", j).coeff(x) == 0


def test_zero_drift_walk_no_witness():
    p, inv = load_fixture("zero_drift_walk")
    res = synthesize_general(p, inv)
    assert not res.found
    assert "zero-coefficient" in res.failure


def test_general_equals_bsp_on_bounded_programs(fig1b):
    p, inv = fig1b
    general = synthesize_general(p, inv)
    bounded = synthesize_bsp(p, inv)
    assert general.found and bounded.found
    # same components up to the final shift, which the general mode omits
    assert general.certificate.shift == 0
    assert general.certificate.lem.components == \
        bounded.certificate.lem.shifted(-bounded.certificate.shift).components
    assert general.certificate.levels == bounded.certificate.levels


def test_general_requires_target_separation():
    from probterm import (DistributionSpec, ExprUpdate, GuardedStep, LinExpr,
                          PCFG, Predicate, ProbBranch, Transition)
    d = DistributionSpec.normal(0, 1)
    p = PCFG(["x"], ["a", "b", "out"], "a", "out", [
        Transition("t0", "a", ProbBranch("b", F(1, 2), "out", F(1, 2))),
        Transition("t1", "b", GuardedStep("b", Predicate.true(),
                                          ExprUpdate(0, LinExpr({0: 1}),
                                                     (F(1), d)))),
    ])
    with pytest.raises(NotLinPPStar):
        synthesize_general(p, Invariant({}))


def test_general_skips_a_repeated_unlock(monkeypatch):
    """Unlocking a tau0 whose (target, variable) pair an earlier unlock of
    the same iteration tried builds the same restriction, so its LP
    would fail again and is not solved. General corpus #66 has two
    sampling transitions, t4 and t5, that both write x at l0: its
    second iteration solves the all-pinned attempt and the t4 unlock,
    not the t5 one, and refuses with the same history."""
    from probterm import synthesis
    from test_integration import _general_corpus
    _, p = _general_corpus()[66]
    pairs = {(p.transition(tid).kind.dest, p.transition(tid).kind.update.target)
             for tid in ("t4", "t5")}
    assert pairs == {("l0", p.var_index("x"))}
    outcomes, real_solve = [], synthesis.solve_lp

    def solving(lp, *args, **kwargs):
        sol = real_solve(lp, *args, **kwargs)
        outcomes.append((sol.status, sol.value))
        return sol

    monkeypatch.setattr(synthesis, "solve_lp", solving)
    result = synthesize_general(p, Invariant({}))
    assert result.failure == ("no component can rank further transitions "
                              "under the zero-coefficient discipline")
    assert [(rec.index, rec.ranked, rec.objective, rec.tau0) for rec in result.history] == [
        (1, ["t1", "t2"], 2, None)]
    assert outcomes == [(LPStatus.OPTIMAL, 2), (LPStatus.OPTIMAL, 0),
                        (LPStatus.INFEASIBLE, None)]


def test_level_map_levels_terminal_loops_zero():
    from probterm import GuardedStep, NoUpdate, PCFG, Predicate, Transition
    p, inv = load_fixture("countdown")
    p.transitions.append(Transition("tloop", "out",
                                    GuardedStep("out", Predicate.true(), NoUpdate())))
    res = synthesize_bsp(p, inv)
    assert res.found
    assert res.certificate.levels["tloop"] == 0
    assert check_certificate(p, inv, res.certificate).accepted


# -- resource limits ---------------------------------------------------------------


def test_capped_iteration_lp_is_not_a_decision(fig1b, fig1a, monkeypatch):
    # three pivots cannot solve the first iteration LP; that is no evidence
    # that nothing ranks, so neither procedure may answer
    import functools
    from probterm import synthesis
    from probterm.simplex import PivotCapReached
    monkeypatch.setattr(synthesis, "solve_lp",
                        functools.partial(solve_lp, pivot_cap=3))
    with pytest.raises(PivotCapReached, match="3 pivots"):
        synthesize_bsp(*fig1b)
    with pytest.raises(PivotCapReached):
        synthesize_general(*fig1a)


def test_capped_screen_is_not_a_decision(fig1b, monkeypatch):
    import functools
    from probterm import farkas, synthesis
    from probterm.simplex import PivotCapReached
    p, _ = fig1b
    monkeypatch.setattr(farkas.simplex, "solve",
                        functools.partial(farkas.simplex.solve, pivot_cap=0))
    monkeypatch.setattr(synthesis, "solve_lp", lambda lp: pytest.fail("LP solved"))
    with pytest.raises(PivotCapReached):
        synthesize_bsp(p, invariant_from_json(LP_SCREENED_INVARIANT, p))


# -- feasibility screens -------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig1b", "fig1a", "prob_join", "branching",
                                  "countdown", "ladder.bsp.k3", "ladder.general.k3"])
def test_screens_need_no_lp(name, monkeypatch):
    """Every screen of these runs is settled by a constant row, a bound
    conflict or a box point, with no simplex solve; that includes the
    screens without a strict row and the infeasible ones."""
    from probterm import check_bsp, farkas, synthesis
    from probterm.linear import Rel
    from test_golden import load
    p, inv = load(name)
    real_screen, real_solve = synthesis.check_feasible, farkas.simplex.solve
    screens, inside = [], []

    def screen(antecedent):
        inside.append(antecedent)
        feasible, point = real_screen(antecedent)
        inside.pop()
        screens.append((antecedent, feasible))
        return feasible, point

    def solve(*args, **kwargs):
        assert not inside, f"screen of {inside[0]} solved an LP"
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(synthesis, "check_feasible", screen)
    monkeypatch.setattr(farkas.simplex, "solve", solve)
    (synthesize_bsp if check_bsp(p)[0] else synthesize_general)(p, inv)
    assert any(all(r.rel is not Rel.LT for r in a.constraints) for a, _ in screens)
    if name == "prob_join":
        assert not all(feasible for _, feasible in screens)


@pytest.mark.parametrize("name, synthesize, implications", [
    ("prob_join", synthesize_bsp, [(8, 1), (7, 0)]),
    # the third iteration retries with a tau0, on the same unranked set
    ("fig1a", synthesize_general, [(8, 0), (6, 0), (2, 0), (2, 0)]),
])
def test_run_screens_each_antecedent_once(name, synthesize, implications,
                                          monkeypatch):
    """A run screens each antecedent once per encoded block and never on a
    replay, so it screens what cold builds of its LPs screen, fewer times."""
    from probterm import synthesis
    p, inv = load_fixture(name)
    blocks, counts = [], []
    real_screen, real_build, real_encode = (
        synthesis.check_feasible, synthesis.build_lp, synthesis._encode)

    def screen(antecedent):
        assert blocks and blocks[-1] is not None, "screen outside an encoding"
        blocks[-1].append(tuple(antecedent.constraints))
        return real_screen(antecedent)

    def building(*args, **kwargs):
        slp = real_build(*args, **kwargs)
        counts.append((slp.emitted_implications, slp.dropped_implications))
        return slp

    def encoding(*args):
        blocks.append([])
        block = real_encode(*args)
        blocks.append(None)
        return block

    monkeypatch.setattr(synthesis, "check_feasible", screen)
    monkeypatch.setattr(synthesis, "build_lp", building)
    monkeypatch.setattr(synthesis, "_encode", encoding)
    result = synthesize(p, inv)
    assert result.found
    assert counts == implications
    assert any(rec.tau0 for rec in result.history) == (synthesize is synthesize_general)
    run = [s for b in blocks if b is not None for s in b]
    assert all(len(b) == len(set(b)) for b in blocks if b is not None)
    # the antecedents of a run: those of each iteration's LP, built afresh
    blocks.clear()
    for rec in result.history:
        build_lp(p, inv, rec.unranked_before)
    cold = [s for b in blocks if b is not None for s in b]
    assert set(run) == set(cold)
    assert len(run) < len(cold)


# -- the run memo of encoded side conditions -----------------------------------------


# (emitted, dropped) implications of each LP that a run builds, in order
RUN_IMPLICATIONS = {
    "prob_join": [(8, 1), (7, 0)],
    # the third iteration retries with a tau0, on the same unranked set
    "fig1a": [(8, 0), (6, 0), (2, 0), (2, 0)],
    "ladder.general.k4": [(16, 0), (14, 0), (14, 0), (14, 0), (14, 0), (14, 0),
                          (10, 0), (10, 0), (10, 0), (10, 0), (6, 0), (6, 0),
                          (6, 0), (2, 0), (2, 0)],
}


@pytest.mark.parametrize("name, synthesize", [
    ("fig1a", synthesize_general),
    ("prob_join", synthesize_bsp),
    ("ladder.general.k4", synthesize_general),
])
def test_run_memo_builds_the_cold_lp(name, synthesize, monkeypatch):
    """Every LP a run solves, its side conditions replayed from the run's
    memo where they were encoded before, dumps exactly as a cold
    `build_lp` of the same unranked set and restriction. That includes
    LPs where a block is replayed over a frame other than the one it was
    first placed over. Frames move only by eps: ranked transitions lose
    their eps columns, while a location's template columns, pinned or
    not, are the same in every LP. A replayed block counts its
    implications as when it was encoded."""
    from probterm import synthesis
    from probterm.farkas import dump_lp
    from test_golden import load
    p, inv = load(name)
    built, solved, encoded, recorded, moved, implications = [], [], [], {}, [], []
    real_build, real_solve, real_encode, real_replay = (
        synthesis.build_lp, synthesis.solve_lp, synthesis._encode, synthesis.Block.replay)

    def building(p, inv, unranked, restrict=TemplateRestriction(), **memos):
        slp = real_build(p, inv, unranked, restrict, **memos)
        built.append((slp.lp, list(unranked), restrict))
        implications.append((slp.emitted_implications, slp.dropped_implications))
        return slp

    def solving(lp, *args, **kwargs):
        solved.append(lp)
        return real_solve(lp, *args, **kwargs)

    def encoding(p, inv, t, *args):
        encoded.append(t.id)
        return real_encode(p, inv, t, *args)

    def replaying(block, lp, frame):
        first = recorded.setdefault(id(block), frame)
        if frame != first:
            assert frame[:-1] == first[:-1]
            moved.append(lp)
        real_replay(block, lp, frame)

    monkeypatch.setattr(synthesis, "build_lp", building)
    monkeypatch.setattr(synthesis, "solve_lp", solving)
    monkeypatch.setattr(synthesis, "_encode", encoding)
    monkeypatch.setattr(synthesis.Block, "replay", replaying)
    assert synthesize(p, inv).found
    # the run replayed some blocks, some over a moved frame, and solved
    # every LP it built
    assert len(encoded) < sum(len(unranked) for _, unranked, _ in built)
    assert moved
    assert len(built) == len(solved)
    assert all(lp is s for (lp, _, _), s in zip(built, solved))
    assert implications == RUN_IMPLICATIONS[name]
    monkeypatch.undo()
    for lp, unranked, restrict in built:
        assert dump_lp(lp) == dump_lp(build_lp(p, inv, unranked, restrict).lp)


def test_run_encodes_each_memo_key_once(monkeypatch):
    """A run encodes each block once, whatever the attempts pin: the
    general ladder of depth 10 has no probabilistic branch, so its 20
    transitions are its 20 memo keys, over 66 LPs."""
    from probterm import synthesis
    from test_golden import ladder
    p, inv = ladder(10, "general")
    encoded, real_encode = [], synthesis._encode

    def encoding(p, inv, t, *args):
        encoded.append(t.id)
        return real_encode(p, inv, t, *args)

    monkeypatch.setattr(synthesis, "_encode", encoding)
    assert synthesize_general(p, inv).found
    assert len(encoded) == len(set(encoded)) == len(p.non_terminal_transitions()) == 20


def test_build_with_other_pins_encodes_and_screens_nothing(fig1a, monkeypatch):
    """A block reads no restriction: a second `build_lp` on the same memo
    and unranked set, with other coefficients pinned, replays every
    block, and its LP dumps as a cold build with those pins does."""
    from probterm import synthesis
    from probterm.farkas import dump_lp
    p, inv = fig1a
    unranked = [t.id for t in p.non_terminal_transitions()]
    x, y = p.var_index("x"), p.var_index("y")
    blocks = {}
    build_lp(p, inv, unranked, TemplateRestriction(zero_coeffs=frozenset({("l1", x)})),
             blocks=blocks)
    other = TemplateRestriction(zero_coeffs=frozenset({("l0", x), ("l1", y)}))

    def refused(*args, **kwargs):
        raise AssertionError("a build with other pins encoded or screened")

    monkeypatch.setattr(synthesis, "_encode", refused)
    monkeypatch.setattr(synthesis, "check_feasible", refused)
    again = build_lp(p, inv, unranked, other, blocks=blocks)
    monkeypatch.undo()
    assert dump_lp(again.lp) == dump_lp(build_lp(p, inv, unranked, other).lp)


def test_pinned_coefficient_is_a_column_with_one_zero_row(fig1a, monkeypatch):
    """In the first attempt of fig1a, each pinned (location, variable) is
    a free template column with exactly one `= 0` row, its pin row, and
    it reads 0 at the optimum."""
    from probterm import synthesis
    p, inv = fig1a
    built, real_build = [], synthesis.build_lp

    def building(*args, **kwargs):
        built.append((args, real_build(*args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(synthesis, "build_lp", building)
    synthesize_general(p, inv)
    (_, _, _, restrict), slp = built[0]
    assert restrict.zero_coeffs == {("l1", p.var_index("x"))}
    sol = solve_lp(slp.lp)
    assert sol.status is LPStatus.OPTIMAL
    for loc, i in restrict.zero_coeffs:
        k = slp.columns[loc][i]
        assert slp.lp.names[k] == f"c[{loc}][{p.variables[i]}]"
        assert not slp.lp.nonneg[k]
        zero_rows = [c for c in slp.lp.constraints if c.form.terms.keys() == {k}
                     and c.form.rhs == 0 and c.rel is RowRel.EQ]
        assert len(zero_rows) == 1
        assert sol.x[k] == 0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_frame_lists_each_column_once(name):
    # a self-loop's source is its destination: the frame lists that
    # location's template columns once
    p, inv = load_fixture(name)
    slp = build_lp(p, inv, [t.id for t in p.non_terminal_transitions()])
    for t in p.non_terminal_transitions():
        frame = slp.frame(t)
        assert len(frame) == len(set(frame)), t.id


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_memoised_build_encodes_screens_and_builds_nothing(name, monkeypatch):
    """A second `build_lp` on the same memo and unranked set replays every
    block: it encodes nothing, screens nothing and builds no `LinExpr`,
    and its LP dumps as the first one does."""
    from probterm import LinExpr, synthesis
    from probterm.farkas import dump_lp
    p, inv = load_fixture(name)
    unranked = [t.id for t in p.non_terminal_transitions()]
    blocks = {}
    first = build_lp(p, inv, unranked, blocks=blocks)
    built = []

    def refused(*args, **kwargs):
        raise AssertionError("a memoised build encoded or screened")

    real_init, real_owning = LinExpr.__init__, LinExpr.owning

    def init(self, *args, **kwargs):
        built.append("LinExpr")
        real_init(self, *args, **kwargs)

    def owning(*args):
        built.append("LinExpr.owning")
        return real_owning(*args)

    monkeypatch.setattr(synthesis, "_encode", refused)
    monkeypatch.setattr(synthesis, "check_feasible", refused)
    monkeypatch.setattr(LinExpr, "__init__", init)
    monkeypatch.setattr(LinExpr, "owning", staticmethod(owning))
    again = build_lp(p, inv, unranked, blocks=blocks)
    monkeypatch.undo()
    assert built == []
    assert dump_lp(again.lp) == dump_lp(first.lp)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cold_build_writes_each_row_once(name, monkeypatch):
    """A cold `build_lp` makes one `LPProblem`, the iteration LP, and one
    `LPConstraint` per row of it: a block is encoded straight into its own
    rows, not into an LP of its own, and replayed once."""
    from probterm import farkas, synthesis
    p, inv = load_fixture(name)
    made = {"LPProblem": 0, "LPConstraint": 0}

    def count(module, attr):
        real = getattr(module, attr)

        def making(*args, **kwargs):
            made[attr] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attr, making)

    count(synthesis, "LPProblem")
    # placing a block and `LPProblem.add_row`, which writes the eps rows,
    # both build it in `farkas`
    count(farkas, "LPConstraint")
    slp = build_lp(p, inv, [t.id for t in p.non_terminal_transitions()])
    monkeypatch.undo()
    assert made == {"LPProblem": 1, "LPConstraint": len(slp.lp.constraints)}


# -- the side conditions that the kept rows imply --------------------------------------


def test_empty_demonic_interval_is_refused():
    # every demonic variable of an LP has nonempty bounds, which is what
    # lets en and rk serve nonnegativity: an update over the empty interval
    # [1, 0] is never built
    from probterm import NondetUpdate
    with pytest.raises(ValueError, match=r"empty interval \[1, 0\]"):
        NondetUpdate(1, F(1), F(0))
    assert NondetUpdate(1, F(1), F(1)).hi == 1


def implied_case(name):
    from test_golden import load
    from test_strict_rule import workloads
    if name.startswith("corpus."):
        found = set(workloads.read_json("expected.json")["corpus"]["found"])
        sources = workloads.corpus_sources([i in found for i in range(workloads.CORPUS_SIZE)])
        return lower_to_pcfg(parse_program(sources[int(name[7:])])), Invariant({})
    return load(name)


def with_implied(p, inv, slp):
    """A copy of the iteration LP `slp.lp` with the implications that
    `build_lp` leaves out encoded again, over the antecedents that pass the
    screen: (2), never increasing in expectation, for every transition
    with an eps, and (1), nonnegativity, for each of them that is not a
    probabilistic branch."""
    from dataclasses import replace
    from probterm.farkas import check_feasible
    from probterm.synthesis import pre_and_bounds
    lp = replace(slp.lp, names=list(slp.lp.names), nonneg=list(slp.lp.nonneg),
                 constraints=list(slp.lp.constraints))
    for t in p.transitions:
        if t.id not in slp.eps:
            continue
        templates = {loc: template_at(slp, loc) for loc in slp.columns}
        here = templates[t.source]
        pre, bounds = pre_and_bounds(p, templates, t)
        for ante in inv.antecedents(t):
            if not t.is_pb and check_feasible(ante)[0]:
                encode_into(ante, here, lp, "nn")
            stepped = ante.conjoin(bounds)
            if check_feasible(stepped)[0]:
                encode_into(stepped, here - pre, lp, "ua")
    return lp


IMPLIED_CASES = (["branching", "prob_join", "fig1a", "fig1b"]
                 + [f"ladder.{mode}.k{k}" for mode in ("bsp", "general") for k in (1, 2, 3)]
                 + [f"corpus.{i}" for i in range(20)])


@pytest.mark.parametrize("name", IMPLIED_CASES)
def test_dropped_conditions_are_implied(name, monkeypatch):
    """Every LP of a run has the same optima over the template and eps
    columns as it has with the dropped implications encoded again: for
    its own objective, and for seeded random objectives over those
    columns, with each template column boxed in [-5, 5] so that every
    feasible one has a finite optimum."""
    import random
    from dataclasses import replace
    from probterm import check_bsp, synthesis
    p, inv = implied_case(name)
    built = []
    real = synthesis.build_lp

    def building(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(synthesis, "build_lp", building)
    (synthesize_bsp if check_bsp(p)[0] else synthesize_general)(p, inv)
    assert built
    rng = random.Random(name)
    for slp in built:
        full = with_implied(p, inv, slp)
        assert full.num_constraints() > slp.lp.num_constraints()
        kept, again = solve_lp(slp.lp), solve_lp(full)
        assert (kept.status, kept.value) == (again.status, again.value)
        template = [k for cols in slp.columns.values() for k in cols]
        for lp in (slp.lp, full):
            for k in template:
                lp.add_row({k: 1}, 5, 1, RowRel.LE)
                lp.add_row({k: 1}, -5, 1, RowRel.GE)
        for _ in range(3):
            weights = {k: F(rng.randint(-3, 3)) for k in template + list(slp.eps.values())}
            objective = integer_row(weights, F(0))
            kept, again = (solve_lp(replace(lp, objective=objective)) for lp in (slp.lp, full))
            assert (kept.status, kept.value) == (again.status, again.value)
