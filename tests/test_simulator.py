"""Trajectory semantics, estimation, the counterexample process, and the
invariant audit that can refute an invariant along runs."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import binom, chisquare, ks_2samp

from probterm import (Adversarial, FixedPriority, Invariant, UniformRandom,
                      audit_invariant, counterexample_process,
                      estimate_termination, max_pre, run_trajectory, synthesize_bsp,
                      wilson_interval)
from probterm import simulate
from probterm.simulate import (CEX_HORIZON, COUNTEREXAMPLE_ANALYTIC,
                               TerminationEstimate, counterexample_analytic,
                               trajectories)

from conftest import example3_certificate, load_fixture, perturbed


def test_run_from_terminal_is_immediate(fig1b):
    p, _ = fig1b
    at_exit = dataclasses.replace(p, init_location=p.terminal_location)
    r = run_trajectory(at_exit, [F(0), F(0)], UniformRandom(), 100, seed=1)
    assert r.terminated and r.steps == 0 and not r.stuck


def test_fig1b_terminates_fast(fig1b):
    p, _ = fig1b
    terminated = 0
    for i in range(200):
        r = run_trajectory(p, [F(0), F(0)], UniformRandom(), 10 ** 5,
                           seed=21, run_index=i, record_states=False)
        terminated += r.terminated
    assert terminated >= 199  # mean drift is -3 per step


def test_divergent_loop_hits_cap():
    p, _ = load_fixture("diverge_inc")
    r = run_trajectory(p, [F(0)], UniformRandom(), 1000, seed=0)
    assert not r.terminated and r.steps == 1000 and not r.stuck


def test_terminated_run_stays_at_terminal(fig1b):
    p, _ = fig1b
    r = run_trajectory(p, [F(2), F(2)], UniformRandom(), 10 ** 5, seed=5)
    assert r.terminated
    assert r.final_location == p.terminal_location
    # ten more steps change nothing: the terminal location has no exits
    at_exit = dataclasses.replace(p, init_location=p.terminal_location)
    r2 = run_trajectory(at_exit, r.final_values, UniformRandom(), 10, seed=6)
    assert r2.terminated and r2.steps == 0


def test_reproducibility_byte_for_byte(fig1b):
    p, _ = fig1b
    a = run_trajectory(p, [F(3), F(3)], UniformRandom(), 10 ** 5, seed=9, run_index=4)
    b = run_trajectory(p, [F(3), F(3)], UniformRandom(), 10 ** 5, seed=9, run_index=4)
    assert a == b
    assert a.as_dict() == b.as_dict()



def test_runs_without_states_record_no_path(fig1b):
    # the same run with and without the record: only `taken` and `states` differ
    p, _ = fig1b
    full = run_trajectory(p, [F(3), F(3)], UniformRandom(), 10 ** 4, seed=9, run_index=4)
    [bare] = trajectories(p, [F(3), F(3)], UniformRandom(), 10 ** 4, 9, [4])
    assert len(full.taken) == full.steps == bare.steps > 0
    assert len(full.states) == full.steps + 1
    assert bare.taken is None and bare.states is None
    assert dataclasses.replace(full, taken=None, states=None) == bare

@pytest.mark.parametrize("name, init", [("bern_walk", [F(3)]), ("fig1b", [F(3), F(3)])])
def test_runs_build_no_fraction_per_step(name, init, monkeypatch):
    # a run keeps integer numerators and denominators: an estimate reads
    # the start state once and builds no Fraction per step or per run; a
    # report builds its final values only when they are read
    built = 0
    real = simulate.Fraction

    def counted(*args):
        nonlocal built
        built += 1
        return real(*args)

    p, _ = load_fixture(name)
    runs = 200
    recorded = [run_trajectory(p, init, UniformRandom(), 10 ** 4, seed=1, run_index=i)
                for i in range(runs)]
    monkeypatch.setattr(simulate, "Fraction", counted)
    est = estimate_termination(p, init, UniformRandom(), runs, 10 ** 4, seed=1)
    assert est.mean_steps > 5
    assert built == len(init)
    reports = list(trajectories(p, init, UniformRandom(), 10 ** 4, 1, range(runs)))
    assert built == 2 * len(init)
    finals = [r.final_values for r in reports]
    assert built == len(init) * (runs + 2)
    # the values a recorded run visits last, built in the run
    assert finals == [r.states[-1][1] for r in recorded]
    assert all(type(v) is F for values in finals for v in values)


def test_only_a_scheduler_that_reads_values_gets_them(monkeypatch):
    # `branching` chooses between its two arms at each loop head: the
    # built-in uniform and fixed-priority schedulers read no values, so a
    # 500-run estimate from (3, 5) builds only the 2 Fractions of its start
    # state; a `Scheduler` subclass still gets the values at every choice
    built = 0
    real = simulate.Fraction

    def counted(*args):
        nonlocal built
        built += 1
        return real(*args)

    seen = []

    class Reading(simulate.Scheduler):
        def choose(self, enabled, values, rng):
            assert all(type(v) is F for v in values)
            seen.append(values)
            return enabled[0]

    p, _ = load_fixture("branching")
    init = [F(3), F(5)]
    monkeypatch.setattr(simulate, "Fraction", counted)
    for sched in (UniformRandom(), FixedPriority(), Reading()):
        built = 0
        estimate_termination(p, init, sched, 500, 10 ** 4, seed=1)
        assert built == len(init) * (1 + len(seen))
    assert len(seen) > 500


def test_stuck_reported_not_raised():
    from probterm import (GuardedStep, LinConstraint, LinExpr, NoUpdate, PCFG,
                          Polyhedron, Predicate, Transition)
    guard = Predicate([Polyhedron([LinConstraint.le(LinExpr({0: -1}, F(1)))])])
    p = PCFG(["x"], ["a", "out"], "a", "out",
             [Transition("t0", "a", GuardedStep("out", guard, NoUpdate()))])
    r = run_trajectory(p, [F(0)], UniformRandom(), 100, seed=0)
    assert r.stuck and not r.terminated and r.steps == 0


# -- estimation --------------------------------------------------------------------


def test_estimates_match_criteria(fig1a, fig1b):
    est_a = estimate_termination(fig1a[0], [F(3), F(5)], UniformRandom(),
                                 runs=300, step_cap=10 ** 6, seed=2)
    assert est_a.fraction >= 0.99
    est_b = estimate_termination(fig1b[0], [F(3), F(3)], UniformRandom(),
                                 runs=300, step_cap=10 ** 6, seed=2)
    assert est_b.fraction >= 0.99


def test_divergent_fraction_zero():
    p, _ = load_fixture("diverge_inc")
    est = estimate_termination(p, [F(0)], UniformRandom(), runs=50,
                               step_cap=500, seed=0)
    assert est.fraction == 0.0
    assert est.interval[0] == 0.0


def test_estimation_reproducible_and_order_invariant(fig1b):
    p, _ = fig1b
    one = estimate_termination(p, [F(3), F(3)], UniformRandom(), runs=60,
                               step_cap=10 ** 4, seed=7)
    again = estimate_termination(p, [F(3), F(3)], UniformRandom(), runs=60,
                                 step_cap=10 ** 4, seed=7)
    # each run has its own substream, so the order of runs does not matter
    backwards = TerminationEstimate.of(trajectories(p, [F(3), F(3)], UniformRandom(),
                                                    10 ** 4, 7, reversed(range(60))))
    assert one == again == backwards


def _philox_reference(seed, i):
    """Run i's stream built from scratch: Philox keyed on the seed, its
    counter at the words (0, 0, i, 0)."""
    return np.random.Generator(np.random.Philox(
        counter=np.array([0, 0, i, 0], np.uint64), key=seed))


@pytest.mark.parametrize("seed", [0, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 3,
                                  simulate.MAX_SEED])
def test_run_streams_are_philox_counters(seed):
    # indices backwards, with a repeat and indices of 2**32 and above; the
    # last draw of each run is a 32-bit one, which leaves half a 64-bit
    # word buffered that the next run must not see
    indices = list(range(300)) + [2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 40, 2 ** 64 - 1]
    indices.reverse()
    for i, rng in zip(indices, simulate.run_rngs(seed, indices), strict=True):
        got, want = ((r.random(), r.integers(0, 10 ** 9), r.normal(),
                      r.binomial(50, 0.3), r.integers(0, 10 ** 9),
                      r.integers(0, 2 ** 32, dtype=np.uint32))
                     for r in (rng, _philox_reference(seed, i)))
        assert got == want, i


def test_raw_word_is_the_uniform_random_reads():
    # a simulator draw reads `bit_generator.random_raw()` where it used to
    # read `random()`: on a run stream both take the next 64-bit word w and
    # `random()` is (w >> 11) * 2**-53, before and after normals, which
    # take words of their own, and after the generator moves to the next run
    seed, indices = 7, [0, 1, 2 ** 40]
    for raw, ref in zip(simulate.run_rngs(seed, indices), simulate.run_rngs(seed, indices)):
        for k in range(200):
            m, u = raw.bit_generator.random_raw() >> 11, ref.random()
            assert m * 2.0 ** -53 == u and F(m, 2 ** 53) == F(u)
            if k % 3 == 0:
                assert raw.normal(1.5, 2.0) == ref.normal(1.5, 2.0)


def test_uniform_choice_floors_the_float_product():
    # m / 2**53 * 3 is just below 2, but the float u * 3 rounds to 2.0:
    # the scheduler takes index 2, as int(rng.random() * 3) does in the
    # AST interpreter, not the exact floor 1
    m = (2 ** 54 - 1) // 3
    # one word, through the bit generator and as `random()` reads it
    rng = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda: m << 11),
                          random=lambda: m * 2.0 ** -53)
    assert (m * 3) >> 53 == 1 and int(rng.random() * 3) == 2
    enabled = ["t0", "t1", "t2"]
    assert UniformRandom().choose(enabled, [], rng) == "t2"


@pytest.mark.parametrize("seed, indices", [(-1, [0]), (0, [3, -1]),
                                           (2 ** 128, [0]), (0, [3, 2 ** 64])])
def test_run_streams_reject_out_of_range(seed, indices):
    with pytest.raises(ValueError):
        list(simulate.run_rngs(seed, indices))


def test_first_run_takes_one_stream(fig1b, monkeypatch):
    # the runs come lazily: the first of 10**12 takes one stream
    taken = []
    real_rngs = simulate.run_rngs

    def counted(seed, indices):
        return real_rngs(seed, (taken.append(i) or i for i in indices))

    monkeypatch.setattr(simulate, "run_rngs", counted)
    first = next(trajectories(fig1b[0], [F(3), F(3)], UniformRandom(), 10 ** 4, 3,
                              range(10 ** 12)))
    assert taken == [0]
    assert first == run_trajectory(fig1b[0], [F(3), F(3)], UniformRandom(), 10 ** 4,
                                   seed=3, record_states=False)


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(90, 100)
    assert 0.8 < lo < 0.9 < hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_estimate_requires_runs(fig1b):
    with pytest.raises(ValueError):
        estimate_termination(fig1b[0], [F(0), F(0)], UniformRandom(), runs=0)


@pytest.mark.parametrize("runs", [0, -3, 2 ** 63])
def test_counterexample_requires_runs(runs):
    with pytest.raises(ValueError):
        counterexample_process(seed=0, runs=runs)


# -- schedulers ---------------------------------------------------------------------


def test_fixed_priority_is_deterministic():
    p, _ = load_fixture("branching")
    sched = FixedPriority([t.id for t in p.transitions], ndet_mode="hi")
    a = run_trajectory(p, [F(3), F(5)], sched, 10 ** 4, seed=1)
    b = run_trajectory(p, [F(3), F(5)], sched, 10 ** 4, seed=2)
    # transition choices and demonic values are seed-independent; only
    # probabilistic draws differ
    assert a.taken[0] == b.taken[0]


def test_fixed_priority_order():
    # a repeated id keeps its first position; ids the ordering does not
    # list come after every listed one, among themselves by id
    sched = FixedPriority(["t2", "t0", "t2"])

    def pick(*ids):
        return sched.choose([SimpleNamespace(id=tid) for tid in ids], None, None).id

    assert pick("t0", "t2") == "t2"
    assert pick("t5", "t0", "t3") == "t0"
    assert pick("t5", "t3") == "t3"


def test_adversarial_scheduler_runs(fig1b):
    p, inv = fig1b
    sched = Adversarial(example3_certificate(p))
    est = estimate_termination(p, [F(3), F(3)], sched, runs=100,
                               step_cap=10 ** 5, seed=3)
    assert est.fraction >= 0.99  # certified program survives the heuristic


def test_adversarial_choice_and_endpoint_on_branching():
    """On `branching` with the certificate synthesis finds, `choose` takes
    the enabled `if *` arm whose max pre-expectation of the highest
    enabled component is larger, a tie going to the larger id, and
    `ndet_value` the interval endpoint that maximizes the component at
    the target."""
    p, inv = load_fixture("branching")
    cert = synthesize_bsp(p, inv).certificate
    t2, t3 = p.transition("t2"), p.transition("t3")
    # both arms are enabled at l0 when x, y >= 0; component 3, x + 19 at
    # l0 and 18 at l1, ranks the sampling arm t2 (mean -1), and t3, the
    # demonic arm, sits at level 2
    assert (cert.levels["t2"], cert.levels["t3"]) == (3, 2)
    third = cert.lem.component(3)
    sched = Adversarial(cert)
    for x in range(4):
        values = [F(x), F(5)]
        assert [max_pre(third, t).evaluate(values) for t in (t2, t3)] == [x + 18, 18]
        for enabled in ([t2, t3], [t3, t2]):
            assert sched.choose(enabled, values, None).id == ("t2" if x else "t3")
    # component 2 at l1 is 3y + 29: it does not read x, the target of
    # t3's interval [-2, -1], so either endpoint maximizes it and `hi` is
    # taken; a coefficient on x picks the endpoint on its side
    x = p.var_index("x")
    assert cert.lem.at("l1", 2).coeff(x) == 0
    assert sched.ndet_value(t3) == -1
    for delta, endpoint, other in ((-1, -2, -1), (1, -1, -2)):
        tilted = perturbed(cert, "l1", 2, x, delta)
        at_target = tilted.lem.at("l1", 2)
        assert Adversarial(tilted).ndet_value(t3) == endpoint
        assert at_target.evaluate([F(endpoint), F(5)]) > at_target.evaluate([F(other), F(5)])


def test_scheduler_choice_irrelevant_without_nondeterminism(fig1b):
    """Guards in this program partition the state space, so transition
    choice never arises and any scheduler yields the same step-count law
    (documented flaky-tolerant: KS test at p > 0.01)."""
    p, _ = fig1b
    steps_u, steps_f = [], []
    for i in range(300):
        steps_u.append(run_trajectory(p, [F(3), F(3)], UniformRandom(),
                                      10 ** 5, seed=31, run_index=i).steps)
        steps_f.append(run_trajectory(p, [F(3), F(3)],
                                      FixedPriority([t.id for t in p.transitions]),
                                      10 ** 5, seed=41, run_index=i).steps)
    assert ks_2samp(steps_u, steps_f).pvalue > 0.01


# -- the counterexample process --------------------------------------------------------


def test_counterexample_analytic_value_roundtrip():
    exact = counterexample_analytic()
    assert abs(float(exact) - COUNTEREXAMPLE_ANALYTIC) < 1e-12
    assert exact < F(1, 2)  # the classical coarse bound


def test_counterexample_empirical_matches_series():
    runs = 200_000
    rep = counterexample_process(seed=5, runs=runs)
    se = math.sqrt(COUNTEREXAMPLE_ANALYTIC * (1 - COUNTEREXAMPLE_ANALYTIC) / runs)
    assert abs(rep.empirical - COUNTEREXAMPLE_ANALYTIC) <= 4 * se
    assert rep.residual_bound < 1e-18


# (seed, runs) -> runs that stopped. Each step draws the number of runs that
# stop with one binomial on one stream, so a change to the steps, to their
# probabilities or to the draws shows here.
STOP_COUNTS = {(0, 1): 0, (8, 100_000): 42_091, (5, 200_000): 84_525,
               (7, 123_457): 51_892, (2024, 10 ** 6): 422_750,
               (3, 131_073): 55_410}


@pytest.mark.parametrize("seed, runs", sorted(STOP_COUNTS))
def test_counterexample_stream_is_pinned(seed, runs):
    rep = counterexample_process(seed, runs)
    assert round(rep.empirical * runs) == STOP_COUNTS[seed, runs]


def _reference_stop_count(seed: int, runs: int) -> int:
    """The runs that stop, by a plain loop over the steps: at step t, each
    run still going stops with the probability that `rng.random()`, one of
    the 2**53 multiples of 2**-53 in [0, 1), lies below p_t = 2**-t/4."""
    rng = np.random.default_rng(seed)
    live = runs
    for t in range(CEX_HORIZON + 1):
        q = F(math.ceil(F(2 ** 53, 4 * 2 ** t)), 2 ** 53)
        assert q == max(F(1, 4 * 2 ** t), F(1, 2 ** 53))
        live -= int(rng.binomial(live, float(q)))
    return runs - live


def test_counterexample_draws_one_binomial_per_step():
    for seed, runs in [(0, 1), (1, 6), (2, 7), (3, 8), (4, 15), (5, 100), (6, 500),
                       (7, 10 ** 9), (8, simulate.CEX_MAX_RUNS)]:
        rep = counterexample_process(seed, runs)
        assert rep.empirical == _reference_stop_count(seed, runs) / runs


def test_counterexample_stop_count_is_binomial():
    # of 8 runs, the number that stop is Binomial(8, P[stop]); 4000 seeded
    # counts against that law, the bins of 7 and 8 pooled
    runs, seeds = 8, 4000
    counts = np.zeros(runs + 1)
    for seed in range(seeds):
        stopped = round(counterexample_process(seed, runs).empirical * runs)
        assert 0 <= stopped <= runs
        counts[stopped] += 1
    expected = seeds * binom.pmf(np.arange(runs + 1), runs, COUNTEREXAMPLE_ANALYTIC)
    bins = np.arange(8)
    assert chisquare(np.add.reduceat(counts, bins),
                     np.add.reduceat(expected, bins)).pvalue > 1e-3


def test_counterexample_memory_is_constant_in_runs():
    # numpy reports its buffers to tracemalloc; 200 000 runs as fresh
    # arrays of uniforms would need about 92 MiB
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        counterexample_process(3, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 4 * 2 ** 20


def test_counterexample_ci_shrinks_with_runs():
    reps = 40
    small = [counterexample_process(seed=s, runs=2000).empirical for s in range(reps)]
    large = [counterexample_process(seed=s + 1000, runs=8000).empirical
             for s in range(reps)]
    # quadrupling the runs should halve the spread, within sampling noise
    ratio = np.std(small) / np.std(large)
    assert 1.4 < ratio < 2.9


def test_custom_distribution_uses_registry_and_declared_mean():
    from probterm import (DistributionSpec, ExprUpdate, GuardedStep, Invariant,
                          LinConstraint, LinExpr, PCFG, Polyhedron, Predicate,
                          Transition, check_certificate, register_sampler,
                          synthesize_bsp)
    # a two-point distribution {-2 w.p. 1/2, 0 w.p. 1/2}, provided as an
    # opaque sampler with its declared mean and support
    register_sampler("two-point-test", lambda rng: -2.0 if rng.random() < 0.5 else 0.0)
    dist = DistributionSpec.custom("two-point-test", F(-1), F(-2), F(0))
    x_ge_0 = Predicate([Polyhedron([LinConstraint.le(LinExpr({0: -1}))])])
    x_lt_0 = Predicate([Polyhedron([LinConstraint.lt(LinExpr({0: 1}))])])
    p = PCFG(["x"], ["l0", "out"], "l0", "out", [
        Transition("t0", "l0", GuardedStep("out", x_lt_0, __import__("probterm").NoUpdate())),
        Transition("t1", "l0", GuardedStep("l0", x_ge_0,
                                           ExprUpdate(0, LinExpr({0: 1}), (F(1), dist)))),
    ])
    # synthesis consumes only mean and support
    res = synthesize_bsp(p, Invariant({}))
    assert res.found and check_certificate(p, Invariant({}), res.certificate).accepted
    # simulation draws through the registry: every step adds -2 or 0, so
    # the trajectory stays on integers and steps down by 0 or 2
    r = run_trajectory(p, [F(5)], UniformRandom(), 10 ** 4, seed=2)
    assert r.terminated
    visited = [vals[0] for _, vals in r.states]
    assert all(v.denominator == 1 for v in visited)
    assert all(prev - nxt in (F(0), F(2)) for prev, nxt in zip(visited, visited[1:]))
    est = estimate_termination(p, [F(5)], UniformRandom(), runs=100,
                               step_cap=10 ** 4, seed=3)
    assert est.fraction == 1.0


def test_unregistered_sampler_is_an_error():
    from probterm import DistributionSpec
    dist = DistributionSpec.custom("nobody-registered-this", F(0), F(-1), F(1))
    with pytest.raises(KeyError):
        dist.sample(np.random.default_rng(0))


def _reference_sample(dist, rng) -> F:
    """One draw of `dist` by its definition, in Fractions: what `drawer`
    must compute from the same stream."""
    from probterm.distributions import DistKind, _SAMPLERS
    if dist.kind is DistKind.NORMAL:
        return F(rng.normal(float(dist.param("mean")), float(dist.param("stddev"))))
    if dist.kind is DistKind.CUSTOM:
        return F(_SAMPLERS[dist.param("sampler")](rng))
    u = F(rng.random())
    if dist.kind is DistKind.UNIFORM:
        return dist.param("lo") + (dist.param("hi") - dist.param("lo")) * u
    if dist.kind is DistKind.BERNOULLI:
        return F(u < dist.param("p"))
    acc = F(0)
    for v, p in dist.param("values"):
        acc += p
        if u < acc:
            return v


@pytest.mark.parametrize("make", [
    lambda D: D.normal(F(-3, 2), F(7, 3)),
    lambda D: D.uniform(F(-1, 3), F(5, 7)),
    lambda D: D.bernoulli(F(2, 7)),
    lambda D: D.discrete([(-2, F(1, 3)), (F(1, 2), F(1, 6)), (5, F(1, 2)), (9, 0)]),
    lambda D: D.custom("drawer-test", F(1, 2), F(0), F(1)),
], ids=["normal", "uniform", "bernoulli", "discrete", "custom"])
def test_drawer_draws_like_draw(make):
    from probterm import DistributionSpec, register_sampler
    register_sampler("drawer-test", lambda rng: rng.random() ** 2)
    dist = make(DistributionSpec)
    draw = dist.drawer()
    rngs = [np.random.default_rng(11) for _ in range(3)]
    for _ in range(1000):
        got = draw(rngs[0])
        assert got == dist.draw(rngs[1])
        assert got[1] > 0 and F(*got) == _reference_sample(dist, rngs[2])


def test_unreached_unregistered_sampler_still_simulates():
    # the sampler is looked up when drawn, not when the program compiles
    from probterm import (DistributionSpec, ExprUpdate, GuardedStep, LinConstraint,
                          LinExpr, NoUpdate, PCFG, Polyhedron, Predicate, Transition)
    dist = DistributionSpec.custom("nobody-registered-this-either", F(0), F(-1), F(1))
    x_ge_0 = Predicate([Polyhedron([LinConstraint.le(LinExpr({0: -1}))])])
    x_lt_0 = Predicate([Polyhedron([LinConstraint.lt(LinExpr({0: 1}))])])
    p = PCFG(["x"], ["l0", "out"], "l0", "out", [
        Transition("t0", "l0", GuardedStep("out", x_lt_0, NoUpdate())),
        Transition("t1", "l0", GuardedStep("l0", x_ge_0,
                                           ExprUpdate(0, LinExpr({0: 1}), (F(1), dist)))),
    ])
    est = estimate_termination(p, [F(-1)], UniformRandom(), runs=5, step_cap=10, seed=0)
    assert est.terminated == 5
    with pytest.raises(KeyError):
        run_trajectory(p, [F(0)], UniformRandom(), 10, seed=0)


# -- audits -----------------------------------------------------------------------------


def _trajectories(p, init, n, seed, cap=10 ** 4):
    return [run_trajectory(p, init, UniformRandom(), cap, seed=seed, run_index=i)
            for i in range(n)]


def test_invariant_audit_clean_on_example3(fig1b):
    p, inv = fig1b
    trajs = _trajectories(p, [F(3), F(3)], 200, seed=13)
    assert audit_invariant(p, inv, trajs) == []


def test_invariant_audit_catches_false_invariant(fig1b):
    p, _ = fig1b
    from probterm.source import parse_constraint_strings
    bogus = Invariant({"l0": parse_constraint_strings(["x >= 100"], p.variables)})
    trajs = _trajectories(p, [F(0), F(0)], 1, seed=1)
    violations = audit_invariant(p, bogus, trajs)
    assert violations and violations[0].step == 0


def test_invariant_audit_empty_input():
    p, inv = load_fixture("fig1b")
    assert audit_invariant(p, inv, []) == []


# -- compiled locations ---------------------------------------------------------------


def _location_program(guards, nvars):
    """A program whose location "a" has one edge per guard, each to "out"."""
    from probterm import GuardedStep, NoUpdate, PCFG, Transition
    return simulate.Program(PCFG([f"x{i}" for i in range(nvars)], ["a", "out"], "a", "out",
                                 [Transition(f"t{k}", "a", GuardedStep("out", g, NoUpdate()))
                                  for k, g in enumerate(guards)]))


def _enabled(program, values):
    """The ids of the edges out of "a" enabled at `values`, in edge order,
    read off one step of a compiled run: none when it is stuck, the
    scheduler's options on a real choice, else the edge it took."""
    options = []

    class Record(simulate.Scheduler):
        def choose(self, enabled, at, rng):
            assert at == values and all(type(v) is F for v in at)
            options.extend(t.id for t in enabled)
            return enabled[0]

    r = program.run(simulate._integer_state(values), Record(), 1, None)
    return [] if r.stuck else options or r.taken


def _form_key(e):
    """`e` up to a nonzero factor: divided by its first coefficient, by
    variable; a constant expression by whether it is zero."""
    if not e.coeffs:
        return e.constant != 0
    lead = e.coeffs[min(e.coeffs)]
    return tuple(sorted((i, c / lead) for i, c in e.coeffs.items())), e.constant / lead


def test_compiled_location_matches_predicate():
    """Each edge's enabledness in a compiled location against
    `Predicate.satisfied`, on random multi-edge locations whose guards
    reuse proportional and opposite atoms, at integer, small-rational,
    dyadic and on-boundary points; proportional atoms share one form."""
    import random
    from probterm import LinConstraint, LinExpr, Polyhedron, Predicate, Rel

    rng = random.Random(3)
    nvars = 3

    def rational():
        return F(rng.randint(-6, 6), rng.randint(1, 7))

    def nonzero():
        return F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 7))

    def atom(pool):
        if pool and rng.random() < 0.4:
            # an earlier atom's expression times a nonzero factor
            e = rng.choice(pool).lhs
            k = nonzero()
            lhs = LinExpr({i: c * k for i, c in e.coeffs.items()}, e.constant * k)
        else:
            coeffs = {i: nonzero() for i in rng.sample(range(nvars), rng.randint(0, nvars))}
            lhs = LinExpr(coeffs, rational())
        c = LinConstraint(lhs, rng.choice(list(Rel)))
        pool.append(c)
        return c

    def point():
        kind = rng.randrange(3)
        if kind == 0:
            return [F(rng.randint(-5, 5)) for _ in range(nvars)]
        if kind == 1:
            return [rational() for _ in range(nvars)]
        return [F(rng.uniform(-5, 5)) for _ in range(nvars)]

    def on_boundary(c, values):
        # solve lhs == 0 for one variable of the atom
        j = next(iter(c.lhs.coeffs))
        rest = c.lhs.evaluate(values) - c.lhs.coeff(j) * values[j]
        values = list(values)
        values[j] = -rest / c.lhs.coeff(j)
        return values

    fixed = [LinConstraint.le(LinExpr({0: 2}, -2)), LinConstraint.lt(LinExpr({0: 1}, -1)),
             LinConstraint.le(LinExpr({0: -1})), LinConstraint.lt(LinExpr({0: 1})),
             LinConstraint.le(LinExpr({}, -1)), LinConstraint.lt(LinExpr({}, F(3, 2))),
             LinConstraint.eq(LinExpr({}, 0))]
    seen = set()
    for trial in range(150):
        if trial == 0:
            pool = list(fixed)
            guards = [Predicate([Polyhedron(fixed[:2]), Polyhedron(fixed[2:4])])]
        else:
            pool = []
            guards = [Predicate([Polyhedron([atom(pool) for _ in range(rng.randint(1, 3))])
                                 for _ in range(rng.randint(1, 3))])
                      for _ in range(rng.randint(1, 4))]
        # one edge per atom, then an always and a never enabled edge
        singles = list(dict.fromkeys(pool))
        guards += [Predicate([Polyhedron([c])]) for c in singles]
        guards += [Predicate.true(), Predicate.false()]
        program = _location_program(guards, nvars)
        forms = program.locations["a"].forms
        assert len(forms) == len({_form_key(c.lhs) for c in pool})
        if trial == 0:
            # 2x - 2 and x - 1, -x and x, the nonzero and the zero constants
            assert len(forms) == 4
        for _ in range(20):
            values = point()
            if rng.random() < 0.5:
                c = rng.choice(singles)
                if c.lhs.coeffs:
                    values = on_boundary(c, values)
                    assert c.lhs.evaluate(values) == 0
            enabled = set(_enabled(program, values))
            for k, g in enumerate(guards):
                assert (f"t{k}" in enabled) == g.satisfied(values), (g, values)
            for k, c in enumerate(singles, len(guards) - len(singles) - 2):
                seen.add((c.rel, c.lhs.evaluate(values) == 0, f"t{k}" in enabled))
        assert len(program.locations["a"].enabled) <= 3 ** len(forms)
    # every outcome a strict, non-strict or equality atom can have, on and
    # off its boundary, and no other
    on_edge = {(Rel.LE, True, True), (Rel.LT, True, False), (Rel.EQ, True, True)}
    off_edge = {(Rel.LE, False, r) for r in (False, True)} | \
        {(Rel.LT, False, r) for r in (False, True)} | {(Rel.EQ, False, False)}
    assert seen == on_edge | off_edge


def test_compiled_location_constant_guards():
    # true, false and constant atoms read no variable: one form, fixed signs
    from probterm import LinConstraint, LinExpr, Predicate
    guards = [Predicate.true(), Predicate.false(),
              Predicate.of_constraints([LinConstraint.le(LinExpr({}, -3))]),
              Predicate.of_constraints([LinConstraint.lt(LinExpr({}, F(1, 2)))])]
    program = _location_program(guards, 1)
    assert program.locations["a"].forms == (((), 1),)
    for v in (F(0), F(-7, 3), F(5)):
        assert _enabled(program, [v]) == ["t0", "t2"]
    assert _location_program([Predicate.false()], 1).run(
        simulate._integer_state([F(0)]), UniformRandom(), 10, None).stuck
