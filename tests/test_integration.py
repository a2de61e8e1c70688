"""Randomized cross-module soundness: generated programs go through
parse -> lower -> synthesize -> check -> simulate. Every certificate the
search produces must survive the independent checker, and the certified
program must terminate empirically; programs without certificates must
still parse, lower, validate and simulate without error."""

import dataclasses
import random
import re
from fractions import Fraction as F

from probterm import (Invariant, UniformRandom, check_bsp, check_certificate,
                      check_linpp_star, estimate_termination, lower_to_pcfg,
                      parse_program, run_ast, run_trajectory, synthesize_bsp,
                      synthesize_general, validate_pcfg)
from probterm.simulate import run_rngs


def gen_program(rng: random.Random) -> str:
    vars_ = ["x", "y"]

    def num(lo=-3, hi=3):
        return rng.randint(lo, hi)

    def update():
        v = rng.choice(vars_)
        roll = rng.random()
        if roll < 0.25:
            lo = num(-4, 0)
            return f"{v} := ndet[{lo}, {lo + rng.randint(0, 3)}]"
        if roll < 0.55:
            # bounded noise, drift biased downward
            a = rng.randint(-6, -1)
            b = rng.randint(0, 2)
            return f"{v} := {v} + {num(-2, 0)} + sample(unif({a}, {b}))"
        if roll < 0.65:
            return f"{v} := {v} - 1 + sample(bern(1/2))"
        return f"{v} := {v} + {num(-3, 1)}"

    def guard():
        v = rng.choice(vars_)
        op = rng.choice([">=", ">", "<="])
        g = f"{v} {op} {num(-2, 2)}"
        if rng.random() < 0.3:
            w = rng.choice(vars_)
            g += f" and {w} {rng.choice(['>=', '<='])} {num(-2, 2)}"
        return g

    def stmt(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.45:
            return update()
        if roll < 0.6:
            return (f"while {guard()} do {stmt(depth - 1)}; {update()} od")
        if roll < 0.75:
            return (f"if {guard()} then {stmt(depth - 1)} "
                    f"else {stmt(depth - 1)} fi")
        if roll < 0.9:
            p = rng.choice(["1/4", "1/2", "3/4"])
            return (f"if prob({p}) then {stmt(depth - 1)} "
                    f"else {stmt(depth - 1)} fi")
        return (f"if * then {stmt(depth - 1)} else {stmt(depth - 1)} fi")

    return f"while {guard()} do {stmt(2)} od"


def test_random_programs_pipeline_sound():
    rng = random.Random(20240809)
    found = 0
    refused = 0
    for trial in range(60):
        src = gen_program(rng)
        program = parse_program(src)
        p = lower_to_pcfg(program)
        assert validate_pcfg(p) == [], src
        bounded, _ = check_bsp(p)
        result = (synthesize_bsp if bounded else synthesize_general)(p, Invariant({}))
        if not result.found:
            refused += 1
            continue
        found += 1
        report = check_certificate(p, Invariant({}), result.certificate)
        assert report.accepted, (src, [str(v) for v in report.violations])
        init = [F(rng.randint(-2, 3)) for _ in p.variables]
        est = estimate_termination(p, init, UniformRandom(), runs=25,
                                   step_cap=50_000, seed=trial)
        assert est.fraction >= 0.9, (src, init, est)
    # the batch must actually exercise both outcomes
    assert found >= 10, found
    assert refused >= 5, refused



def _guarded_choice(p, run) -> bool:
    """Whether `run` (recorded with states) took a step at which two or
    more transitions with a guard other than true were enabled."""
    return any(sum(not t.guard().is_true() and t.guard().satisfied(values)
                   for t in p.outgoing(loc)) > 1
               for loc, values in run.states[:-1])


def test_ast_and_graph_traces_agree_on_random_programs():
    """The AST interpreter is the oracle for the lowered graph run under
    the uniform scheduler, on the corpus's `ndet`, `unif`, `bern`, `prob`,
    `if *` and two-atom guards: from each start state and on each stream,
    both terminate or neither, and a terminated pair makes the same draws
    and ends in the same state. A graph step is one AST step or several
    (lowering contracts chains of steps), so a run the AST finishes
    within the cap the graph finishes too, and a graph run that finishes
    gets the AST twenty times the cap.

    Lowering splits the negation of a two-atom conjunction into two exits
    with one destination and one update, and where both are enabled the
    uniform scheduler draws a choice that the AST never makes. Such runs
    are counted, not compared; the count shows when that is mended."""
    rng = random.Random(20240809)
    cap = 60
    terminated = split = 0
    for _ in range(60):
        src = gen_program(rng)
        ast = parse_program(src)
        p = lower_to_pcfg(ast)
        for start in range(3):
            values = [F(rng.randint(-3, 4), rng.choice([1, 1, 2])) for _ in p.variables]
            for seed in (start, 500 + start):
                sim = run_trajectory(p, values, UniformRandom(), cap, seed=seed)
                if _guarded_choice(p, sim):
                    split += 1
                    continue
                ref = run_ast(ast, list(values), next(run_rngs(seed, [0])), step_cap=cap)
                if sim.terminated and not ref.terminated:
                    ref = run_ast(ast, list(values), next(run_rngs(seed, [0])),
                                  step_cap=20 * cap)
                assert ref.terminated == sim.terminated, (src, values, seed)
                if ref.terminated:
                    assert (ref.draws, ref.values) == (sim.draws, sim.final_values), \
                        (src, values, seed)
                    terminated += 1
    # both outcomes occur among the runs compared
    assert 0 < terminated < 360 - split, terminated
    assert split == 46


def test_random_certificates_levels_cover_all_transitions():
    rng = random.Random(7777)
    covered = 0
    while covered < 10:
        src = gen_program(rng)
        p = lower_to_pcfg(parse_program(src))
        bounded, _ = check_bsp(p)
        result = (synthesize_bsp if bounded else synthesize_general)(p, Invariant({}))
        if not result.found:
            continue
        cert = result.certificate
        for t in p.non_terminal_transitions():
            assert 1 <= cert.levels[t.id] <= cert.dimension
        assert len(result.history) == cert.dimension
        covered += 1


def _bsp_outcome(p):
    """The bsp verdict, and the set of transitions each iteration ranked."""
    result = synthesize_bsp(p, Invariant({}))
    return result.found, [set(rec.ranked) for rec in result.history]


def test_bsp_outcome_ignores_listing_order_and_names():
    """The bsp procedure ranks the unique maximal rankable set at each
    iteration, so neither its verdict nor any ranked set may depend on the
    order of `transitions` and `locations`, or on what the variables are
    called."""
    rng, shuffle = random.Random(20240809), random.Random("listing order")
    found = 0
    for _ in range(60):
        src = gen_program(rng)
        p = lower_to_pcfg(parse_program(src))
        assert check_bsp(p)[0], src
        outcome = _bsp_outcome(p)
        found += outcome[0]
        for _ in range(3):
            q = dataclasses.replace(
                p, locations=shuffle.sample(p.locations, len(p.locations)),
                transitions=shuffle.sample(p.transitions, len(p.transitions)))
            assert _bsp_outcome(q) == outcome, src
        swapped = re.sub(r"\b[xy]\b", lambda m: "yx"[m.group() == "y"], src)
        assert _bsp_outcome(lower_to_pcfg(parse_program(swapped))) == outcome, swapped
    assert found >= 10, found


def _in_units(src: str, c: int) -> str:
    """`src` with every quantity measured in units c times smaller: each
    integer literal times c, except the probabilities inside `prob(...)`
    and `bern(...)`, and each bern sample, which is 0 or 1, times c."""
    parts = re.split(r"((?:prob|bern)\([^)]*\))", src)
    scaled = "".join(part if i % 2 else re.sub(r"\d+", lambda m: str(int(m.group()) * c), part)
                     for i, part in enumerate(parts))
    return scaled.replace("sample(bern(", f"{c} * sample(bern(")


def test_bsp_outcome_ignores_units():
    """A change of units is an invertible linear map of the state, so it
    maps certificates to certificates: the verdict and every ranked set
    stay, and the checker accepts each certificate found, however large
    the literals grow."""
    rng = random.Random(20240809)
    found = 0
    for _ in range(60):
        src = gen_program(rng)
        outcome = _bsp_outcome(lower_to_pcfg(parse_program(src)))
        found += outcome[0]
        for c in (10 ** 3, 10 ** 9):
            scaled = _in_units(src, c)
            p = lower_to_pcfg(parse_program(scaled))
            result = synthesize_bsp(p, Invariant({}))
            assert (result.found, [set(rec.ranked) for rec in result.history]) == outcome, scaled
            if result.found:
                assert check_certificate(p, Invariant({}), result.certificate).accepted, scaled
    assert found >= 10, found


def _general_corpus():
    """74 programs with unbounded noise: 150 draws of `gen_program` from
    seed 20240810 with each `unif(a, b)` replaced by `norm(floor((a+b)/2), 1)`,
    kept when they sample from `norm` and pass `check_linpp_star`."""
    rng = random.Random(20240810)
    out = []
    for _ in range(150):
        src = re.sub(r"unif\((-?\d+), (-?\d+)\)",
                     lambda m: f"norm({(int(m[1]) + int(m[2])) // 2}, 1)", gen_program(rng))
        p = lower_to_pcfg(parse_program(src))
        if "norm(" in src and check_linpp_star(p):
            out.append((src, p))
    return out


def _general_outcome(p):
    """The general verdict, and the set each iteration ranked up to the
    first one that needed an unlocked tau0."""
    result = synthesize_general(p, Invariant({}))
    ranked = []
    for rec in result.history:
        if rec.tau0 is not None:
            break
        ranked.append(set(rec.ranked))
    return result.found, ranked


def test_general_outcome_ignores_listing_order():
    """General mode tries its tau0 unlocks in transition order, so order
    independence is not given there; on this corpus the verdict must still
    not depend on how `transitions` and `locations` are listed. Until an
    iteration needs a tau0, each one ranks the unique maximal set under
    the zero-coefficient discipline, so those ranked sets must not
    depend on it either."""
    shuffle = random.Random("general listing order")
    corpus = _general_corpus()
    assert len(corpus) == 74
    found = 0
    for src, p in corpus:
        outcome = _general_outcome(p)
        found += outcome[0]
        for _ in range(3):
            q = dataclasses.replace(
                p, locations=shuffle.sample(p.locations, len(p.locations)),
                transitions=shuffle.sample(p.transitions, len(p.transitions)))
            assert _general_outcome(q) == outcome, src
    assert found == 9
