"""Acceptance suite: one test per shipped claim, each printed with its
verdict and wall time. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from probterm import (LinConstraint, LinExpr, LPProblem, Polyhedron,
                      UniformRandom, check_certificate, check_feasible,
                      counterexample_process, entails,
                      estimate_termination, lower_to_pcfg, run_ast, solve_lp)
from probterm.simplex import LPStatus
from probterm.simulate import COUNTEREXAMPLE_ANALYTIC, run_rngs, run_trajectory

from conftest import (example3_certificate, example4_certificate, fixture_path,
                      encode_into, lifted, load_fixture, load_fixture_ast,
                      perturbed)
from test_checker import E3_MUTATIONS, E4_MUTATIONS


def probterm_cli(*args):
    return subprocess.run([sys.executable, "-m", "probterm.cli", *args],
                          capture_output=True, text=True)


class Criterion:
    def __init__(self, number, name, budget):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:2d}] {self.name}: {verdict} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded budget: {elapsed:.2f}s"
        return False


def test_criterion_1_example3_reproduction(fig1b):
    with Criterion(1, "published bounded-support map accepted verbatim", 1.0):
        p, inv = fig1b
        report = check_certificate(p, inv, example3_certificate(p))
        assert report.accepted
        assert report.mode == "BSPComplete"


def test_criterion_2_example4_reproduction(fig1a):
    with Criterion(2, "published general-mode map accepted incl. coeff-zero", 1.0):
        p, inv = fig1a
        report = check_certificate(p, inv, example4_certificate(p))
        assert report.accepted
        assert any(c.condition == "sampling-coeff-zero" and c.status == "ok"
                   for c in report.conditions)


def test_criterion_3_bsp_synthesis(tmp_path):
    with Criterion(3, "bounded-support synthesis: dim <= 3, accepted, bit-identical", 10.0):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        for out in (out1, out2):
            r = probterm_cli("synthesize", fixture_path("fig2right.pcfg.json"),
                             "-i", fixture_path("fig1b.inv.json"),
                             "--mode", "bsp", "-o", str(out), "--json")
            assert r.returncode == 0, r.stderr
            assert json.loads(r.stdout)["dimension"] <= 3
        assert out1.read_bytes() == out2.read_bytes()
        chk = probterm_cli("check", fixture_path("fig2right.pcfg.json"), str(out1),
                           "-i", fixture_path("fig1b.inv.json"))
        assert chk.returncode == 0, chk.stdout


def test_criterion_4_general_synthesis(tmp_path):
    with Criterion(4, "general-mode synthesis on unbounded sampling accepted", 10.0):
        out = tmp_path / "cert.json"
        r = probterm_cli("synthesize", fixture_path("fig2left.pcfg.json"),
                         "-i", fixture_path("fig1a.inv.json"),
                         "--mode", "general", "-o", str(out), "--json")
        assert r.returncode == 0, r.stderr
        chk = probterm_cli("check", fixture_path("fig2left.pcfg.json"), str(out),
                           "-i", fixture_path("fig1a.inv.json"))
        assert chk.returncode == 0, chk.stdout


def test_criterion_5_negative_decisions(tmp_path):
    with Criterion(5, "zero-drift walk refused (general); increment loop refused (bsp)", 10.0):
        walk = tmp_path / "walk.json"
        assert probterm_cli("parse", fixture_path("zero_drift_walk.prob"),
                            "-o", str(walk)).returncode == 0
        t0 = time.monotonic()
        r = probterm_cli("synthesize", str(walk), "--mode", "general",
                         "-o", str(tmp_path / "c.json"), "--json")
        assert time.monotonic() - t0 < 5.0
        assert r.returncode == 1

        div = tmp_path / "div.json"
        assert probterm_cli("parse", fixture_path("diverge_inc.prob"),
                            "-o", str(div)).returncode == 0
        t0 = time.monotonic()
        r2 = probterm_cli("synthesize", str(div), "--mode", "bsp",
                          "-o", str(tmp_path / "c2.json"), "--json")
        assert time.monotonic() - t0 < 5.0
        assert r2.returncode == 1
        assert "no LinGLexRSM map" in json.loads(r2.stdout)["detail"]


def test_criterion_6_counterexample_series():
    with Criterion(6, "counterexample process matches series oracle over 1e6 runs", 60.0):
        runs = 10 ** 6
        # frozen independent series value (partial products, 10 digits)
        oracle = 0.4224238098
        assert abs(COUNTEREXAMPLE_ANALYTIC - oracle) < 5e-11
        assert oracle < 0.5
        rep = counterexample_process(seed=2024, runs=runs)
        se = math.sqrt(oracle * (1 - oracle) / runs)
        assert abs(rep.empirical - oracle) <= 4 * se, \
            f"{rep.empirical} vs {oracle} +- {4 * se}"


def test_criterion_7_simulation_sanity(fig1a, fig1b):
    with Criterion(7, "both motivating programs terminate in >= 99% of 2000 runs", 120.0):
        pa, _ = fig1a
        init_a = [F(5) if v == "x" else F(3) for v in pa.variables]
        est_a = estimate_termination(pa, init_a, UniformRandom(), runs=2000,
                                     step_cap=10 ** 6, seed=100)
        assert est_a.fraction >= 0.99, est_a
        pb, _ = fig1b
        init_b = [F(3), F(3)]
        est_b = estimate_termination(pb, init_b, UniformRandom(), runs=2000,
                                     step_cap=10 ** 6, seed=100)
        assert est_b.fraction >= 0.99, est_b


def test_criterion_8_farkas_oracle_equivalence():
    with Criterion(8, "implication encoder agrees with entailment oracle on 500 instances", 60.0):
        rng = random.Random(20240809)
        checked = 0
        while checked < 500:
            n = rng.randint(1, 3)
            cons = []
            for _ in range(rng.randint(1, 5)):
                e = LinExpr({j: F(rng.randint(-3, 3)) for j in range(n)},
                            F(rng.randint(-4, 4)))
                cons.append(LinConstraint.le(e))
            ante = Polyhedron(cons)
            feasible, _ = check_feasible(ante)
            if not feasible:
                continue
            target = LinExpr({j: F(rng.randint(-3, 3)) for j in range(n)},
                             F(rng.randint(-4, 4)))
            truth, _ = entails(ante, target)
            lp = LPProblem()
            encode_into(ante, lifted(target), lp)
            encoded = solve_lp(lp).status is LPStatus.OPTIMAL
            assert truth == encoded, (ante.pretty(), target.pretty())
            checked += 1


def test_criterion_9_mutation_suite(fig1a, fig1b):
    with Criterion(9, "curated certificate mutations give expected verdicts", 10.0):
        assert len(E3_MUTATIONS) + len(E4_MUTATIONS) >= 10
        p, inv = fig1b
        for loc, comp, var, delta, violated in E3_MUTATIONS:
            idx = p.var_index(var) if var else None
            cert = perturbed(example3_certificate(p), loc, comp, idx, delta)
            assert check_certificate(p, inv, cert).accepted == (not violated), \
                (loc, comp, var, delta)
        pa, inva = fig1a
        for loc, comp, var, delta, violated in E4_MUTATIONS:
            idx = pa.var_index(var) if var else None
            cert = perturbed(example4_certificate(pa), loc, comp, idx, delta)
            assert check_certificate(pa, inva, cert).accepted == (not violated), \
                (loc, comp, var, delta)


def test_criterion_10_lowering_oracle():
    with Criterion(10, "AST interpreter and graph simulator agree on seeded traces", 30.0):
        cases = [("fig1a", {"x": 2, "y": 3}, 10 ** 6),
                 ("fig1b", {"x": 3, "y": 3}, 10 ** 6),
                 ("countdown", {"x": 9}, 10 ** 4),
                 ("straightline", {}, 10 ** 3),
                 ("branching", {"x": 4, "y": 5}, 10 ** 5)]
        for name, init, cap in cases:
            ast = load_fixture_ast(name)
            p = lower_to_pcfg(ast)
            values = [F(init.get(v, 0)) for v in p.variables]
            for i in range(100):
                ref = run_ast(ast, values, next(run_rngs(9000, [i])), step_cap=cap)
                sim = run_trajectory(p, values, UniformRandom(), cap,
                                     seed=9000, run_index=i, record_states=False)
                assert ref.terminated == sim.terminated, (name, i)
                assert ref.draws == sim.draws, (name, i)
                if ref.terminated:
                    assert ref.values == sim.final_values, (name, i)
