"""End-to-end command-line contract: exit codes, JSON shapes, determinism."""

import gc
import json
import os
import random
import re
import subprocess
import sys
import warnings

import jsonschema
import pytest

from probterm import cli, farkas, lower_to_pcfg, parse_program, synthesis
from probterm.pcfg_io import pcfg_to_json
from probterm.simplex import LPStatus
from probterm.simulate import CEX_MAX_RUNS, MAX_SEED, counterexample_process
from probterm.source import tokenize

from conftest import FIXTURES, LP_SCREENED_INVARIANT, fixture_path, load_fixture

SCHEMAS = os.path.join(os.path.dirname(__file__), "..", "src", "probterm", "schemas")


def probterm(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "probterm.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def validate(doc, schema_name):
    with open(os.path.join(SCHEMAS, schema_name)) as f:
        jsonschema.validate(doc, json.load(f))


# -- parse ----------------------------------------------------------------------


def test_parse_ok(tmp_path):
    out = tmp_path / "fig1a.pcfg.json"
    r = probterm("parse", fixture_path("fig1a.prob"), "-o", str(out), "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    validate(doc, "parse-result.json")
    assert doc["ok"] and os.path.exists(out)


def test_parse_syntax_error_exit_2(tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("while x >= 0 do x := od")
    r = probterm("parse", str(bad), "-o", str(tmp_path / "x.json"))
    assert r.returncode == 2
    assert "expected" in r.stdout or "expected" in r.stderr


@pytest.mark.parametrize("source,where", [
    ("x := 1;\ny := ndet[1, 0];", "2:6"),
    ("if prob(2) then skip else skip fi", "1:4"),
    ("y := 0;\nx := 1 / 0", "2:8"),
    ("if prob(1/0) then skip else skip fi", "1:10"),
    ("x := sample(unif(3, 1))", "1:13"),
    ("y := 0;\nx := x * x;", "2:8"),
    ("x := 1 / y;", "1:8"),
    ("while sample(norm(0,1)) >= 0 do skip od", "1:7"),
    ("while (sample(norm(0,1)) >= 0) do skip od", "1:8"),
    ("x := sample(norm(0,1)) + sample(unif(0,1));", "1:26"),
], ids=["empty-interval", "probability-range", "division-by-zero", "zero-denominator",
        "invalid-distribution", "nonlinear-product", "division-by-variable",
        "sample-in-guard", "sample-in-parenthesized-guard", "second-sample"])
def test_value_error_points_at_its_construct(source, where, tmp_path, capsys):
    # value, linearity and sampling errors: at the ndet, the prob, the * or /,
    # the distribution, or the sample concerned, not the token after
    src = tmp_path / "bad.prob"
    src.write_text(source)
    assert cli.main(["parse", str(src), "-o", str(tmp_path / "p.json")]) == 2
    assert capsys.readouterr().out.startswith(f"syntax error: {where}: ")


def test_parse_branch_with_two_empty_arms(tmp_path, capsys):
    src = tmp_path / "arms.prob"
    src.write_text("if prob(1/2) then skip else skip fi; x := x + 1")
    assert cli.main(["parse", str(src), "-o", str(tmp_path / "p.json")]) == 0
    assert "4 locations, 3 transitions" in capsys.readouterr().out


# 13 disjuncts of two atoms each: their negation multiplies out to 2**13
# disjuncts, past the DNF cap
WIDE_GUARD = " or ".join(f"(x >= {i} and y >= {i})" for i in range(13))


@pytest.mark.parametrize("source", [f"while {WIDE_GUARD} do x := x - 1 od",
                                    f"while not ({WIDE_GUARD}) do x := x - 1 od"],
                         ids=["loop-exit", "not"])
@pytest.mark.parametrize("as_json", [False, True])
def test_parse_dnf_cap(tmp_path, capsys, source, as_json):
    src, out = tmp_path / "wide.prob", tmp_path / "p.json"
    src.write_text(source)
    assert cli.main(["parse", str(src), "-o", str(out)] + ["--json"] * as_json) == 1
    stdout = capsys.readouterr().out
    if as_json:
        doc = json.loads(stdout)
        validate(doc, "parse-result.json")
        assert doc["ok"] is False and "DNF cap" in doc["error"]
    else:
        assert stdout.count("\n") == 1 and "DNF cap" in stdout
    assert not out.exists()


def test_parse_emit_dot(tmp_path):
    out = tmp_path / "p.json"
    dot = tmp_path / "p.dot"
    r = probterm("parse", fixture_path("fig1b.prob"), "-o", str(out),
                 "--emit-dot", str(dot))
    assert r.returncode == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "l0" in text


# -- synthesize -------------------------------------------------------------------


def test_synthesize_bsp_exit_0(tmp_path):
    out = tmp_path / "cert.json"
    r = probterm("synthesize", fixture_path("fig2right.pcfg.json"),
                 "-i", fixture_path("fig1b.inv.json"),
                 "--mode", "bsp", "-o", str(out), "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    validate(doc, "synthesize-result.json")
    assert doc["outcome"] == "certificate" and doc["dimension"] <= 3
    # auto mode picks the bounded-support path for this program
    r2 = probterm("synthesize", fixture_path("fig2right.pcfg.json"),
                  "-i", fixture_path("fig1b.inv.json"),
                  "--mode", "auto", "-o", str(tmp_path / "cert2.json"), "--json")
    assert json.loads(r2.stdout)["mode"] == "bsp"


def test_synthesize_general_exit_0(tmp_path):
    out = tmp_path / "cert.json"
    r = probterm("synthesize", fixture_path("fig2left.pcfg.json"),
                 "-i", fixture_path("fig1a.inv.json"),
                 "--mode", "general", "-o", str(out), "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    validate(doc, "synthesize-result.json")
    assert doc["outcome"] == "certificate"
    # auto mode routes unbounded sampling to the general path
    r2 = probterm("synthesize", fixture_path("fig2left.pcfg.json"),
                  "-i", fixture_path("fig1a.inv.json"),
                  "--mode", "auto", "-o", str(tmp_path / "c2.json"), "--json")
    assert json.loads(r2.stdout)["mode"] == "general"


def test_synthesize_negative_exit_1(tmp_path):
    src = tmp_path / "div.pcfg.json"
    r0 = probterm("parse", fixture_path("diverge_inc.prob"), "-o", str(src))
    assert r0.returncode == 0
    r = probterm("synthesize", str(src), "--mode", "bsp",
                 "-o", str(tmp_path / "c.json"), "--json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    validate(doc, "synthesize-result.json")
    assert "no LinGLexRSM map" in doc["detail"]

    walk = tmp_path / "walk.pcfg.json"
    probterm("parse", fixture_path("zero_drift_walk.prob"), "-o", str(walk))
    r2 = probterm("synthesize", str(walk), "--mode", "general",
                  "-o", str(tmp_path / "c2.json"), "--json")
    assert r2.returncode == 1
    assert "UNKNOWN" in json.loads(r2.stdout)["detail"]


def test_synthesize_mode_mismatch_exit_3(tmp_path):
    r = probterm("synthesize", fixture_path("fig2left.pcfg.json"),
                 "--mode", "bsp", "-o", str(tmp_path / "c.json"))
    assert r.returncode == 3


def test_synthesize_progress_stream(tmp_path):
    r = probterm("synthesize", fixture_path("fig2right.pcfg.json"),
                 "-i", fixture_path("fig1b.inv.json"), "--mode", "bsp",
                 "-o", str(tmp_path / "c.json"), "--progress")
    assert r.returncode == 0
    records = [json.loads(line) for line in r.stderr.splitlines() if line.strip()]
    assert len(records) == 3
    assert [rec["iteration"] for rec in records] == [1, 2, 3]
    assert all("ranked" in rec and rec["lp_unknowns"] > 0 for rec in records)


def test_simulate_trace_outputs(tmp_path):
    jl = tmp_path / "runs.jsonl"
    cs = tmp_path / "runs.csv"
    r = probterm("simulate", fixture_path("fig2right.pcfg.json"),
                 "--init", "x=1, y=1", "--runs", "10", "--cap", "10000",
                 "--seed", "2", "--trace-out", str(jl), "--csv", str(cs))
    assert r.returncode == 0
    lines = jl.read_text().splitlines()
    assert len(lines) == 10
    assert all(json.loads(l)["terminated"] for l in lines)
    rows = cs.read_text().splitlines()
    assert rows[0] == "run,terminated,steps" and len(rows) == 11


# sha256 of the outputs of one traced simulation (fig2right, x=2, y=1,
# 25 runs, cap 10000, seed 5)
TRACED_STDOUT = {
    False: "148d1c40c3ccd231714146b1a285d00886bcb8a60785df644bc577e96ff1d1ad",
    True: "c748360185f6fda997f9c2e1f94bffcad57916ea8ad7c5d0e0ab4902667bf0ec",
}
TRACED_JSONL = "99a2c67ed688f84af5682ca89c080d8781bf40217c28cb84336ad335e5411324"
TRACED_CSV = "d2eaee27a74a52b9f3fd9b7d8b64ffbb9f61e1e2df30d6eb3d7665b9e3666440"


@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
def test_simulate_traces_run_each_trajectory_once(tmp_path, monkeypatch, capsys, as_json):
    import hashlib
    from probterm import cli, simulate

    def sha(data: str) -> str:
        return hashlib.sha256(data.encode()).hexdigest()

    # every run draws from its own stream, taken exactly once per run
    made = []
    real_rngs = simulate.run_rngs
    monkeypatch.setattr(simulate, "run_rngs", lambda seed, indices: real_rngs(
        seed, (made.append(i) or i for i in indices)))
    jl, cs = tmp_path / "runs.jsonl", tmp_path / "runs.csv"
    code = cli.main(["simulate", fixture_path("fig2right.pcfg.json"),
                     "--init", "x=2, y=1", "--runs", "25", "--cap", "10000",
                     "--seed", "5", "--trace-out", str(jl),
                     "--csv", str(cs)] + (["--json"] if as_json else []))
    assert code == 0
    assert made == list(range(25))
    assert sha(capsys.readouterr().out) == TRACED_STDOUT[as_json]
    assert sha(jl.read_text()) == TRACED_JSONL
    assert sha(cs.read_text()) == TRACED_CSV


def test_simulate_scheduler_inputs_and_default_cap(capsys):
    # --ndet goes with the fixed scheduler and --certificate with the
    # adversarial one; no --cap means simulate.DEFAULT_ESTIMATE_CAP
    from probterm.simulate import DEFAULT_ESTIMATE_CAP
    base = ["simulate", FIG2RIGHT, "--init", "x=3, y=3", "--runs", "4", "--json"]
    docs = []
    for extra in (["--scheduler", "fixed", "--ndet", "hi"],
                  ["--scheduler", "adversarial", "--certificate", EXAMPLE3],
                  [], ["--scheduler", "uniform", "--cap", str(DEFAULT_ESTIMATE_CAP)]):
        assert cli.main(base + extra) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert [d["scheduler"] for d in docs] == ["fixed", "adversarial", "uniform", "uniform"]
    assert docs[2] == docs[3]


def test_simulate_needs_a_run():
    r = probterm("simulate", fixture_path("fig2right.pcfg.json"), "--runs", "0",
                 "--csv", os.devnull)
    assert r.returncode == 3 and "--runs" in r.stderr


@pytest.mark.parametrize("capped", ["iteration-lp", "screen"])
def test_synthesize_pivot_cap_is_unknown(tmp_path, monkeypatch, capsys, capped):
    import functools
    from probterm import cli, farkas, synthesis
    invariant = fixture_path("fig1b.inv.json")
    if capped == "iteration-lp":
        monkeypatch.setattr(synthesis, "solve_lp",
                            functools.partial(farkas.solve_lp, pivot_cap=3))
    else:
        # an invariant whose first screen needs the LP
        invariant = tmp_path / "i.json"
        invariant.write_text(json.dumps(LP_SCREENED_INVARIANT))
        monkeypatch.setattr(farkas.simplex, "solve",
                            functools.partial(farkas.simplex.solve, pivot_cap=0))
    code = cli.main(["synthesize", fixture_path("fig2right.pcfg.json"),
                     "-i", str(invariant), "--mode", "bsp",
                     "-o", str(tmp_path / "c.json"), "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    validate(doc, "synthesize-result.json")
    assert doc["verdict"] == "unknown" and "pivot cap" in doc["detail"]
    assert not (tmp_path / "c.json").exists()


def test_synthesize_dump_lp(tmp_path):
    r = probterm("synthesize", fixture_path("fig2right.pcfg.json"),
                 "-i", fixture_path("fig1b.inv.json"), "--mode", "bsp",
                 "-o", str(tmp_path / "c.json"), "--dump-lp", str(tmp_path / "lps"))
    assert r.returncode == 0
    text = (tmp_path / "lps" / "iteration1.lp").read_text()
    assert text.startswith("Maximize") and "Subject To" in text


def _colliding_names_pcfg(path, x="b][c", there="a][b"):
    """A countdown on `x` from location `a` through `there`. With the
    default names its template unknowns at (`a`, `b][c`) and at
    (`a][b`, `c`) are both labelled `c[a][b][c]`."""
    def guard(coeff, const, rel):
        return [[{"expr": {x: coeff, "const": const}, "rel": rel}]]

    def step(tid, source, dest, g, update=None):
        return {"id": tid, "source": source, "kind": "npb", "dest": dest, "guard": g,
                "update": update or {"kind": "none"}}

    decrement = {"kind": "expr", "target": x, "base": {x: "1", "const": "-1"}}
    path.write_text(json.dumps({
        "variables": [x, "c"], "locations": ["a", there, "end"],
        "init": "a", "terminal": "end",
        "transitions": [step("t0", "a", "end", guard("1", "0", "<")),
                        step("t1", "a", there, guard("-1", "0", "<="), decrement),
                        step("t2", there, "a", guard("-1", "-1", "<=")),
                        step("t3", there, "end", guard("1", "1", "<"))]}))
    return str(path)


def test_synthesize_with_colliding_unknown_labels(tmp_path):
    # LP unknowns are columns, so two equal labels are two unknowns
    pcfg = _colliding_names_pcfg(tmp_path / "p.json")
    cert = str(tmp_path / "c.json")
    r = probterm("synthesize", pcfg, "-o", cert)
    assert r.returncode == 0, r.stderr
    r = probterm("check", pcfg, cert, "--json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["verdict"] == "accepted"


def test_dump_lp_refuses_colliding_unknown_labels(tmp_path):
    pcfg = _colliding_names_pcfg(tmp_path / "p.json")
    r = probterm("synthesize", pcfg, "-o", str(tmp_path / "c.json"),
                 "--dump-lp", str(tmp_path / "lps"))
    assert r.returncode == 3
    assert r.stderr.startswith("error: --dump-lp: ") and "c(a)(b)(c)" in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["p.json"]


def test_dump_lp_labels_are_single_tokens(tmp_path):
    # a space, a dot, a minus and a non-ASCII letter in names
    pcfg = _colliding_names_pcfg(tmp_path / "p.json", x="b c.-é", there="a b")
    r = probterm("synthesize", pcfg, "-o", str(tmp_path / "c.json"),
                 "--dump-lp", str(tmp_path / "lps"))
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "lps" / "iteration1.lp").read_text().splitlines()
    bounds = lines[lines.index("Bounds") + 1:lines.index("End")]
    label = re.compile(r"[A-Za-z0-9_()]+")
    labels = set()
    for line in bounds:
        name, *rest = line.split()
        assert label.fullmatch(name) and rest in (["free"], [">=", "0"]), line
        labels.add(name)
    assert "c(a_20_b)(b_20_c__2d__e9_)" in labels
    # every row is `cK: (sign coefficient label)* relation constant`
    for line in lines[lines.index("Subject To") + 1:lines.index("Bounds")]:
        tokens = line.split()[1:-2]
        assert len(tokens) % 3 == 0, line
        assert set(tokens[2::3]) <= labels, line


def test_synthesize_dump_lp_is_the_lp_that_ranked(tmp_path, monkeypatch, capsys):
    # general mode pins a coefficient to zero in its first LP, so the dump
    # is not the LP of an unrestricted template
    solved = []

    def spy(lp):
        sol = farkas.solve_lp(lp)
        solved.append((farkas.dump_lp(lp), sol))
        return sol

    monkeypatch.setattr(synthesis, "solve_lp", spy)
    lps = tmp_path / "lps"
    assert cli.main(["synthesize", fixture_path("fig2left.pcfg.json"),
                     "-i", fixture_path("fig1a.inv.json"), "--mode", "general",
                     "-o", str(tmp_path / "c.json"), "--dump-lp", str(lps)]) == 0
    first = next(text for text, sol in solved
                 if sol.status is LPStatus.OPTIMAL and sol.value > 0)
    assert (lps / "iteration1.lp").read_text() == first


# -- check ------------------------------------------------------------------------


def test_check_example3_exit_0():
    r = probterm("check", fixture_path("fig2right.pcfg.json"),
                 fixture_path("example3.cert.json"),
                 "-i", fixture_path("fig1b.inv.json"), "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    validate(doc, "check-result.json")
    assert doc["verdict"] == "accepted"


def test_check_example4_exit_0():
    r = probterm("check", fixture_path("fig2left.pcfg.json"),
                 fixture_path("example4.cert.json"),
                 "-i", fixture_path("fig1a.inv.json"), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["mode"] == "GeneralSound"
    assert any(c["condition"] == "sampling-coeff-zero" for c in doc["conditions"])


def test_check_mutated_certificate_exit_1(tmp_path):
    with open(fixture_path("example3.cert.json")) as f:
        doc = json.load(f)
    doc["components"]["l1"][1]["const"] = "6"  # x+8 -> x+6
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(doc))
    r = probterm("check", fixture_path("fig2right.pcfg.json"), str(bad),
                 "-i", fixture_path("fig1b.inv.json"), "--json")
    assert r.returncode == 1
    out = json.loads(r.stdout)
    validate(out, "check-result.json")
    assert out["verdict"] == "rejected"
    assert any(c["status"] == "violated" and "counterexample" in c
               for c in out["conditions"])


def test_check_pivot_cap_is_unknown(tmp_path, monkeypatch, capsys):
    import functools
    from probterm import cli, farkas
    # an invariant under which the checker's entailments at l1 need the LP
    invariant = tmp_path / "i.json"
    invariant.write_text(json.dumps(LP_SCREENED_INVARIANT))
    monkeypatch.setattr(farkas.simplex, "solve",
                        functools.partial(farkas.simplex.solve, pivot_cap=0))
    code = cli.main(["check", fixture_path("fig2right.pcfg.json"),
                     fixture_path("example3.cert.json"),
                     "-i", str(invariant), "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    validate(doc, "check-result.json")
    assert doc["verdict"] == "unknown" and "pivot cap" in doc["detail"]


def wide_exit_graph(tmp_path):
    """A probabilistic branch into a location with 13 exits, each guarded
    by two atoms over its own variables: negating the exits multiplies out
    to 2**13 disjuncts, past the DNF cap. Returns the graph file and a
    dimension-1 certificate file for it."""
    from fractions import Fraction
    from probterm import pcfg_io
    from probterm.linear import LinConstraint, LinExpr, Polyhedron, Predicate
    from probterm.model import (PCFG, Certificate, CertificateMode, GuardedStep,
                                LinExprMap, NoUpdate, ProbBranch, Transition)
    exits = 13
    half = Fraction(1, 2)
    transitions = [Transition("t0", "l0", ProbBranch("l1", half, "out", half))]
    for k in range(exits):
        atoms = [LinConstraint.le(LinExpr.const(1) - LinExpr.var(i))
                 for i in (2 * k, 2 * k + 1)]
        transitions.append(Transition(f"t{k + 1}", "l1", GuardedStep(
            "out", Predicate([Polyhedron(atoms)]), NoUpdate())))
    p = PCFG([f"x{i}" for i in range(2 * exits)], ["l0", "l1", "out"], "l0", "out",
             transitions)
    cert = Certificate(LinExprMap(1, {loc: [LinExpr.const(0)] for loc in p.locations}),
                       {t.id: 1 for t in transitions}, Fraction(0),
                       CertificateMode.BSP_COMPLETE)
    pcfg_path, cert_path = tmp_path / "wide.pcfg.json", tmp_path / "wide.cert.json"
    pcfg_path.write_text(pcfg_io.json_text(pcfg_io.pcfg_to_json(p)))
    cert_path.write_text(pcfg_io.json_text(pcfg_io.certificate_to_json(cert, p)))
    return str(pcfg_path), str(cert_path)


@pytest.mark.parametrize("command", ["synthesize", "check"])
def test_dnf_cap_is_unknown(tmp_path, capsys, command):
    from probterm import cli
    pcfg, cert = wide_exit_graph(tmp_path)
    if command == "synthesize":
        argv = ["synthesize", pcfg, "-o", str(tmp_path / "c.json"), "--json"]
        schema = "synthesize-result.json"
    else:
        argv = ["check", pcfg, cert, "--json"]
        schema = "check-result.json"
    assert cli.main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    validate(doc, schema)
    assert doc["verdict"] == "unknown" and "DNF cap" in doc["detail"]
    assert not (tmp_path / "c.json").exists()


def test_check_dimension_mismatch_exit_3(tmp_path):
    with open(fixture_path("example3.cert.json")) as f:
        doc = json.load(f)
    doc["levels"]["t0"] = 9
    bad = tmp_path / "structural.json"
    bad.write_text(json.dumps(doc))
    r = probterm("check", fixture_path("fig2right.pcfg.json"), str(bad),
                 "-i", fixture_path("fig1b.inv.json"))
    assert r.returncode == 3


# -- simulate ----------------------------------------------------------------------


def test_simulate_exit_0_and_schema():
    r = probterm("simulate", fixture_path("fig2right.pcfg.json"),
                 "--init", "x=3, y=3", "--runs", "200", "--cap", "100000",
                 "--seed", "11", "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    validate(doc, "simulate-result.json")
    assert doc["fraction"] >= 0.99


def test_simulate_seed_repeat_identical():
    args = ("simulate", fixture_path("fig2right.pcfg.json"),
            "--init", "x=3, y=3", "--runs", "50", "--cap", "10000",
            "--seed", "4", "--json")
    assert probterm(*args).stdout == probterm(*args).stdout


def test_simulate_largest_seed(capsys):
    # the seed is a 128-bit key; its largest value runs and fits the schema
    assert cli.main(["simulate", FIG2RIGHT, "--init", "x=3, y=3", "--runs", "3",
                     "--seed", str(MAX_SEED), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate(doc, "simulate-result.json")
    assert doc["seed"] == MAX_SEED


def test_simulate_counterexample_builtin():
    # the command reports the library's estimate exactly, up to the most
    # runs the process can count
    for seed, runs in [(8, 100_000), (3, 131_073), (3, CEX_MAX_RUNS)]:
        r = probterm("simulate", "--counterexample-builtin", "--runs", str(runs),
                     "--seed", str(seed), "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        validate(doc, "simulate-result.json")
        assert abs(doc["empirical"] - doc["analytic"]) < 0.02
        assert doc["runs"] == runs
        assert doc["empirical"] == counterexample_process(seed, runs).empirical


def test_simulate_without_pcfg_is_an_error():
    r = probterm("simulate")
    assert r.returncode == 3


# -- the input boundary -------------------------------------------------------------

FIG2RIGHT = fixture_path("fig2right.pcfg.json")
EXAMPLE3 = fixture_path("example3.cert.json")
FIG1B_INV = fixture_path("fig1b.inv.json")


def _source(d, text, encoding="utf-8"):
    path = d / "bad.prob"
    path.write_bytes(text.encode(encoding))
    return ["parse", str(path), "-o", str(d / "p.json")]


def _doubling_pcfg(d):
    """`while x >= 0 do x := 2 * x + 1 od`: from x = 1, x doubles at every step."""
    path = d / "doubling.json"
    p = lower_to_pcfg(parse_program("while x >= 0 do x := 2 * x + 1 od"))
    path.write_text(json.dumps(pcfg_to_json(p)))
    return str(path)


def _latin1(d):
    path = d / "latin1.pcfg.json"
    path.write_bytes('{"variables": ["\u00e9"]}'.encode("latin-1"))
    return str(path)


def _true_certificate(d, key):
    """Example 3 with JSON `true` as its dimension (each vector cut to one
    component to match), as the level of t0 or as its shift."""
    with open(EXAMPLE3) as f:
        doc = json.load(f)
    if key == "dimension":
        doc["dimension"] = True
        doc["components"] = {loc: vec[:1] for loc, vec in doc["components"].items()}
        doc["levels"] = {tid: 1 for tid in doc["levels"]}
    elif key == "shift":
        doc["shift"] = True
    else:
        doc["levels"]["t0"] = True
    path = d / "true.cert.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _misfit_certificate(d):
    """Example 3 without the components of l0, so it does not fit fig2right."""
    with open(EXAMPLE3) as f:
        doc = json.load(f)
    del doc["components"]["l0"]
    path = d / "misfit.cert.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _true_branch_pcfg(d):
    """The branching fixture, lowered, with JSON `true` as the probability
    of the first target of its probabilistic branch."""
    doc = pcfg_to_json(load_fixture("branching")[0])
    next(tj for tj in doc["transitions"] if tj["kind"] == "pb")["p1"] = True
    path = d / "true.pcfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _custom_pcfg(d, mean="-1", support=("-2", "0")):
    """x := x + sample(custom) while x >= 0, with a sampler nobody registered."""
    dist = {"kind": "custom", "params": {"sampler": "mine"}, "mean": mean,
            "support": list(support)}
    doc = {"variables": ["x"], "locations": ["l0", "out"], "init": "l0", "terminal": "out",
           "transitions": [
               {"id": "t0", "source": "l0", "kind": "npb", "dest": "out",
                "guard": [[{"expr": {"x": "1", "const": "0"}, "rel": "<"}]],
                "update": {"kind": "none"}},
               {"id": "t1", "source": "l0", "kind": "npb", "dest": "l0",
                "guard": [[{"expr": {"x": "-1", "const": "0"}, "rel": "<="}]],
                "update": {"kind": "expr", "target": "x", "base": {"x": "1", "const": "0"},
                           "sample": {"coeff": "1", "dist": dist}}}]}
    path = d / "custom.pcfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _exponent_branch_pcfg(d):
    """The branching fixture, lowered, with branch probabilities 1e-L and
    0.99...9 (L nines) for the digit limit L: they sum to one, and each
    has L + 1 digits in its denominator."""
    doc = pcfg_to_json(load_fixture("branching")[0])
    branch = next(tj for tj in doc["transitions"] if tj["kind"] == "pb")
    branch["p1"], branch["p2"] = f"1e-{DIGIT_LIMIT}", "0." + "9" * DIGIT_LIMIT
    path = d / "exponent.pcfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _empty_interval_pcfg(d):
    """The branching fixture, lowered, with its demonic assignment over the
    empty interval [1, 0]."""
    doc = pcfg_to_json(load_fixture("branching")[0])
    update = next(tj["update"] for tj in doc["transitions"]
                  if tj.get("update", {}).get("kind") == "ndet")
    update["lo"], update["hi"] = "1", "0"
    path = d / "empty.pcfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_custom_sampler_is_not_needed_to_prove(tmp_path):
    # synthesis and the checker read only the mean and the support
    pcfg, cert = _custom_pcfg(tmp_path), str(tmp_path / "c.json")
    assert cli.main(["synthesize", pcfg, "-o", cert]) == 0
    assert cli.main(["check", pcfg, cert]) == 0


BSP_ACCEPTED = ("all side conditions verified; the map (shift already applied) is a "
                "linear lexicographic ranking certificate, so the program terminates "
                "with probability 1 under every scheduler")
NO_MAP = ("no LinGLexRSM map exists for this invariant: an iteration ranked no "
          "transition: no linear certificate of this shape exists for the given invariant")
UNKNOWN = ("termination UNKNOWN (the method is sound, not complete): no component can "
           "rank further transitions under the zero-coefficient discipline")
RESTS_ON_MINE = (". The verdict rests on the declared mean and support of custom "
                 "sampler 'mine', which are not checked")


def _verdict(capsys, argv):
    """The exit code and JSON document of one command."""
    code = cli.main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def test_verdicts_name_the_custom_sampler_they_rest_on(tmp_path, capsys):
    pcfg, cert = _custom_pcfg(tmp_path), str(tmp_path / "c.json")
    assert _verdict(capsys, ["synthesize", pcfg, "-o", cert])[0] == 0
    code, doc = _verdict(capsys, ["check", pcfg, cert])
    assert code == 0 and doc["meaning"] == BSP_ACCEPTED + RESTS_ON_MINE
    validate(doc, "check-result.json")
    assert cli.main(["check", pcfg, cert]) == 0
    assert capsys.readouterr().out == f"accepted ({doc['mode']}): {doc['meaning']}\n"
    # a positive mean drifts up: refused in bsp mode, and unknown in
    # general mode once the support is unbounded
    for support, verdict in ((("0", "2"), "no-certificate"), (("0", "inf"), "unknown")):
        rising = _custom_pcfg(tmp_path, mean="1", support=support)
        code, doc = _verdict(capsys, ["synthesize", rising, "-o", cert])
        assert code == 1 and doc["verdict"] == verdict
        assert doc["detail"].endswith(RESTS_ON_MINE)
        validate(doc, "synthesize-result.json")


def test_verdicts_without_a_custom_sampler_keep_their_wording(tmp_path, capsys):
    code, doc = _verdict(capsys, ["check", fixture_path("fig2right.pcfg.json"),
                                  fixture_path("example3.cert.json"),
                                  "-i", fixture_path("fig1b.inv.json")])
    assert code == 0 and doc["meaning"] == BSP_ACCEPTED
    for name, mode, detail in (("diverge_inc", "bsp", NO_MAP),
                               ("zero_drift_walk", "general", UNKNOWN)):
        src = str(tmp_path / f"{name}.pcfg.json")
        assert cli.main(["parse", fixture_path(f"{name}.prob"), "-o", src]) == 0
        capsys.readouterr()
        code, doc = _verdict(capsys, ["synthesize", src, "--mode", mode,
                                      "-o", str(tmp_path / "c.json")])
        assert code == 1 and doc["detail"] == detail


# the most digits an int is converted to or from text with; 0 is no limit
DIGIT_LIMIT = sys.get_int_max_str_digits()

# case -> (exit code, argv for a scratch directory d); d / "no" does not
# exist, so nothing can be written below it
MALFORMED = {
    "missing-pcfg": (3, lambda d: ["synthesize", str(d / "none.json"),
                                   "-o", str(d / "c.json")]),
    "missing-certificate": (3, lambda d: ["check", FIG2RIGHT, str(d / "none.json")]),
    "missing-invariant": (3, lambda d: ["check", FIG2RIGHT, EXAMPLE3,
                                        "-i", str(d / "none.json")]),
    "unwritable-parse-out": (3, lambda d: ["parse", fixture_path("fig1b.prob"),
                                           "-o", str(d / "no" / "p.json")]),
    "unwritable-synthesize-out": (3, lambda d: ["synthesize", FIG2RIGHT, "-i", FIG1B_INV,
                                                "-o", str(d / "no" / "c.json")]),
    "unwritable-trace-out": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "2",
                                           "--trace-out", str(d / "no" / "t.jsonl")]),
    "unwritable-csv": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "2",
                                     "--trace-out", str(d / "t.jsonl"),
                                     "--csv", str(d / "no" / "t.csv")]),
    "unwritable-emit-dot": (3, lambda d: ["parse", fixture_path("fig1b.prob"),
                                          "-o", str(d / "p.json"),
                                          "--emit-dot", str(d / "no" / "p.dot")]),
    "unwritable-out-after-dump-lp": (3, lambda d: ["synthesize", FIG2RIGHT, "-i", FIG1B_INV,
                                                   "-o", str(d / "no" / "c.json"),
                                                   "--dump-lp", str(d / "lps" / "new")]),
    "dump-lp-names-a-file": (3, lambda d: ["synthesize", FIG2RIGHT, "-i", FIG1B_INV,
                                           "-o", str(d / "c.json"), "--dump-lp", EXAMPLE3]),
    "non-utf8-json": (3, lambda d: ["check", _latin1(d), EXAMPLE3]),
    "unif-lo-above-hi": (2, lambda d: _source(d, "x := sample(unif(3, 1))")),
    "ndet-lo-above-hi": (2, lambda d: _source(d, "x := ndet[1, 0]")),
    "bern-above-1": (2, lambda d: _source(d, "x := x + sample(bern(2))")),
    "norm-zero-stddev": (2, lambda d: _source(d, "x := sample(norm(0, 0))")),
    "discrete-mass-half": (2, lambda d: _source(d, "x := sample(discrete(1: 1/2))")),
    "malformed-number": (2, lambda d: _source(d, "x := 1.2.3")),
    "number-beyond-digit-limit": (2, lambda d: _source(d, "x := " + "7" * (DIGIT_LIMIT + 1))
                                  + ["--json"]),
    "deep-parentheses": (2, lambda d: _source(d, "x := " + "(" * 400 + "1" + ")" * 400)),
    "certificate-dimension-true": (3, lambda d: ["check", FIG2RIGHT,
                                                 _true_certificate(d, "dimension"),
                                                 "-i", FIG1B_INV]),
    "certificate-level-true": (3, lambda d: ["check", FIG2RIGHT,
                                             _true_certificate(d, "level"),
                                             "-i", FIG1B_INV]),
    "certificate-shift-true": (3, lambda d: ["check", FIG2RIGHT,
                                             _true_certificate(d, "shift"),
                                             "-i", FIG1B_INV]),
    "pcfg-probability-true": (3, lambda d: ["synthesize", _true_branch_pcfg(d),
                                            "-o", str(d / "c.json")]),
    "pcfg-empty-interval-synthesize": (3, lambda d: ["synthesize", _empty_interval_pcfg(d),
                                                     "-o", str(d / "c.json"),
                                                     "--dump-lp", str(d / "lp")]),
    "pcfg-empty-interval-check": (3, lambda d: ["check", _empty_interval_pcfg(d), EXAMPLE3]),
    "non-utf8-source": (2, lambda d: _source(d, "x := 1 \u00e9", "latin-1")),
    "init-zero-denominator": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "2",
                                            "--init", "x=1/0"]),
    "init-exponent-beyond-digit-limit": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "1",
                                                       "--cap", "1",
                                                       "--init", f"x=1e{DIGIT_LIMIT}"]),
    "pcfg-exponent-beyond-digit-limit": (3, lambda d: ["simulate", _exponent_branch_pcfg(d),
                                                       "--runs", "1", "--cap", "1"]),
    "support-upper-end-minus-inf": (3, lambda d: ["synthesize",
                                                  _custom_pcfg(d, support=("-2", "-inf")),
                                                  "--mode", "general", "-o", str(d / "c.json")]),
    "init-variable-twice": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "2",
                                          "--init", "x=1, x=2, y=3",
                                          "--trace-out", str(d / "t.jsonl")]),
    "negative-seed": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "2", "--seed", "-1"]),
    "huge-seed": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "2",
                                "--seed", str(2 ** 128)]),
    # 4 * DIGIT_LIMIT doublings make x a number of about 1.2 * DIGIT_LIMIT digits
    "trace-out-value-beyond-digit-limit": (3, lambda d: ["simulate", _doubling_pcfg(d),
                                                         "--init", "x=1", "--runs", "1",
                                                         "--cap", str(4 * DIGIT_LIMIT),
                                                         "--trace-out", str(d / "t.jsonl")]),
    "cap-zero": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "5", "--cap", "0",
                               "--trace-out", str(d / "t.jsonl")]),
    "cap-negative": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "5", "--cap", "-3",
                                   "--init", "x=1,y=1"]),
    "custom-without-sampler": (3, lambda d: ["simulate", _custom_pcfg(d), "--runs", "2",
                                              "--init", "x=3",
                                              "--trace-out", str(d / "t.jsonl")]),
    "counterexample-negative-seed": (3, lambda d: ["simulate", "--counterexample-builtin",
                                                   "--runs", "2", "--seed", "-1"]),
    "counterexample-huge-seed": (3, lambda d: ["simulate", "--counterexample-builtin",
                                               "--runs", "2", "--seed", str(2 ** 128)]),
    "counterexample-no-runs": (3, lambda d: ["simulate", "--counterexample-builtin",
                                             "--runs", "0"]),
    "counterexample-negative-runs": (3, lambda d: ["simulate", "--counterexample-builtin",
                                                   "--runs", "-3"]),
    "counterexample-too-many-runs": (3, lambda d: ["simulate", "--counterexample-builtin",
                                                   "--runs", "10000000000000000000"]),
    # the built-in process refuses every input it would not use
    "counterexample-with-pcfg": (3, lambda d: ["simulate", FIG2RIGHT, "--counterexample-builtin",
                                               "--runs", "2"]),
    "counterexample-with-init": (3, lambda d: ["simulate", "--counterexample-builtin",
                                               "--runs", "2", "--init", "x=5"]),
    "counterexample-with-certificate": (3, lambda d: ["simulate", "--counterexample-builtin",
                                                      "--runs", "2",
                                                      "--certificate", EXAMPLE3]),
    "counterexample-with-trace-out": (3, lambda d: ["simulate", "--counterexample-builtin",
                                                    "--runs", "2",
                                                    "--trace-out", str(d / "t.jsonl")]),
    "counterexample-with-csv": (3, lambda d: ["simulate", "--counterexample-builtin",
                                              "--runs", "2", "--csv", str(d / "c.csv")]),
    "counterexample-with-scheduler": (3, lambda d: ["simulate", "--counterexample-builtin",
                                                    "--runs", "10",
                                                    "--scheduler", "adversarial"]),
    "counterexample-with-ndet": (3, lambda d: ["simulate", "--counterexample-builtin",
                                               "--runs", "10", "--ndet", "hi"]),
    "counterexample-with-cap": (3, lambda d: ["simulate", "--counterexample-builtin",
                                              "--runs", "10", "--cap", "5"]),
    # a program's simulation refuses a scheduler input its scheduler would not read
    "certificate-without-adversarial": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "2",
                                                      "--certificate", EXAMPLE3,
                                                      "--trace-out", str(d / "t.jsonl")]),
    "adversarial-certificate-misfit": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "2",
                                                     "--scheduler", "adversarial",
                                                     "--certificate", _misfit_certificate(d),
                                                     "--trace-out", str(d / "t.jsonl")]),
    "ndet-without-fixed": (3, lambda d: ["simulate", FIG2RIGHT, "--runs", "2",
                                         "--scheduler", "adversarial",
                                         "--certificate", EXAMPLE3, "--ndet", "hi",
                                         "--csv", str(d / "c.csv")]),
    "counterexample-with-everything": (3, lambda d: ["simulate", str(d / "none.json"),
                                                     "--counterexample-builtin",
                                                     "--runs", "1000",
                                                     "--trace-out", str(d / "t.jsonl"),
                                                     "--csv", str(d / "c.csv"),
                                                     "--init", "x=5"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_code(case, tmp_path, capsys):
    if "digit-limit" in case and not DIGIT_LIMIT:
        pytest.skip("no digit limit is set")
    code, argv = MALFORMED[case]
    argv = argv(tmp_path)
    inputs = set(tmp_path.rglob("*"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == code
        gc.collect()
    # a command that fails leaves none of its outputs: no file or directory
    assert set(tmp_path.rglob("*")) == inputs
    out, err = capsys.readouterr()
    if code == 3:
        # one line, no traceback
        assert err.startswith("error:") and err.count("\n") == 1
    elif "--json" in argv:
        assert json.loads(out)["ok"] is False and err == ""
    else:
        assert out.startswith("syntax error:")
    # every file the command opened was closed
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("case,path", [("certificate-shift-true", r"\$\.shift"),
                                       ("pcfg-probability-true", r"\$\.transitions\[\d+\]\.p1")],
                         ids=["shift", "branch-probability"])
def test_json_true_is_not_a_rational(case, path, tmp_path, capsys):
    # Python counts a bool as an int, so `true` once loaded as 1
    assert cli.main(MALFORMED[case][1](tmp_path)) == 3
    assert re.match(rf"error: {path}: bad rational True", capsys.readouterr().err)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no digit limit is set")
def test_digit_limit_errors_name_their_input(tmp_path, capsys):
    # a literal too long to convert is a syntax error at the literal
    assert cli.main(MALFORMED["number-beyond-digit-limit"][1](tmp_path)) == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        f"1:6: number has {DIGIT_LIMIT + 1} digits in a row, "
        f"more than the limit of {DIGIT_LIMIT}")
    # a final value too long to write is an error of the trace output
    assert cli.main(MALFORMED["trace-out-value-beyond-digit-limit"][1](tmp_path)) == 3
    assert capsys.readouterr().err == (
        "error: --trace-out: run 0 ends with a value whose numerator or denominator "
        f"has more than {DIGIT_LIMIT} digits\n")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no digit limit is set")
def test_exponent_errors_name_their_input_and_the_limit(tmp_path, capsys):
    # a decimal exponent is refused before `Fraction` builds its power of ten
    past = (f"its numerator or denominator could have {DIGIT_LIMIT + 1} digits, "
            f"more than the limit of {DIGIT_LIMIT}\n")
    assert cli.main(MALFORMED["init-exponent-beyond-digit-limit"][1](tmp_path)) == 3
    assert capsys.readouterr() == ("", f"error: --init x: bad rational '1e{DIGIT_LIMIT}': {past}")
    assert cli.main(MALFORMED["pcfg-exponent-beyond-digit-limit"][1](tmp_path)) == 3
    assert capsys.readouterr().err == (
        f"error: $.transitions[4].p1: bad rational '1e-{DIGIT_LIMIT}': {past}")


def test_upper_end_minus_inf_names_the_support(tmp_path, capsys):
    # once read as the upper end +inf
    assert cli.main(MALFORMED["support-upper-end-minus-inf"][1](tmp_path)) == 3
    assert capsys.readouterr() == ("", "error: $.transitions[1].update.sample.dist.support: "
                                       "bad rational '-inf': an upper end cannot be "
                                       "minus infinity\n")


def test_init_names_the_variable_given_twice(tmp_path, capsys):
    # the first value would otherwise be dropped without a word
    assert cli.main(MALFORMED["init-variable-twice"][1](tmp_path)) == 3
    assert capsys.readouterr() == ("", "error: --init: variable 'x' given twice\n")


@pytest.mark.parametrize("command", ["synthesize", "check"])
def test_empty_interval_is_a_format_error(command, tmp_path, capsys):
    # the update refuses the interval; loading names where it stands
    assert cli.main(MALFORMED[f"pcfg-empty-interval-{command}"][1](tmp_path)) == 3
    assert capsys.readouterr() == ("", "error: $.transitions[3].update: empty interval [1, 0]\n")


def _mutant(doc, rng):
    """A copy of the JSON document `doc` with one seeded change at a random
    place in it: a key deleted, a value replaced by one of another type, or
    a list shortened by its last element."""
    doc = json.loads(json.dumps(doc))
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    node, key = rng.choice(slots)
    value = node[key]
    ops = ["retype"]
    if isinstance(node, dict):
        ops.append("delete")
    if isinstance(value, list) and value:
        ops.append("shorten")
    op = rng.choice(ops)
    if op == "delete":
        del node[key]
    elif op == "shorten":
        value.pop()
    else:
        node[key] = rng.choice([v for v in (7, -1, "7", "x", "inf", None, True, 0.5, [], {})
                                if type(v) is not type(value)])
    return doc


@pytest.mark.parametrize("mutated", ["pcfg", "certificate", "invariant"])
def test_check_survives_mutated_inputs(mutated, tmp_path, capsys):
    """Seeded mutants of each input of `check`: every one is answered with
    a verdict or an input error, never an exception."""
    files = {"pcfg": FIG2RIGHT, "certificate": EXAMPLE3, "invariant": FIG1B_INV}
    with open(files[mutated]) as f:
        doc = json.load(f)
    rng = random.Random(f"mutants of the {mutated}")
    path = tmp_path / "mutant.json"
    codes = set()
    for _ in range(134):
        path.write_text(json.dumps(_mutant(doc, rng)))
        argv = {**files, mutated: str(path)}
        codes.add(cli.main(["check", argv["pcfg"], argv["certificate"],
                            "-i", argv["invariant"]]))
    capsys.readouterr()
    assert codes <= {0, 1, 3}


def test_synthesize_survives_mutated_pcfgs(tmp_path, capsys):
    """Seeded mutants of a pCFG document through `synthesize`: each is
    answered with an exit code of the contract, never an exception."""
    with open(FIG2RIGHT) as f:
        doc = json.load(f)
    rng = random.Random("mutants of the pcfg for synthesize")
    path, out = tmp_path / "mutant.json", tmp_path / "c.json"
    codes = []
    for _ in range(200):
        path.write_text(json.dumps(_mutant(doc, rng)))
        codes.append(cli.main(["synthesize", str(path), "-o", str(out)]))
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 3}
    # most mutants are refused as input errors, but not all
    assert 0 < codes.count(3) < len(codes)


# tokens a source mutant may gain, beside those of the source itself
SPARE_TOKENS = ["0", "1", "-", "*", "/", "(", ")", ";", "x", "sample", "norm", "ndet",
                "prob", "if", "while", "od", "fi", "[", "]", ",", ":", "<=", "!="]


def _token_mutant(words, rng):
    """The source text of `words`, its tokens, after one seeded edit: a
    token deleted, doubled, swapped with the next, or replaced."""
    words = list(words)
    i = rng.randrange(len(words))
    op = rng.choice(["delete", "double", "swap", "replace"])
    if op == "delete":
        del words[i]
    elif op == "double":
        words.insert(i, words[i])
    elif op == "swap":
        words[i:i + 2] = reversed(words[i:i + 2])
    else:
        words[i] = rng.choice(SPARE_TOKENS + words)
    return " ".join(words)


def test_mutated_sources_exit_cleanly(tmp_path, capsys):
    """Seeded token mutants of every fixture source go through `parse`, and
    through `synthesize` when they parse: each is answered with an exit code
    of the contract, never an exception."""
    rng = random.Random("token mutants")
    src, pcfg, cert = tmp_path / "m.prob", tmp_path / "m.json", tmp_path / "c.json"
    codes = []
    for name in sorted(n for n in os.listdir(FIXTURES) if n.endswith(".prob")):
        with open(fixture_path(name)) as f:
            words = [t.text for t in tokenize(f.read())[:-1]]
        for _ in range(30):
            src.write_text(_token_mutant(words, rng))
            code = cli.main(["parse", str(src), "-o", str(pcfg)])
            if code == 0:
                code = cli.main(["synthesize", str(pcfg), "-o", str(cert)])
            codes.append(code)
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 3}
    # most mutants are refused by the parser, but not all
    assert 0 < codes.count(2) < len(codes)


def _certificate_misfits():
    """(what, document): example 3 with one location's components dropped,
    one transition's level dropped, or one level outside 0..dimension."""
    with open(EXAMPLE3) as f:
        doc = json.load(f)
    for loc in doc["components"]:
        m = json.loads(json.dumps(doc))
        del m["components"][loc]
        yield f"no components at {loc}", m
    for tid in doc["levels"]:
        for level in (None, -1, doc["dimension"] + 1):
            m = json.loads(json.dumps(doc))
            if level is None:
                del m["levels"][tid]
            else:
                m["levels"][tid] = level
            yield f"level {level} at {tid}", m


def test_certificate_misfits_are_input_errors(tmp_path, capsys):
    """`check` and the adversarial scheduler of `simulate` both refuse a
    certificate that does not fit the program, with exit 3."""
    path = tmp_path / "misfit.json"
    for what, doc in _certificate_misfits():
        path.write_text(json.dumps(doc))
        assert cli.main(["check", FIG2RIGHT, str(path), "-i", FIG1B_INV]) == 3, what
        assert cli.main(["simulate", FIG2RIGHT, "--runs", "2", "--cap", "50",
                         "--scheduler", "adversarial", "--certificate", str(path)]) == 3, what
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, what
