"""Golden outputs: certificates and trajectories on the fixtures, pinned
byte for byte.

Any change to pivoting (representation, pricing, column layout) must keep
these digests, or change them on purpose and say so. A digest is the
sha256 of the certificate's JSON dumped with sorted keys. Two pivot
counts pin the pivot sequence itself, which a change of pricing or of the
starting basis moves even where the certificate survives. The iteration
LPs themselves are pinned as digests of their solver-exchange dumps, and
the checker's reports, counterexample points included, as digests of
their JSON.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from probterm import (Adversarial, FixedPriority, Invariant, UniformRandom,
                      check_bsp, check_certificate, estimate_termination,
                      lower_to_pcfg, parse_program, run_trajectory, synthesis,
                      validate_pcfg)
from probterm.farkas import dump_lp, solve_lp
from probterm.pcfg_io import (certificate_to_json, invariant_from_json,
                              load_invariant, load_pcfg, pcfg_to_json)
from probterm.simplex import LPStatus
from probterm.simulate import trajectories
from probterm.synthesis import build_lp, synthesize_bsp, synthesize_general

from conftest import (FIXTURES, example3_certificate, example4_certificate,
                      fixture_path, load_fixture, perturbed)
from test_checker import E3_MUTATIONS, E4_MUTATIONS
from test_integration import _general_corpus, gen_program
from test_strict_rule import workloads

CERTIFIED = {
    "bern_walk": "70dbb54435b429f4498c829a21e17c341a970bd54a8ec99cf90289cb0a197f14",
    "branching": "611a1434da70723884117da171aa942758f37ee4c0ea97fe81eaf432b6a2267e",
    "countdown": "c5c90c7fcfa1e47cab871e3d7e9be326b1dd4c8b7fcffaf7878eebe21f93900a",
    "fig1a": "55de5471a511e9a67238d52853e3c64046a6b9757d1b75877185310ed7f245d8",
    "fig1b": "5014d790cebd1215b20e88b641239f4cd75516382d20eb99a7bda1fa32898f89",
    "prob_join": "c98f147075ff06e20c864876096a5ac68d3c1ea19c2c3e573c599a6e132ee666",
    "straightline": "7b62cf699c4cdc5f6f2ea752fb5239043ec4c6dad60b91d2c215f19e3eb8b5a5",
    "fig2left": "55de5471a511e9a67238d52853e3c64046a6b9757d1b75877185310ed7f245d8",
    "fig2right": "5014d790cebd1215b20e88b641239f4cd75516382d20eb99a7bda1fa32898f89",
}

NO_BSP_MAP = ("an iteration ranked no transition: no linear certificate of "
              "this shape exists for the given invariant")
REFUSED = {
    "diverge_const": NO_BSP_MAP,
    "diverge_inc": NO_BSP_MAP,
    "zero_drift_walk": ("no component can rank further transitions under the "
                        "zero-coefficient discipline"),
}

# pivots of the first-iteration LP (25 unknowns x 28 rows, 19 rows after the
# simplex presolve)
FIRST_LP_PIVOTS = {"fig1b": 10, "fig2right": 10}

# the figure-2 pCFGs are stored lowered and reuse the figure-1 invariants
PCFG_INVARIANT = {"fig2left": "fig1a", "fig2right": "fig1b"}

# the benchmark's ladder programs, as "ladder.<mode>.k<depth>"
LADDER = {f"ladder.{name}": (text, inv_doc)
          for name, _, text, inv_doc in workloads.ladder_programs()}


def load(name):
    if name in LADDER:
        text, inv_doc = LADDER[name]
        p = lower_to_pcfg(parse_program(text))
        return p, invariant_from_json(inv_doc, p)
    if name in PCFG_INVARIANT:
        p = load_pcfg(fixture_path(name + ".pcfg.json"))
        return p, load_invariant(fixture_path(PCFG_INVARIANT[name] + ".inv.json"), p)
    return load_fixture(name)


def synthesize(name):
    p, inv = load(name)
    synth = synthesize_bsp if check_bsp(p)[0] else synthesize_general
    return p, synth(p, inv)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_digest(name):
    p, result = synthesize(name)
    assert result.found, result.failure
    doc = json.dumps(certificate_to_json(result.certificate, p), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == CERTIFIED[name]


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_verdict(name):
    _, result = synthesize(name)
    assert not result.found
    assert result.failure == REFUSED[name]


@pytest.mark.parametrize("name", sorted(FIRST_LP_PIVOTS))
def test_first_lp_pivot_count(name):
    p, inv = load(name)
    slp = build_lp(p, inv, [t.id for t in p.non_terminal_transitions()])
    assert solve_lp(slp.lp).pivots == FIRST_LP_PIVOTS[name]


# -- golden LPs -------------------------------------------------------------------
#
# The sha256 of `dump_lp` text, over the LPs in the order they are built.
# A dump lists rows, terms and unknowns in emission order, so these pin the
# Farkas encoder's row order, term order and multiplier numbering, and the
# feasibility screens that decide which implications are emitted at all.

FIRST_LP_DIGESTS = {
    "bern_walk": "834ebb281986be8c29b5385e4135a5ac90d915ca6a076085fe9e33145dabdd04",
    "branching": "ee8fc058d7e507a63582e16b0d5d11ab176e9cb623124f8dcf786747e2324a69",
    "countdown": "b44880a86b9fbef59677538f4aa76249d1aba830e7327823167ebbd442176892",
    "fig1a": "df028b35dcff4ef4330e42685f6d8a1d9d89b7d88a8476394380a7d772c06eb1",
    "fig1b": "cd7ae449762dad1f009c4873721213e08f0dca837d062e717bedc4b795dafcdd",
    "fig2left": "df028b35dcff4ef4330e42685f6d8a1d9d89b7d88a8476394380a7d772c06eb1",
    "fig2right": "cd7ae449762dad1f009c4873721213e08f0dca837d062e717bedc4b795dafcdd",
    "prob_join": "2f1f750adbe079f4b9ee4eafaf7f600e7e034a6865f1df30f3f854574958c6f5",
    "straightline": "e7caf944f0adc0d39048f50843184743754cf4701258ba5d946a0e43fea9a66a",
}

# every iteration LP of one run, the attempts that rank nothing included:
# (procedure, LPs solved, digest over all); the general run on fig1a
# retries with a tau0 in its third iteration, and the general ladders of
# depth 3 and 4 solve 10 and 15 LPs for 4 and 5 components. A general LP
# lists each pinned coefficient as a template column with a `= 0` row.
RUN_LP_DIGESTS = {
    "fig2right": (synthesize_bsp, 3,
                  "7ff83bfc4f5e4132c104cd8538dedb32afad17b1c2cd4c455c23e924876593df"),
    "fig1a": (synthesize_general, 4,
              "287c6a792c3cdd667863ccb77cb4126ecd31e488099b9ba129e6bc0c3728d774"),
    "ladder.general.k3": (synthesize_general, 10,
                          "525a91810b2d97a5b0bfb34e1384211893ec3c5cdbf7b1a616374b34c917468d"),
    "ladder.general.k4": (synthesize_general, 15,
                          "f67e1989fc8aeaa61d4eb8641efdadd90653a111a479be7afe8f2e164c6216bf"),
}


def lp_digest(lps) -> str:
    h = hashlib.sha256()
    for lp in lps:
        h.update(dump_lp(lp).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FIRST_LP_DIGESTS))
def test_first_lp_digest(name):
    p, inv = load(name)
    slp = build_lp(p, inv, [t.id for t in p.non_terminal_transitions()])
    assert lp_digest([slp.lp]) == FIRST_LP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RUN_LP_DIGESTS))
def test_iteration_lp_digests(name, monkeypatch):
    synth, count, digest = RUN_LP_DIGESTS[name]
    lps = []

    def recording(lp, *args, **kwargs):
        lps.append(lp)
        return solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(synthesis, "solve_lp", recording)
    assert synth(*load(name)).found
    assert len(lps) == count
    assert lp_digest(lps) == digest


# the pivots summed over every iteration LP of the ladder of depth 6, past
# the benchmark's k <= 4, per procedure: a change that grows the LPs, or
# the pivots they take, shows here
DEEP_LADDER_PIVOTS = {"bsp": 128, "general": 203}


def solved(synth, p, inv, monkeypatch):
    """`synth` run on `p` and `inv`: (result, the solution of each
    iteration LP, in order)."""
    sols = []

    def recording(lp, *args, **kwargs):
        sols.append(solve_lp(lp, *args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(synthesis, "solve_lp", recording)
    return synth(p, inv), sols


def ladder(k, mode):
    """The ladder of depth k in `mode`, as (pCFG, invariant)."""
    p = lower_to_pcfg(parse_program(workloads.ladder_source(k, mode == "general")))
    return p, invariant_from_json(workloads.ladder_invariant(k), p)


def ladder_run(k, mode, monkeypatch):
    """The ladder of depth k synthesized in `mode`: (pCFG, result, the
    pivots of each iteration LP)."""
    p, inv = ladder(k, mode)
    synth = synthesize_general if mode == "general" else synthesize_bsp
    result, sols = solved(synth, p, inv, monkeypatch)
    return p, result, [sol.pivots for sol in sols]


# what the simplex did with every iteration LP of a general run, the
# attempts that rank nothing included: (LPs solved, sha256 over the JSON
# list of each one's status, optimum and pivots). The LP dumps of these
# runs may change where the simplex sees the same tableau; these may not.
RUN_LP_OUTCOMES = {
    "fig1a": (4, "6dc182a946c33026b8ee8a6042769d71919b75e3c8edbe5ccc41e32079167206"),
    "ladder.general.k3": (10, "f204a48d707d219793bfa3a2a62e688a0dad7e2af0117954d8a7d736eebdf30c"),
    "ladder.general.k4": (15, "d63127a204a2def45f7614c1cb0cef5962a921a3a53bc52a5d40fd784da62344"),
    "ladder.general.k6": (28, "1d8aa5d48b421f3e5323ef89f5c9a410602863166c0688d15d0478ef0158fd11"),
}


@pytest.mark.parametrize("name", sorted(RUN_LP_OUTCOMES))
def test_general_run_lp_outcomes(name, monkeypatch):
    count, digest = RUN_LP_OUTCOMES[name]
    p, inv = ladder(6, "general") if name == "ladder.general.k6" else load(name)
    result, sols = solved(synthesize_general, p, inv, monkeypatch)
    assert result.found
    outcomes = [[sol.status.value, str(sol.value), sol.pivots] for sol in sols]
    assert len(sols) == count
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", sorted(DEEP_LADDER_PIVOTS))
def test_deep_ladder_pivots(mode, monkeypatch):
    _, result, pivots = ladder_run(6, mode, monkeypatch)
    assert result.found and result.certificate.dimension == 7
    assert sum(pivots) == DEEP_LADDER_PIVOTS[mode]


def test_depth_ten_general_ladder(monkeypatch):
    # each zero-rhs equality that owns a column starts basic on it, which
    # leaves 557 pivots over the 66 LPs; pivoting every such row on a
    # shared template column first took 9938, for the same certificate
    p, result, pivots = ladder_run(10, "general", monkeypatch)
    assert result.found and result.certificate.dimension == 11
    assert (len(pivots), sum(pivots)) == (66, 557)
    doc = json.dumps(certificate_to_json(result.certificate, p), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "bd35f55748ee06922115600bf4dca42f49ce1be20620b30d09b966af5ce472bc")


# The seeded random corpus of `test_integration.test_random_programs_pipeline_sound`,
# which draws a start state after every certified program. Two digests pin
# it. `CORPUS_DIGEST` takes per program the history, the digest of every
# iteration LP's dump, and for a certificate its JSON and its check report,
# all under one sha256. `CORPUS_VERDICT_DIGEST` leaves out the LPs and
# their sizes and keeps what a verdict is: the failure, each iteration's
# index, ranked set, tau0 and objective, and the certificate and its check
# report. A change to LP assembly that keeps every verdict moves the first
# and must keep the second.

CORPUS_SEED = 20240809
CORPUS_PROGRAMS = 60
CORPUS_FOUND = 12
CORPUS_DIGEST = "1a7b87368c486bae8ee98d549c0047c810310a5368bbc6a3bd81d0d88251c264"
CORPUS_VERDICT_DIGEST = "aa5c00ee4878bd7ca641fe567e4d1cc2e62ec95b0050b5b7c0dec67da3fac4a3"
# the fields of `IterationRecord.as_dict` that a verdict is made of
VERDICT_KEYS = ("iteration", "ranked", "tau0", "objective")


def corpus_runs(monkeypatch):
    """Per corpus program, in order: its synthesis result, the digests of
    the dumps of the iteration LPs it solved, and for a certificate its
    JSON and check report (else None, None)."""
    lps = []

    def recording(lp, *args, **kwargs):
        lps.append(lp)
        return solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(synthesis, "solve_lp", recording)
    rng = random.Random(CORPUS_SEED)
    runs = []
    for _ in range(CORPUS_PROGRAMS):
        p = lower_to_pcfg(parse_program(gen_program(rng)))
        synth = synthesize_bsp if check_bsp(p)[0] else synthesize_general
        lps.clear()
        result = synth(p, Invariant({}))
        certificate = check = None
        if result.found:
            certificate = certificate_to_json(result.certificate, p)
            check = check_certificate(p, Invariant({}), result.certificate).as_dict()
            for _ in p.variables:
                rng.randint(-2, 3)
        runs.append((result, [hashlib.sha256(dump_lp(lp).encode()).hexdigest()
                              for lp in lps], certificate, check))
    assert sum(result.found for result, *_ in runs) == CORPUS_FOUND
    return runs


def test_corpus_digest(monkeypatch):
    h = hashlib.sha256()
    for result, lps, certificate, check in corpus_runs(monkeypatch):
        record = {"history": [rec.as_dict() for rec in result.history], "lps": lps}
        if result.found:
            record["certificate"] = certificate
            record["check"] = check
        h.update(json.dumps(record, sort_keys=True).encode())
    assert h.hexdigest() == CORPUS_DIGEST


def test_corpus_verdict_digest(monkeypatch):
    h = hashlib.sha256()
    for result, _, certificate, check in corpus_runs(monkeypatch):
        record = {"failure": result.failure,
                  "history": [{key: rec.as_dict()[key] for key in VERDICT_KEYS}
                              for rec in result.history],
                  "certificate": certificate, "check": check}
        h.update(json.dumps(record, sort_keys=True).encode())
    assert h.hexdigest() == CORPUS_VERDICT_DIGEST


def test_every_iteration_optimum_is_zero_one(monkeypatch):
    # an iteration LP is homogeneous but for `eps <= 1` and a forced
    # `eps = 1`, and lowering an eps keeps every row that reads it
    # satisfied; so the sum of one feasible point per rankable transition,
    # each eps then cut to 1, is optimal, and every optimum sets each eps
    # to 0 or 1. Checked on each LP that reaches an optimum in every run on
    # the fixtures, the ladders up to depth 6 in both modes and both corpora.
    built, optima = [], 0

    def building(*args, **kwargs):
        built.append(build_lp(*args, **kwargs))
        return built[-1]

    def checking(lp, *args, **kwargs):
        nonlocal optima
        sol = solve_lp(lp, *args, **kwargs)
        slp = built[-1]
        assert lp is slp.lp
        if sol.status is LPStatus.OPTIMAL:
            assert {sol.x[k] for k in slp.eps.values()} <= {0, 1}, slp.eps
            optima += 1
        return sol

    monkeypatch.setattr(synthesis, "build_lp", building)
    monkeypatch.setattr(synthesis, "solve_lp", checking)

    def run(p, inv):
        return (synthesize_bsp if check_bsp(p)[0] else synthesize_general)(p, inv)

    for name in sorted(CERTIFIED) + sorted(REFUSED):
        run(*load(name))
    for k in range(1, 7):
        for mode in ("bsp", "general"):
            p, inv = ladder(k, mode)
            (synthesize_general if mode == "general" else synthesize_bsp)(p, inv)
    rng = random.Random(CORPUS_SEED)
    for _ in range(CORPUS_PROGRAMS):
        p = lower_to_pcfg(parse_program(gen_program(rng)))
        if run(p, Invariant({})).found:
            for _ in p.variables:
                rng.randint(-2, 3)
    for _, p in _general_corpus():
        run(p, Invariant({}))
    assert optima > 300, optima


# -- golden lowering ----------------------------------------------------------------
#
# One sha256 over the sorted-key `pcfg_to_json` of every lowered program:
# the source fixtures, the benchmark's corpus and ladder programs, and a
# seeded set that also uses `skip`, `if *`, `or`/`not` guards and nested
# loops. It pins location names, transition ids, their order and every
# guard and update, so a change to lowering or its contraction shows here.

LOWERING_SEED = 7
LOWERING_PROGRAMS = 300
LOWERING_DIGEST = "d80268409b7f85461282e50714405ed1305e5f3d4ee241f2fb59099eb1b5a445"


def lowering_program(rng: random.Random) -> str:
    """A random program over x and y that uses every statement form. A
    probabilistic branch's else arm ends in an assignment, so its two
    arms never lower to the same location."""

    def guard(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            if rng.random() < 0.05:
                return rng.choice(["true", "false"])
            op = rng.choice([">=", "<=", ">", "<", "==", "!="])
            return f"{rng.choice('xy')} {op} {rng.randint(-2, 2)}"
        if roll < 0.6:
            return f"not ({guard(depth - 1)})"
        if roll < 0.8:
            return f"{guard(depth - 1)} and {guard(depth - 1)}"
        return f"({guard(depth - 1)}) or ({guard(depth - 1)})"

    def update():
        v = rng.choice("xy")
        roll = rng.random()
        if roll < 0.2:
            lo = rng.randint(-3, 0)
            return f"{v} := ndet[{lo}, {lo + rng.randint(0, 2)}]"
        if roll < 0.4:
            return f"{v} := {v} - 1 + sample(unif(-1, {rng.randint(0, 1)}))"
        return f"{v} := {v} + {rng.randint(-2, 1)}"

    def stmt(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            return "skip" if rng.random() < 0.3 else update()
        if roll < 0.45:
            return f"{stmt(depth - 1)}; {stmt(depth - 1)}"
        if roll < 0.6:
            return f"while {guard(2)} do {stmt(depth - 1)} od"
        if roll < 0.75:
            return f"if {guard(2)} then {stmt(depth - 1)} else {stmt(depth - 1)} fi"
        if roll < 0.88:
            return (f"if prob(1/3) then {stmt(depth - 1)} "
                    f"else {stmt(depth - 1)}; {update()} fi")
        return f"if * then {stmt(depth - 1)} else {stmt(depth - 1)} fi"

    return stmt(3)


def lowering_sources() -> list:
    fixtures = []
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".prob"):
            with open(fixture_path(name)) as f:
                fixtures.append(f.read())
    found = set(workloads.read_json("expected.json")["corpus"]["found"])
    corpus = workloads.corpus_sources([i in found for i in range(workloads.CORPUS_SIZE)])
    ladder = [text for _, _, text, _ in workloads.ladder_programs()]
    rng = random.Random(LOWERING_SEED)
    generated = [lowering_program(rng) for _ in range(LOWERING_PROGRAMS)]
    return fixtures + corpus + ladder + generated


def test_lowering_digest():
    sources = lowering_sources()
    assert len(sources) == 10 + 60 + 8 + LOWERING_PROGRAMS
    h = hashlib.sha256()
    for src in sources:
        p = lower_to_pcfg(parse_program(src))
        assert validate_pcfg(p) == [], src
        h.update(json.dumps(pcfg_to_json(p), sort_keys=True).encode())
    assert h.hexdigest() == LOWERING_DIGEST


# Branches whose arms carry no update: which of an arm's no-op edges the
# contraction keeps depends on the order it visits locations, and
# `lowering_program` never draws such arms (its probabilistic else arm
# ends in an assignment). A seeded set of their own is pinned the same way.

EMPTY_ARMS_SEED = 11
EMPTY_ARMS_PROGRAMS = 300
EMPTY_ARMS_DIGEST = "417ea50a69b1796f9c77ee3fce55385cf1f6d851a50995c4ed11478910666284"


def empty_arms_program(rng: random.Random) -> str:
    """One to three `if prob` and `if *` branches over x and y, in a loop
    or not, each arm `skip`, `skip; skip`, an assignment, a nested empty
    `if *` or a loop."""

    def arm():
        v = rng.choice("xy")
        return rng.choice(["skip", "skip; skip", f"{v} := {v} - 1",
                           "if * then skip else skip fi",
                           f"while {v} >= 1 do {v} := {v} - 1 od"])

    def branch():
        head = rng.choice(["if prob(1/3)", "if *"])
        return f"{head} then {arm()} else {arm()} fi"

    body = "; ".join(branch() for _ in range(rng.randint(1, 3)))
    return body if rng.random() < 0.3 else f"while x >= 0 do {body}; x := x - 1 od"


def test_empty_arms_lowering_digest():
    rng = random.Random(EMPTY_ARMS_SEED)
    h = hashlib.sha256()
    for _ in range(EMPTY_ARMS_PROGRAMS):
        src = empty_arms_program(rng)
        p = lower_to_pcfg(parse_program(src))
        assert validate_pcfg(p) == [], src
        h.update(json.dumps(pcfg_to_json(p), sort_keys=True).encode())
    assert h.hexdigest() == EMPTY_ARMS_DIGEST


# -- golden checker reports -------------------------------------------------------
#
# The sha256 of each `check_certificate(...).as_dict()` dumped with sorted
# keys, for the published certificates and the curated mutants of the
# checker tests. A report carries every condition's verdict and the exact
# counterexample point of each violation, so a change to the entailment
# queries that moves either one shows here.

CHECK_REPORT_DIGESTS = {
    "example3": "680e7d2473d601e450c9369d67c02b0e01b63a171a16168b0547462bceefc0db",
    "example3.l1.2.const-2": "3bbd282625d5eb47fb750f3ea8f9feec5caa5b5d50cf4b62657f380f065dbc79",
    "example3.l1.2.const+1": "680e7d2473d601e450c9369d67c02b0e01b63a171a16168b0547462bceefc0db",
    "example3.l0.1.const-1": "2a72b977c613a5adfc8eed814fb146bf7e4d39666db2de28c5cbad21cac41488",
    "example3.l0.3.const-8": "f840a3133acf4324607250694ea6f4b2ee55d593a0b6d519d8b7189fb4f257a0",
    "example3.out.3.const+63": "680e7d2473d601e450c9369d67c02b0e01b63a171a16168b0547462bceefc0db",
    "example3.l0.2.y+1": "de5c4a2f1ff29bff6601269023f52f943fba405b05089f9d1a74bb81f424c8d4",
    "example3.l0.2.x-1": "0e90a96f16ea545cb9b647a41093f654a4b93656fa98cd082932b125b219079e",
    "example4": "82f89125f496d6109f98c469fc607e7538a0bde76fdc0a62b6bb5ebc33d5cfd5",
    "example4.l1.2.x+1": "79188f7cc5af0a235c10a93923a3a8c71feb133226bb6da94624010db54c6e4a",
    "example4.l1.3.const-1": "b923eaf26efcd2478fbd87908a535ed41cd8a2008c31bc5b9d9bae1da2cf3caf",
    "example4.l0.2.const-1": "407d5f0e7a4443fb69a75d8b4f6d315fa2c5f3ea442a6495f32d61767db8cb88",
    "example4.l0.2.y+1": "215e5ed1d3f0e518c3b38b547f391091c7964fa86789dfe10658297e4d4a530f",
    "example4.out.1.const+1": "383f2e36b92b7ff1795b3492bf7418e901878e9848df79d2d1727490ec9ceb37",
}


def checked_certificates() -> dict:
    """Case id -> (fixture, certificate factory) for every pinned report:
    each published certificate, then its mutants."""
    cases = {}
    for name, fixture, published, mutations in (
            ("example3", "fig1b", example3_certificate, E3_MUTATIONS),
            ("example4", "fig1a", example4_certificate, E4_MUTATIONS)):
        cases[name] = (fixture, published)
        for loc, comp, var, delta, _ in mutations:
            def mutant(p, published=published, loc=loc, comp=comp, var=var,
                       delta=delta):
                idx = p.var_index(var) if var else None
                return perturbed(published(p), loc, comp, idx, delta)
            cases[f"{name}.{loc}.{comp}.{var or 'const'}{delta:+d}"] = (fixture, mutant)
    return cases


CHECKED = checked_certificates()


@pytest.mark.parametrize("case", list(CHECKED))
def test_check_report_digest(case):
    fixture, certificate = CHECKED[case]
    p, inv = load_fixture(fixture)
    doc = json.dumps(check_certificate(p, inv, certificate(p)).as_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == CHECK_REPORT_DIGESTS[case]


# -- golden trajectories --------------------------------------------------------
#
# Runs 0..19 at one seed, pinned as the sha256 of the sorted-key JSON of
# every report field. A change to the simulator (compiling the graph,
# integer guard tests, exact draws) must keep these digests: the rng
# stream, the order of draws and the exact rational state all show here.

TRAJECTORY_SEED = 11
TRAJECTORY_RUNS = 20
TRAJECTORY_CAP = 2000

# name -> (fixture, initial values by variable name, scheduler factory)
TRAJECTORY_CASES = {
    "fig1a.uniform": ("fig1a", {"x": 3, "y": 3}, lambda p: UniformRandom()),
    "fig1b.uniform": ("fig1b", {"x": 3, "y": 3}, lambda p: UniformRandom()),
    "fig1b.adversarial": ("fig1b", {"x": 3, "y": 3},
                          lambda p: Adversarial(example3_certificate(p))),
    "bern_walk.uniform": ("bern_walk", {"x": 3}, lambda p: UniformRandom()),
    "branching.uniform": ("branching", {"x": 3, "y": 5}, lambda p: UniformRandom()),
    "branching.fixed.lo": ("branching", {"x": 3, "y": 5},
                           lambda p: FixedPriority(
                               [t.id for t in reversed(p.transitions)], "lo")),
    "branching.fixed.uniform": ("branching", {"x": 3, "y": 5},
                                lambda p: FixedPriority(
                                    [t.id for t in reversed(p.transitions)], "uniform")),
    "prob_join.uniform": ("prob_join", {"x": 4, "y": 0}, lambda p: UniformRandom()),
}

TRAJECTORY_DIGESTS = {
    "bern_walk.uniform": "f96b8952614d5464e6e702fc0cc29191009a390cc568b1ebb0f99434062f4165",
    # the demonic assignment takes its lower end and draws no random number
    "branching.fixed.lo": "89b8b075b8556994120c735024a2a492bc5fc11f79b424b454b9ab87011a440d",
    "branching.fixed.uniform": "cd0beb641d7780adb395223ae7946859e9bc81b95c86d6c29384d448760e7f05",
    "branching.uniform": "57a1917e393973d137085d2939aeb5a1348a52871e573497d74e2ab46c025b79",
    "fig1a.uniform": "74f925ce62d1570accbffb7c4390c1ce5d639a11fb75086f29407ab13a2530f6",
    # fig1b's guards partition the state space: no choice ever arises
    "fig1b.adversarial": "0e6e4f6b638a6ba02cec7415f37611bbde02244ddd977c1049bafdbbaa275e66",
    "fig1b.uniform": "0e6e4f6b638a6ba02cec7415f37611bbde02244ddd977c1049bafdbbaa275e66",
    "prob_join.uniform": "4fe519627c390fbb7f2af7dea79e976526c53af50ea97893c8c875013221a3e5",
}

ESTIMATE = {"fraction": 1.0, "wilson95": [0.9123783988027135, 1.0], "runs": 40,
            "terminated": 40, "stuck": 0, "mean_steps": 6.25}


def trajectory_doc(r) -> dict:
    return {"terminated": r.terminated, "steps": r.steps, "stuck": r.stuck,
            "final_location": r.final_location, "final_values": str(r.final_values),
            "taken": r.taken, "draws": r.draws,
            "states": [[loc, [str(v) for v in vals]] for loc, vals in r.states]}


@pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
def test_trajectory_digest(case):
    name, init, make = TRAJECTORY_CASES[case]
    p, _ = load_fixture(name)
    values = [Fraction(init[v]) for v in p.variables]
    sched = make(p)
    docs = [trajectory_doc(run_trajectory(p, values, sched, TRAJECTORY_CAP,
                                          seed=TRAJECTORY_SEED, run_index=i))
            for i in range(TRAJECTORY_RUNS)]
    doc = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == TRAJECTORY_DIGESTS[case]


def test_estimate_pinned():
    p, _ = load_fixture("fig1b")
    est = estimate_termination(p, [Fraction(3), Fraction(3)], UniformRandom(),
                               runs=40, step_cap=10 ** 4, seed=TRAJECTORY_SEED)
    assert est.as_dict() == ESTIMATE


# -- golden simulation ----------------------------------------------------------
#
# One sha256 over every `.prob` fixture under every scheduler kind at two
# seeds: recorded runs (`as_dict()`, `taken` and `states`) and bare runs
# from `trajectories`, the last one at the largest run index. `fig1a`
# draws normals through the Generator, `branching` has real scheduler
# choices and a demonic interval, `prob_join` and `branching` take
# probabilistic branches, and the adversarial scheduler reads the values
# of the state on `branching`.

SIMULATION_SEEDS = (5, 2 ** 100 + 7)
SIMULATION_CAP = 300
SIMULATION_RUNS = 6
SIMULATION_DIGEST = "496bb936c90c691f5c23d8f8a4a52602fea5bf2e655641879745979ac51a8476"


def simulation_schedulers(name, p):
    """(label, scheduler factory) for fixture `name`."""
    order = [t.id for t in reversed(p.transitions)]
    scheds = [("uniform", UniformRandom)]
    scheds += [(f"fixed.{mode}", lambda mode=mode: FixedPriority(order, mode))
               for mode in ("lo", "hi", "uniform")]
    if name == "fig1b":
        scheds.append(("adversarial", lambda: Adversarial(example3_certificate(p))))
    if name == "branching":
        cert = synthesize("branching")[1].certificate
        scheds.append(("adversarial", lambda: Adversarial(cert)))
    return scheds


def test_simulation_digest():
    h = hashlib.sha256()
    names = sorted(f[:-len(".prob")] for f in os.listdir(FIXTURES) if f.endswith(".prob"))
    for name in names:
        p, _ = load_fixture(name)
        init = [Fraction(3 + 2 * i) for i in range(len(p.variables))]
        for label, make in simulation_schedulers(name, p):
            for seed in SIMULATION_SEEDS:
                recorded = [run_trajectory(p, init, make(), SIMULATION_CAP, seed=seed,
                                           run_index=i) for i in range(SIMULATION_RUNS)]
                bare = trajectories(p, init, make(), SIMULATION_CAP, seed,
                                    [*range(SIMULATION_RUNS), 2 ** 64 - 1])
                doc = {"case": [name, label, seed],
                       "recorded": [[r.as_dict(), r.taken,
                                     [[loc, [str(v) for v in vals]] for loc, vals in r.states]]
                                    for r in recorded],
                       "bare": [[r.as_dict(), r.taken, r.states] for r in bare]}
                h.update(json.dumps(doc, sort_keys=True).encode())
    assert h.hexdigest() == SIMULATION_DIGEST
