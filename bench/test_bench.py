"""Pins the benchmark's inputs and output contract.

Run with `PYTHONPATH=src python -m pytest -q bench`.
"""

import importlib.util
import json
import random
from pathlib import Path

from probterm import (Invariant, check_bsp, lower_to_pcfg, parse_program,
                      synthesize_bsp)

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_corpus_replays_integration_test_sources():
    spec = importlib.util.spec_from_file_location(
        "integration_corpus", ROOT / "tests" / "test_integration.py")
    integration = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(integration)

    found = set(workloads.read_json("expected.json")["corpus"]["found"])
    assert len(found) == 12  # and 48 refused

    # the test's own loop: a start state is drawn after each certified program
    rng = random.Random(workloads.CORPUS_SEED)
    reference = []
    for trial in range(workloads.CORPUS_SIZE):
        src = integration.gen_program(rng)
        reference.append(src)
        if trial in found:
            for _ in lower_to_pcfg(parse_program(src)).variables:
                rng.randint(-2, 3)
    flags = [i in found for i in range(workloads.CORPUS_SIZE)]
    assert workloads.corpus_sources(flags) == reference
    assert all(check_bsp(lower_to_pcfg(parse_program(s)))[0] for s in reference)


def test_ladder_needs_its_invariant():
    _, _, text, _ = next(prog for prog in workloads.ladder_programs()
                         if prog[0] == "bsp.k2")
    p = lower_to_pcfg(parse_program(text))
    assert not synthesize_bsp(p, Invariant({})).found


def run_once(capsys, trace: int) -> dict:
    assert run.main(["--workload", "validate", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_result_line_reports_every_declared_metric(capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_once(capsys, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in declared[key]}
    assert result["metrics"]["trace.accounted_pct"]["value"] > 99
