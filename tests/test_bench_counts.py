"""The benchmark's traced synthesis counts, pinned per pass.

`bench/test_bench.py` traces only the `validate` workload, which never
synthesizes. This runs one traced pass of `ladder` and one of `corpus`
through `bench/run.py` and pins the work that the LP assembly and the
simplex do in each, so a change that moves the LPs, their screens or
their solves shows here. It also shows that the bench tracer still reads
the LPs that `synthesis.build_lp` returns.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

LADDER_PER_PASS = {
    "synthesis.implications": 360,
    "synthesis.lp_rows.sum": 1760,
    "synthesis.lp_nonzeros.sum": 3527,
    "synthesis.screens": 40,
    "simplex.solves": 48,
    "simplex.solves.screen": 0,
    "synthesis.certs_changed": 0,
}

CORPUS_PER_PASS = {
    "synthesis.implications": 898,
    "synthesis.lp_rows.sum": 3067,
    "synthesis.lp_nonzeros.sum": 6468,
    "synthesis.lp_unknowns.sum": 2613,
    "synthesis.screens": 288,
    # the 123 iteration LPs and 3 gap LPs of the checker, whose queries
    # across a demonic step read the demonic value, a bounded variable
    "simplex.solves": 126,
    "simplex.solves.screen": 0,
    "synthesis.lps": 123,
    "synthesis.certs_changed": 0,
}


def _traced_pass(workload: str, keys) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {key: result["metrics"][key]["value"] for key in keys}


def test_traced_ladder_pass_counts():
    assert _traced_pass("ladder", LADDER_PER_PASS) == LADDER_PER_PASS


def test_traced_corpus_pass_counts():
    assert _traced_pass("corpus", CORPUS_PER_PASS) == CORPUS_PER_PASS
