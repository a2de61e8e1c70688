"""The benchmark's traced synthesis counts, pinned per pass.

`bench/test_bench.py` traces only the `validate` workload, which never
synthesizes. This runs one traced pass of `ladder` through `bench/run.py`
and pins the work that the LP assembly and the simplex do in it, so a
change that moves the LPs, their screens or their solves shows here.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

LADDER_PER_PASS = {
    "synthesis.implications": 720,
    "synthesis.lp_rows.sum": 3163,
    "synthesis.lp_nonzeros.sum": 5697,
    "synthesis.screens": 40,
    "simplex.solves": 208,
    "synthesis.certs_changed": 0,
}


def test_traced_ladder_pass_counts():
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "ladder",
                          "--seed", "1", "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    counts = {key: result["metrics"][key]["value"] for key in LADDER_PER_PASS}
    assert counts == LADDER_PER_PASS
