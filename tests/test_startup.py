"""What a process loads: numpy executes only when a simulation first
draws from it, so parsing, synthesis, checking and their commands run
without it. Each case starts a fresh interpreter, since this process has
long since loaded numpy."""

import json
import pathlib
import subprocess
import sys

import pytest

from conftest import fixture_path
from test_golden import ESTIMATE, TRAJECTORY_SEED

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_fresh(script: str, *flags: str) -> subprocess.CompletedProcess:
    """`script` in a new interpreter that imports probterm from `SRC`."""
    head = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    return subprocess.run([sys.executable, *flags, "-c", head + script],
                          capture_output=True, text=True)


NUMPY_LOADED = "any(m.startswith('numpy.') for m in sys.modules)"


def test_only_simulation_loads_numpy(tmp_path):
    fig1b = fixture_path("fig1b")
    script = f"""
import json
from fractions import Fraction
import probterm
from probterm import cli
from probterm.simulate import UniformRandom, estimate_termination

p = probterm.lower_to_pcfg(probterm.parse_program(open({fig1b + ".prob"!r}).read()))
inv = probterm.load_invariant({fig1b + ".inv.json"!r}, p)
result = probterm.synthesize_bsp(p, inv)
verdict = probterm.check_certificate(p, inv, result.certificate).accepted
codes = [cli.main(["parse", {fig1b + ".prob"!r}, "-o", {str(tmp_path / "p.json")!r}]),
         cli.main(["synthesize", {fixture_path("fig2right.pcfg.json")!r},
                   "-i", {fig1b + ".inv.json"!r}, "-o", {str(tmp_path / "c.json")!r}]),
         cli.main(["check", {fixture_path("fig2right.pcfg.json")!r},
                   {fixture_path("example3.cert.json")!r}, "-i", {fig1b + ".inv.json"!r}])]
before = {NUMPY_LOADED}
est = estimate_termination(p, [Fraction(3), Fraction(3)], UniformRandom(),
                           runs=40, step_cap=10 ** 4, seed={TRAJECTORY_SEED})
print(json.dumps({{"found": result.found, "accepted": verdict, "codes": codes,
                  "before": before, "after": {NUMPY_LOADED},
                  "estimate": est.as_dict()}}))
"""
    r = run_fresh(script)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout.splitlines()[-1])
    assert doc["found"] and doc["accepted"] and doc["codes"] == [0, 0, 0]
    assert doc["before"] is False
    assert doc["after"] is True
    assert doc["estimate"] == ESTIMATE


def test_numpy_imported_first_is_reused():
    script = f"""
import numpy
from probterm import simulate
print(simulate.np is numpy, type(numpy).__name__, {NUMPY_LOADED})
"""
    r = run_fresh(script)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True", "module", "True"]


@pytest.mark.parametrize("block,flags", [
    ("sys.modules['numpy'] = None\n", ()),
    # without site-packages there is no numpy to find
    ("", ("-S",)),
], ids=["blocked", "missing"])
def test_missing_numpy_fails_at_import(block, flags):
    script = block + """
try:
    import probterm
except ModuleNotFoundError as e:
    print("ModuleNotFoundError", e.name)
"""
    r = run_fresh(script, *flags)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["ModuleNotFoundError", "numpy"]
