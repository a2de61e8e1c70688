"""Golden certificates: synthesis output on the fixtures, pinned byte for byte.

Any change to pivoting (representation, pricing, column layout) must keep
these digests, or change them on purpose and say so. A digest is the
sha256 of the certificate's JSON dumped with sorted keys. Two pivot
counts pin the pivot sequence itself, which a change of pricing moves
even where the certificate survives.
"""

import hashlib
import json

import pytest

from probterm import check_bsp
from probterm.farkas import solve_lp
from probterm.pcfg_io import certificate_to_json, load_invariant, load_pcfg
from probterm.synthesis import build_lp, synthesize_bsp, synthesize_general

from conftest import fixture_path, load_fixture

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

# pivots of the first-iteration LP (37 unknowns x 52 rows)
FIRST_LP_PIVOTS = {"fig1b": 58, "fig2right": 58}

# the figure-2 pCFGs are stored lowered and reuse the figure-1 invariants
PCFG_INVARIANT = {"fig2left": "fig1a", "fig2right": "fig1b"}


def load(name):
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
