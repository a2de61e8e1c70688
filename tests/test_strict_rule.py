"""The paper's headline claim: the generalized rule proves what the strict
one cannot.

The strict rule is that of Agrawal, Chatterjee and Novotny, Lexicographic
ranking supermartingales (POPL 2018): every component must be nonnegative
on every reachable state, not only where the transition it ranks is
enabled. `strict_build_lp` applies it by wrapping the synthesis LP, so
the strict search is the generalized one with rows added. The test checks
that whatever it certifies, the generalized rule certifies too, and pins
the programs that only the generalized rule certifies.
"""

import functools
import importlib.util
import pathlib

import pytest

from probterm import (Invariant, check_bsp, check_certificate, check_feasible,
                      lower_to_pcfg, parse_program, pcfg_io, synthesis)

from conftest import FIXTURES, encode_into, load_fixture, template_at
from test_integration import _general_corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


generalized_build_lp = synthesis.build_lp


def strict_build_lp(p, inv, unranked, *args, **kwargs):
    """`synthesis.build_lp` plus "invariant implies template >= 0" at
    every non-terminal location whose invariant is feasible."""
    slp = generalized_build_lp(p, inv, unranked, *args, **kwargs)
    for loc in p.locations:
        ante = inv.at(loc)
        if loc != p.terminal_location and check_feasible(ante)[0]:
            encode_into(ante, template_at(slp, loc), slp.lp, tag=f"strict.{loc}")
    return slp


def synthesize(p, inv):
    """The synthesis procedure `check_bsp` selects for `p`."""
    bounded, _ = check_bsp(p)
    return (synthesis.synthesize_bsp if bounded else synthesis.synthesize_general)(p, inv)


def ladder_program(name):
    _, _, text, inv_doc = next(prog for prog in workloads.ladder_programs()
                               if prog[0] == name)
    p = lower_to_pcfg(parse_program(text))
    return p, pcfg_io.invariant_from_json(inv_doc, p)


FIXTURE_NAMES = sorted(path.stem for path in pathlib.Path(FIXTURES).glob("*.prob"))
LADDER_NAMES = [prog[0] for prog in workloads.ladder_programs()]
PROGRAMS = ({name: functools.partial(load_fixture, name) for name in FIXTURE_NAMES}
            | {f"ladder.{name}": functools.partial(ladder_program, name)
               for name in LADDER_NAMES})

# certified by the generalized rule and refused by the strict one: the
# paper's two examples (fig1a, fig1b), every nested countdown, and every
# other fixture the generalized rule certifies except `straightline`,
# which has no loop
SEPARATED = ({"fig1a", "fig1b", "bern_walk", "branching", "countdown", "prob_join"}
             | {f"ladder.{name}" for name in LADDER_NAMES})


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_strict_rule_is_contained_in_generalized(name, monkeypatch):
    p, inv = PROGRAMS[name]()
    general = synthesize(p, inv)
    monkeypatch.setattr(synthesis, "build_lp", strict_build_lp)
    strict = synthesize(p, inv)
    if strict.found:
        assert general.found
        # the strict certificate is a certificate of the generalized rule
        assert check_certificate(p, inv, strict.certificate).accepted
    assert (general.found and not strict.found) == (name in SEPARATED)


def test_strict_rule_is_contained_in_generalized_on_general_corpus(monkeypatch):
    # the 74 programs with unbounded noise, under the general procedure and
    # the trivial invariant
    corpus = [p for _, p in _general_corpus()]
    inv = Invariant({})
    general = [synthesis.synthesize_general(p, inv).found for p in corpus]
    monkeypatch.setattr(synthesis, "build_lp", strict_build_lp)
    strict = [synthesis.synthesize_general(p, inv) for p in corpus]
    for p, general_found, result in zip(corpus, general, strict):
        if result.found:
            assert general_found
            assert check_certificate(p, inv, result.certificate).accepted
    separated = sum(g and not r.found for g, r in zip(general, strict))
    assert (len(corpus), sum(general), sum(r.found for r in strict), separated) == (74, 9, 1, 8)
