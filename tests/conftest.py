import json
import os
from fractions import Fraction

import pytest

from probterm import (Certificate, CertificateMode, Invariant, LinExpr,
                      LinExprMap, encode_implication, load_invariant, lower_to_pcfg,
                      parse_program)
from probterm.farkas import Block

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_fixture_ast(name: str):
    with open(fixture_path(name + ".prob")) as f:
        return parse_program(f.read())


def load_fixture(name: str):
    """(pcfg, invariant) for a named fixture program."""
    p = lower_to_pcfg(load_fixture_ast(name))
    inv_path = fixture_path(name + ".inv.json")
    inv = load_invariant(inv_path, p) if os.path.exists(inv_path) else Invariant({})
    return p, inv


def lifted(e: LinExpr) -> LinExpr:
    """A concrete expression as an `encode_implication` consequent: each
    coefficient, and the constant, becomes a constant `LinExpr` over LP
    columns."""
    return LinExpr({i: LinExpr.const(v) for i, v in e.coeffs.items()},
                   LinExpr.const(e.constant))


def encode_into(antecedent, consequent: LinExpr, lp, tag: str = "lam") -> list:
    """`encode_implication` into `lp` the way synthesis does it: into a
    block over the identity frame of `lp`'s columns, then placed into
    `lp`. The multipliers' block positions are their columns in `lp`,
    which are returned."""
    block = Block(lp.num_vars())
    lams = encode_implication(antecedent, consequent, block, tag)
    block.replay(lp, list(range(block.width)))
    return lams


def template_at(slp, loc: str) -> LinExpr:
    """The template of the iteration LP `slp` at `loc`: a `LinExpr` over
    the program variables whose coefficients and constant are `LinExpr`s
    over the LP columns that `slp.columns` gives: one per variable, then
    the constant."""
    *coeffs, const = slp.columns[loc]
    return LinExpr({i: LinExpr.var(k) for i, k in enumerate(coeffs)}, LinExpr.var(const))


def _lem(p, rows):
    """rows: {loc: [(cx, cy, const), ...]} over variables named x, y."""
    x, y = p.var_index("x"), p.var_index("y")
    comps = {loc: [LinExpr({x: Fraction(cx), y: Fraction(cy)}, Fraction(c))
                   for cx, cy, c in vec]
             for loc, vec in rows.items()}
    return LinExprMap(len(next(iter(rows.values()))), comps)


@pytest.fixture(scope="session")
def fig1b():
    return load_fixture("fig1b")


@pytest.fixture(scope="session")
def fig1a():
    return load_fixture("fig1a")


def example3_certificate(p) -> Certificate:
    """The published 3-component map for the bounded-support example, with
    the level map derived from which component 1-ranks which transition."""
    lem = _lem(p, {
        "l0":  [(0, 0, 1), (1, 0, 7), (0, 1, 7)],
        "l1":  [(0, 0, 1), (1, 0, 8), (0, 1, 7)],
        "out": [(0, 0, 0), (1, 0, 7), (0, 1, 7)],
    })
    levels = {"t0": 1, "t1": 3, "t2": 2, "t3": 2}
    return Certificate(lem, levels, Fraction(0), CertificateMode.BSP_COMPLETE)


def example4_certificate(p) -> Certificate:
    lem = _lem(p, {
        "l0":  [(0, 0, 1), (0, 2, 2), (1, 0, 1)],
        "l1":  [(0, 0, 1), (0, 2, 1), (1, 0, 1)],
        "out": [(0, 0, 0), (0, 2, 2), (1, 0, 1)],
    })
    levels = {"t0": 1, "t1": 2, "t2": 3, "t3": 2}
    return Certificate(lem, levels, Fraction(0), CertificateMode.GENERAL_SOUND)


def perturbed(cert: Certificate, loc: str, component: int, var, delta) -> Certificate:
    """Copy of `cert` with `delta` added to one coefficient (var=None for
    the constant term) of one component at one location."""
    comps = {l: list(vec) for l, vec in cert.lem.components.items()}
    e = comps[loc][component - 1]
    if var is None:
        e2 = LinExpr(e.coeffs, e.constant + Fraction(delta))
    else:
        coeffs = dict(e.coeffs)
        coeffs[var] = coeffs.get(var, Fraction(0)) + Fraction(delta)
        e2 = LinExpr(coeffs, e.constant)
    comps[loc][component - 1] = e2
    lem = LinExprMap(cert.dimension, comps)
    return Certificate(lem, dict(cert.levels), cert.shift, cert.mode)


# fig1b (fig2right as a pCFG file) under this invariant needs LPs where
# no bound conflict or box point settles a query. The first screen, t0's
# guard x < 0 with x + y >= 0 and y <= x - 1 at l0, is empty only through
# all three rows. At l1, x + y >= -5 and y <= 2 entail x >= -7 only through
# both rows, which the checker asks for example 3's certificate.
LP_SCREENED_INVARIANT = {"l0": ["x + y >= 0", "y <= x - 1"],
                         "l1": ["x + y >= -5", "y <= 2"]}
