"""Inputs and known answers of the probterm benchmark.

Everything a workload feeds to the library is built here from the
benchmark's own files, so an edit to the test suite cannot silently
change what the benchmark measures.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

CORPUS_SEED = 20240809
CORPUS_SIZE = 60
LADDER_DEPTHS = (1, 2, 3, 4)


# -- corpus: the seeded random-program generator --------------------------------


def gen_program(rng: random.Random) -> str:
    """One random bounded-support program over x and y.

    The draws replay `tests/test_integration.gen_program` exactly; the
    benchmark's own test pins the two together at `CORPUS_SEED`.
    """
    vars_ = ["x", "y"]

    def num(lo=-3, hi=3):
        return rng.randint(lo, hi)

    def update():
        v = rng.choice(vars_)
        roll = rng.random()
        if roll < 0.25:
            lo = num(-4, 0)
            return f"{v} := ndet[{lo}, {lo + rng.randint(0, 3)}]"
        if roll < 0.55:
            a = rng.randint(-6, -1)
            b = rng.randint(0, 2)
            return f"{v} := {v} + {num(-2, 0)} + sample(unif({a}, {b}))"
        if roll < 0.65:
            return f"{v} := {v} - 1 + sample(bern(1/2))"
        return f"{v} := {v} + {num(-3, 1)}"

    def guard():
        v = rng.choice(vars_)
        op = rng.choice([">=", ">", "<="])
        g = f"{v} {op} {num(-2, 2)}"
        if rng.random() < 0.3:
            w = rng.choice(vars_)
            g += f" and {w} {rng.choice(['>=', '<='])} {num(-2, 2)}"
        return g

    def stmt(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.45:
            return update()
        if roll < 0.6:
            return f"while {guard()} do {stmt(depth - 1)}; {update()} od"
        if roll < 0.75:
            return f"if {guard()} then {stmt(depth - 1)} else {stmt(depth - 1)} fi"
        if roll < 0.9:
            p = rng.choice(["1/4", "1/2", "3/4"])
            return f"if prob({p}) then {stmt(depth - 1)} else {stmt(depth - 1)} fi"
        return f"if * then {stmt(depth - 1)} else {stmt(depth - 1)} fi"

    return f"while {guard()} do {stmt(2)} od"


def corpus_sources(found: list[bool]) -> list[str]:
    """The 60 programs of the integration test's random corpus.

    That test draws a start state from the same generator after every
    program that gets a certificate, so replaying its sources needs the
    found/refused vector recorded at `CORPUS_SEED`.
    """
    rng = random.Random(CORPUS_SEED)
    sources = []
    for certified in found:
        src = gen_program(rng)
        sources.append(src)
        if certified:
            for _ in set(re.findall(r"\b[xy]\b", src)):
                rng.randint(-2, 3)
    return sources


# -- ladder: k nested countdown loops ------------------------------------------


def ladder_source(k: int, noisy: bool) -> str:
    """k nested countdowns over x0..x{k-1}; loop i+1 starts at x{i}.

    With `noisy`, every decrement adds `sample(norm(0, 1))`, which makes
    the program unbounded-support (fig1a's shape for k = 2).
    """
    noise = " + sample(norm(0, 1))" if noisy else ""

    def body(i: int) -> str:
        dec = f"x{i} := x{i} - 1{noise}"
        if i == k - 1:
            return dec
        return (f"x{i + 1} := x{i}; while x{i + 1} >= 0 do {body(i + 1)} od; "
                f"{dec}")

    return f"while x0 >= 0 do {body(0)} od"


def ladder_invariant(k: int) -> dict:
    """Head l{i} knows every outer counter is nonnegative; without it no
    linear certificate exists for k >= 2."""
    return {f"l{i}": [f"x{j} >= 0" for j in range(i)] for i in range(1, k)}


def ladder_programs() -> list[tuple[str, int, str, dict]]:
    """(name, k, source, invariant) for both variants at every depth."""
    return [(f"{'general' if noisy else 'bsp'}.k{k}", k, ladder_source(k, noisy),
             ladder_invariant(k))
            for noisy in (False, True) for k in LADDER_DEPTHS]


# -- data files: known answers, published programs and certificates ------------


def read_text(name: str) -> str:
    return (DATA / name).read_text()


def read_json(name: str):
    with open(DATA / name) as f:
        return json.load(f)
