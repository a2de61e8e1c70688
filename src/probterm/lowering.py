"""Lowering from the source AST to a control-flow graph, plus a direct
AST interpreter used as the lowering-correctness oracle.

The construction gives every loop head its own location and keeps at most
one assignment per transition. Afterwards a contraction pass over the
transitions removes the helper locations the recursive construction
over-produces: a location with a single guarded no-update entry
transition is folded into its predecessor (the guard is conjoined onto
the outgoing transitions), and a location whose only exit is an
unconditional no-op transition is skipped through, unless that would
send a probabilistic branch to one target twice (as a branch with two
empty arms would). Both rewrites preserve trajectories up to
intermediate no-op hops. Locations are then renamed canonically: `l0`
for the entry, `l1`, `l2`, ... in discovery order, `out` for the
terminal; transitions become `t0`, `t1`, ... in construction order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from .linear import Polyhedron, Predicate, negate_predicate
from .model import (GuardedStep, NoUpdate, NondetUpdate, PCFG, ProbBranch,
                    Transition)
from .source import (Assign, IfCond, IfNdet, IfProb, Seq, Skip, SourceProgram,
                     Stmt, While)


def lower_to_pcfg(program: SourceProgram) -> PCFG:
    builder = _Builder(program.variables)
    entry = builder.fresh()
    builder.lower(program.body, entry, builder.terminal)
    # every rewrite restarts the scan from the first location
    while builder.contract({entry, builder.terminal}):
        pass
    return builder.finish(entry)


def _relabel(t: Transition, rename: Dict[str, str], tid: str = "") -> Transition:
    """`t` with every location in `rename` replaced, under id `tid`."""
    k = t.kind
    if t.is_pb:
        k = ProbBranch(rename.get(k.dest1, k.dest1), k.p1, rename.get(k.dest2, k.dest2), k.p2)
    else:
        k = GuardedStep(rename.get(k.dest, k.dest), k.guard, k.update)
    return Transition(tid, rename.get(t.source, t.source), k)


class _Builder:
    """Transitions carry the placeholder id "" until `finish` numbers them."""

    def __init__(self, variables: List[str]):
        self.variables = variables
        self.counter = itertools.count()
        self.terminal = "__out__"
        self.transitions: List[Transition] = []

    def fresh(self) -> str:
        return f"q{next(self.counter)}"

    def step(self, source: str, dest: str, guard: Predicate, update) -> None:
        self.transitions.append(Transition("", source, GuardedStep(dest, guard, update)))

    def split(self, source: str, cond: Predicate, yes: str, no: str) -> None:
        """One step per distinct disjunct of `cond` to `yes`, and of its
        complement to `no`. A repeated disjunct would be a second copy of
        the same transition, which a uniform scheduler chooses between
        with a draw that the source program does not make."""
        for pred, dest in ((cond, yes), (negate_predicate(cond), no)):
            for constraints in dict.fromkeys(tuple(d.constraints) for d in pred.disjuncts):
                self.step(source, dest, Predicate([Polyhedron(constraints)]), NoUpdate())

    def lower(self, stmt: Stmt, entry: str, exit_: str) -> None:
        if isinstance(stmt, Skip):
            self.step(entry, exit_, Predicate.true(), NoUpdate())
        elif isinstance(stmt, Assign):
            self.step(entry, exit_, Predicate.true(), stmt.update)
        elif isinstance(stmt, Seq):
            cur = entry
            for s in stmt.stmts[:-1]:
                nxt = self.fresh()
                self.lower(s, cur, nxt)
                cur = nxt
            self.lower(stmt.stmts[-1], cur, exit_)
        elif isinstance(stmt, While):
            body_entry = self.fresh()
            self.split(entry, stmt.cond, body_entry, exit_)
            self.lower(stmt.body, body_entry, entry)
        else:
            then_entry, else_entry = self.fresh(), self.fresh()
            if isinstance(stmt, IfCond):
                self.split(entry, stmt.cond, then_entry, else_entry)
            elif isinstance(stmt, IfProb):
                self.transitions.append(Transition("", entry, ProbBranch(
                    then_entry, stmt.p, else_entry, 1 - stmt.p)))
            elif isinstance(stmt, IfNdet):
                self.step(entry, then_entry, Predicate.true(), NoUpdate())
                self.step(entry, else_entry, Predicate.true(), NoUpdate())
            else:
                raise TypeError(f"unknown statement {stmt!r}")
            self.lower(stmt.then, then_entry, exit_)
            self.lower(stmt.els, else_entry, exit_)

    # -- contraction --------------------------------------------------------

    def contract(self, protect: set) -> bool:
        """Apply the first rewrite that fits, scanning the locations not in
        `protect` in order of first mention; False when none does."""
        ts = self.transitions
        into, out_of = {}, {}       # `into` keyed in order of first mention
        for t in ts:
            into.setdefault(t.source, [])
            out_of.setdefault(t.source, []).append(t)
            for d in t.destinations():
                into.setdefault(d, []).append(t)
        for loc, ins in into.items():
            if loc in protect:
                continue
            outs = out_of.get(loc, [])
            # fold a single guarded no-update entry into the exits
            if (len(ins) == 1 and not ins[0].is_pb
                    and isinstance(ins[0].update(), NoUpdate) and ins[0].source != loc
                    and outs and all(not o.is_pb and loc not in o.destinations()
                                     for o in outs)):
                entry = ins[0]
                self.transitions = [
                    Transition("", entry.source, GuardedStep(
                        t.kind.dest, entry.guard().conjoin(t.guard()), t.update()))
                    if t.source == loc else t
                    for t in ts if t is not entry]
                return True
            # skip through an unconditional no-op exit
            if (len(outs) == 1 and not outs[0].is_pb
                    and isinstance(outs[0].update(), NoUpdate) and outs[0].guard().is_true()
                    and loc not in outs[0].destinations() and ins):
                target = outs[0].destinations()[0]
                # a probabilistic branch into `loc` that already goes to
                # `target` would get one target twice
                if not any(t.is_pb and target in t.destinations() for t in ins):
                    self.transitions = [_relabel(t, {loc: target})
                                        for t in ts if t is not outs[0]]
                    return True
        return False

    # -- canonical naming ----------------------------------------------------

    def finish(self, entry: str) -> PCFG:
        order = [entry]
        for loc in order:  # breadth first: `order` grows while it is read
            for t in self.transitions:
                for d in t.destinations():
                    if t.source == loc and d not in order and d != self.terminal:
                        order.append(d)
        rename = {loc: f"l{i}" for i, loc in enumerate(order)}
        locations = list(rename.values()) + ["out"]
        rename[self.terminal] = "out"
        # statically dead branches (e.g. a loop whose guard is `false`)
        # leave unreachable locations behind; drop their transitions
        live = [t for t in self.transitions if t.source in rename]
        return PCFG(list(self.variables), locations, rename[entry], "out",
                    [_relabel(t, rename, f"t{i}") for i, t in enumerate(live)])


# -- reference interpreter ---------------------------------------------------


@dataclass
class InterpResult:
    terminated: bool
    steps: int
    values: List[Fraction]
    draws: int


def run_ast(program: SourceProgram, init: List[Fraction], rng,
            step_cap: int = 10 ** 6) -> InterpResult:
    """Execute the AST directly with exact rational state.

    Consumes randomness in the same order as the graph simulator run on
    the lowered program with a uniform scheduler: one uniform per
    probabilistic branch, one per demonic binary branch, one draw per
    sample or demonic assignment.
    """
    values = list(init)
    if len(values) != len(program.variables):
        raise ValueError("initial valuation arity mismatch")
    stack: List[Stmt] = [program.body]
    steps = 0
    draws = 0

    def uniform(lo: Fraction, hi: Fraction) -> Fraction:
        return lo + (hi - lo) * Fraction(float(rng.random()))

    while stack:
        if steps >= step_cap:
            return InterpResult(False, steps, values, draws)
        stmt = stack.pop()
        steps += 1
        if isinstance(stmt, Skip):
            pass
        elif isinstance(stmt, Assign):
            u = stmt.update
            if isinstance(u, NondetUpdate):
                v = uniform(u.lo, u.hi)
                draws += 1
            else:
                v = u.base.evaluate(values)
                if u.sample is not None:
                    coeff, dist = u.sample
                    v += coeff * dist.sample(rng)
                    draws += 1
            values[u.target] = v
        elif isinstance(stmt, Seq):
            stack.extend(reversed(stmt.stmts))
        elif isinstance(stmt, While):
            if stmt.cond.satisfied(values):
                stack.append(stmt)
                stack.append(stmt.body)
        elif isinstance(stmt, IfCond):
            stack.append(stmt.then if stmt.cond.satisfied(values) else stmt.els)
        elif isinstance(stmt, IfProb):
            draws += 1
            taken = Fraction(float(rng.random())) < stmt.p
            stack.append(stmt.then if taken else stmt.els)
        elif isinstance(stmt, IfNdet):
            draws += 1
            choice = int(rng.random() * 2)
            stack.append(stmt.then if choice == 0 else stmt.els)
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return InterpResult(True, steps, values, draws)
