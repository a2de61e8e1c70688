"""Lowering from the source AST to a control-flow graph, plus a direct
AST interpreter used as the lowering-correctness oracle.

The construction gives every loop head its own location and keeps at most
one assignment per transition. Afterwards a contraction pass removes the
helper locations the recursive construction over-produces: a location
with a single guarded no-update entry edge is folded into its
predecessor (the guard is conjoined onto the outgoing edges), and a
location whose only exit is an unconditional no-op edge is skipped
through. Both rewrites preserve trajectories up to intermediate no-op
hops. Locations are then renamed canonically: `l0` for the entry,
`l1`, `l2`, ... in discovery order, `out` for the terminal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .linear import Predicate, negate_predicate
from .model import (ExprUpdate, GuardedStep, NoUpdate, NondetUpdate, PCFG,
                    ProbBranch, Transition)
from .source import (Assign, AssignNdet, IfCond, IfNdet, IfProb, Seq, Skip,
                     SourceProgram, Stmt, While)


def lower_to_pcfg(program: SourceProgram) -> PCFG:
    builder = _Builder(program.variables)
    entry = builder.fresh()
    builder.lower(program.body, entry, builder.terminal)
    builder.contract(protect={entry, builder.terminal})
    return builder.finish(entry)


@dataclass
class _Edge:
    source: str
    kind: object  # ProbBranch | GuardedStep


class _Builder:
    def __init__(self, variables: List[str]):
        self.variables = variables
        self.counter = itertools.count()
        self.terminal = "__out__"
        self.edges: List[_Edge] = []

    def fresh(self) -> str:
        return f"q{next(self.counter)}"

    def step(self, source: str, dest: str, guard: Predicate, update) -> None:
        self.edges.append(_Edge(source, GuardedStep(dest, guard, update)))

    def lower(self, stmt: Stmt, entry: str, exit_: str) -> None:
        if isinstance(stmt, Skip):
            self.step(entry, exit_, Predicate.true(), NoUpdate())
        elif isinstance(stmt, Assign):
            idx = self.variables.index(stmt.var)
            self.step(entry, exit_, Predicate.true(),
                      ExprUpdate(idx, stmt.base, stmt.sample))
        elif isinstance(stmt, AssignNdet):
            idx = self.variables.index(stmt.var)
            self.step(entry, exit_, Predicate.true(),
                      NondetUpdate(idx, stmt.lo, stmt.hi))
        elif isinstance(stmt, Seq):
            cur = entry
            for s in stmt.stmts[:-1]:
                nxt = self.fresh()
                self.lower(s, cur, nxt)
                cur = nxt
            self.lower(stmt.stmts[-1], cur, exit_)
        elif isinstance(stmt, While):
            body_entry = self.fresh()
            for disjunct in stmt.cond.disjuncts:
                self.step(entry, body_entry, Predicate([disjunct]), NoUpdate())
            for disjunct in negate_predicate(stmt.cond).disjuncts:
                self.step(entry, exit_, Predicate([disjunct]), NoUpdate())
            self.lower(stmt.body, body_entry, entry)
        elif isinstance(stmt, IfCond):
            then_entry, else_entry = self.fresh(), self.fresh()
            for disjunct in stmt.cond.disjuncts:
                self.step(entry, then_entry, Predicate([disjunct]), NoUpdate())
            for disjunct in negate_predicate(stmt.cond).disjuncts:
                self.step(entry, else_entry, Predicate([disjunct]), NoUpdate())
            self.lower(stmt.then, then_entry, exit_)
            self.lower(stmt.els, else_entry, exit_)
        elif isinstance(stmt, IfProb):
            then_entry, else_entry = self.fresh(), self.fresh()
            self.edges.append(_Edge(entry, ProbBranch(then_entry, stmt.p,
                                                      else_entry, 1 - stmt.p)))
            self.lower(stmt.then, then_entry, exit_)
            self.lower(stmt.els, else_entry, exit_)
        elif isinstance(stmt, IfNdet):
            then_entry, else_entry = self.fresh(), self.fresh()
            self.step(entry, then_entry, Predicate.true(), NoUpdate())
            self.step(entry, else_entry, Predicate.true(), NoUpdate())
            self.lower(stmt.then, then_entry, exit_)
            self.lower(stmt.els, else_entry, exit_)
        else:
            raise TypeError(f"unknown statement {stmt!r}")

    # -- contraction --------------------------------------------------------

    def _locations(self) -> List[str]:
        out = []
        for e in self.edges:
            for loc in [e.source] + (list((e.kind.dest1, e.kind.dest2))
                                     if isinstance(e.kind, ProbBranch)
                                     else [e.kind.dest]):
                if loc not in out:
                    out.append(loc)
        return out

    def _ins(self, loc: str) -> List[_Edge]:
        out = []
        for e in self.edges:
            dests = ((e.kind.dest1, e.kind.dest2) if isinstance(e.kind, ProbBranch)
                     else (e.kind.dest,))
            if loc in dests:
                out.append(e)
        return out

    def _outs(self, loc: str) -> List[_Edge]:
        return [e for e in self.edges if e.source == loc]

    def contract(self, protect: set) -> None:
        changed = True
        while changed:
            changed = False
            for loc in self._locations():
                if loc in protect:
                    continue
                ins, outs = self._ins(loc), self._outs(loc)
                # fold a single guarded no-update entry into the exits
                if (len(ins) == 1 and isinstance(ins[0].kind, GuardedStep)
                        and isinstance(ins[0].kind.update, NoUpdate)
                        and ins[0].source != loc and outs
                        and all(isinstance(o.kind, GuardedStep) and o.kind.dest != loc
                                for o in outs)):
                    entry = ins[0]
                    for o in outs:
                        o.source = entry.source
                        o.kind = GuardedStep(o.kind.dest,
                                             entry.kind.guard.conjoin(o.kind.guard),
                                             o.kind.update)
                    self.edges.remove(entry)
                    changed = True
                    break
                # skip through an unconditional no-op exit
                if (len(outs) == 1 and isinstance(outs[0].kind, GuardedStep)
                        and isinstance(outs[0].kind.update, NoUpdate)
                        and outs[0].kind.guard.is_true()
                        and outs[0].kind.dest != loc and ins):
                    target = outs[0].kind.dest
                    for e in ins:
                        e.kind = _redirect(e.kind, loc, target)
                    self.edges.remove(outs[0])
                    changed = True
                    break

    # -- canonical naming ----------------------------------------------------

    def finish(self, entry: str) -> PCFG:
        order = [entry]
        frontier = [entry]
        while frontier:
            loc = frontier.pop(0)
            for e in self._outs(loc):
                for d in ((e.kind.dest1, e.kind.dest2)
                          if isinstance(e.kind, ProbBranch) else (e.kind.dest,)):
                    if d not in order and d != self.terminal:
                        order.append(d)
                        frontier.append(d)
        rename = {self.terminal: "out"}
        for i, loc in enumerate(order):
            rename[loc] = f"l{i}"
        locations = [rename[loc] for loc in order] + ["out"]
        # statically dead branches (e.g. a loop whose guard is `false`)
        # leave unreachable locations behind; drop their edges
        live = [e for e in self.edges if e.source in rename]
        transitions = []
        for i, e in enumerate(live):
            kind = e.kind
            if isinstance(kind, ProbBranch):
                kind = ProbBranch(rename[kind.dest1], kind.p1,
                                  rename[kind.dest2], kind.p2)
            else:
                kind = GuardedStep(rename[kind.dest], kind.guard, kind.update)
            transitions.append(Transition(f"t{i}", rename[e.source], kind))
        return PCFG(list(self.variables), locations, rename[entry], "out", transitions)


def _redirect(kind, old: str, new: str):
    if isinstance(kind, ProbBranch):
        return ProbBranch(new if kind.dest1 == old else kind.dest1, kind.p1,
                          new if kind.dest2 == old else kind.dest2, kind.p2)
    return GuardedStep(new if kind.dest == old else kind.dest, kind.guard, kind.update)


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
            v = stmt.base.evaluate(values)
            if stmt.sample is not None:
                coeff, dist = stmt.sample
                v += coeff * dist.sample(rng)
                draws += 1
            values[program.variables.index(stmt.var)] = v
        elif isinstance(stmt, AssignNdet):
            values[program.variables.index(stmt.var)] = uniform(stmt.lo, stmt.hi)
            draws += 1
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
