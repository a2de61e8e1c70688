"""Lowering from the source AST to a control-flow graph, plus a direct
AST interpreter used as the lowering-correctness oracle.

The construction gives every loop head its own location and keeps at most
one assignment per transition. A contraction then removes the helper
locations it over-produces: a location with a single guarded no-update
entry transition is folded into its predecessor (the guard is conjoined
onto the outgoing transitions), and a location whose only exit is an
unconditional no-op transition is skipped through, unless that would
send a probabilistic branch to one target twice (as a branch with two
empty arms would). Both rewrites preserve trajectories up to
intermediate no-op hops. Each rewrite is made at the first location, in
order of first mention in the transition list, where one fits, and the
contraction makes them in one pass: a rewrite deletes one transition and
changes others in their places, so the locations wait in a heap keyed by
first mention, and after a rewrite only those that the changed
transitions name can fit anew or move. Locations are then renamed
canonically: `l0` for the entry, `l1`, `l2`, ... in discovery order,
`out` for the terminal; transitions become `t0`, `t1`, ... in
construction order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .linear import Polyhedron, Predicate, negate_predicate
from .model import (GuardedStep, NoUpdate, NondetUpdate, PCFG, ProbBranch,
                    Transition)
from .source import (Assign, IfCond, IfNdet, IfProb, Seq, Skip, SourceProgram,
                     Stmt, While)


def lower_to_pcfg(program: SourceProgram) -> PCFG:
    builder = _Builder(program.variables)
    entry = builder.fresh()
    builder.lower(program.body, entry, builder.terminal)
    # one pass, at each step the first location in order of first mention
    # where a rewrite fits
    builder.contract({entry, builder.terminal})
    return builder.finish(entry)


class _Builder:
    """The transitions under construction are edges, each a list
    [source, destinations, guard, update, probabilities] that contraction
    rewrites in place: a step has one destination and probabilities None,
    a probabilistic branch two destinations, their two probabilities and
    the no-op guard and update. `finish` makes them `Transition`s."""

    def __init__(self, variables: List[str]):
        self.variables = variables
        self.counter = itertools.count()
        self.terminal = "__out__"
        self.transitions: List[list] = []
        # the guard and the update of an unconditional no-op, which every
        # edge that needs one shares
        self.true, self.no_update = Predicate.true(), NoUpdate()

    def fresh(self) -> str:
        return f"q{next(self.counter)}"

    def step(self, source: str, dest: str, guard: Predicate, update) -> None:
        self.transitions.append([source, [dest], guard, update, None])

    def split(self, source: str, cond: Predicate, yes: str, no: str) -> None:
        """One step per distinct disjunct of `cond` to `yes`, and of its
        complement to `no`. A repeated disjunct would be a second copy of
        the same transition, which a uniform scheduler chooses between
        with a draw that the source program does not make."""
        for pred, dest in ((cond, yes), (negate_predicate(cond), no)):
            if len(pred.disjuncts) == 1:
                self.step(source, dest, pred, self.no_update)
                continue
            for constraints in dict.fromkeys(tuple(d.constraints) for d in pred.disjuncts):
                self.step(source, dest, Predicate([Polyhedron(constraints)]), self.no_update)

    def lower(self, stmt: Stmt, entry: str, exit_: str) -> None:
        if isinstance(stmt, Skip):
            self.step(entry, exit_, self.true, self.no_update)
        elif isinstance(stmt, Assign):
            self.step(entry, exit_, self.true, stmt.update)
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
                self.transitions.append([entry, [then_entry, else_entry], self.true,
                                         self.no_update, (stmt.p, 1 - stmt.p)])
            elif isinstance(stmt, IfNdet):
                self.step(entry, then_entry, self.true, self.no_update)
                self.step(entry, else_entry, self.true, self.no_update)
            else:
                raise TypeError(f"unknown statement {stmt!r}")
            self.lower(stmt.then, then_entry, exit_)
            self.lower(stmt.els, else_entry, exit_)

    # -- contraction --------------------------------------------------------

    def contract(self, protect: set) -> None:
        """Apply rewrites until none fits, each at the first location not
        in `protect` where one does. A location's first mention is the
        least 3 * place + slot at which an edge names it, slot 0 its source
        and 1, 2 its destinations; it moves only for the location that
        gains the mentions of the one a rewrite removes."""
        es: List[Optional[list]] = self.transitions
        # location -> the places of the edges into and out of it, and its
        # first mention
        into, out_of, first = {}, {}, {}
        for place, e in enumerate(es):
            for key, loc in enumerate((e[0], *e[1]), 3 * place):
                if loc not in first:
                    first[loc], into[loc], out_of[loc] = key, {}, {}
                (into[loc] if key % 3 else out_of[loc])[place] = None
        heap = [(key, loc) for loc, key in first.items() if loc not in protect]  # sorted

        def mention(place: int, loc: str) -> int:
            e = es[place]
            return 3 * place if e[0] == loc else 3 * place + 1 + (e[1][0] != loc)

        def rewritten(place: int, loc: str, owner: str, places) -> None:
            """Close a rewrite that deletes the edge at `place`, and `loc`
            with it, after moving its mentions at `places` to `owner`."""
            es[place], into[loc], out_of[loc], first[loc] = None, {}, {}, None
            first[owner] = min(mention(p, owner) for ps in (out_of[owner], into[owner])
                               for p in ps)
            for n in {n for p in places for n in (es[p][0], *es[p][1])} - protect:
                heapq.heappush(heap, (first[n], n))

        while heap:
            key, loc = heapq.heappop(heap)
            if key != first[loc]:
                continue    # pushed again since, or gone
            ins, outs = into[loc], out_of[loc]
            entry = es[next(iter(ins))] if len(ins) == 1 else None
            exit_ = es[next(iter(outs))] if len(outs) == 1 else None
            # fold a single guarded no-update entry into the exits
            if (entry and entry[4] is None and isinstance(entry[3], NoUpdate)
                    and entry[0] != loc and outs
                    and not any(es[o][4] or loc in es[o][1] for o in outs)):
                (place,) = ins
                del out_of[entry[0]][place]
                for o in outs:
                    es[o][0], es[o][2] = entry[0], entry[2].conjoin(es[o][2])
                out_of[entry[0]].update(outs)
                rewritten(place, loc, entry[0], outs)
            # skip through an unconditional no-op exit, unless a
            # probabilistic branch into `loc` already goes to its target
            elif (exit_ and exit_[4] is None and isinstance(exit_[3], NoUpdate)
                    and exit_[1][0] != loc and exit_[2].is_true() and ins
                    and not any(es[i][4] and exit_[1][0] in es[i][1] for i in ins)):
                (place,), target = outs, exit_[1][0]
                del into[target][place]
                for i in ins:
                    es[i][1] = [target if d == loc else d for d in es[i][1]]
                into[target].update(ins)
                rewritten(place, loc, target, ins)
        self.transitions = [e for e in es if e is not None]

    # -- canonical naming ----------------------------------------------------

    def finish(self, entry: str) -> PCFG:
        out_of: Dict[str, List[list]] = {}
        for e in self.transitions:
            out_of.setdefault(e[0], []).append(e)
        order, seen = [entry], {entry, self.terminal}
        for loc in order:  # breadth first: `order` grows while it is read
            for e in out_of.get(loc, ()):
                for d in e[1]:
                    if d not in seen:
                        seen.add(d)
                        order.append(d)
        rename = {loc: f"l{i}" for i, loc in enumerate(order)}
        locations = list(rename.values()) + ["out"]
        rename[self.terminal] = "out"
        # statically dead branches (e.g. a loop whose guard is `false`)
        # leave unreachable locations behind; drop their edges
        live = [e for e in self.transitions if e[0] in rename]
        return PCFG(list(self.variables), locations, rename[entry], "out", [
            Transition(f"t{i}", rename[source], GuardedStep(rename[dests[0]], guard, update)
                       if probs is None else
                       ProbBranch(rename[dests[0]], probs[0], rename[dests[1]], probs[1]))
            for i, (source, dests, guard, update, probs) in enumerate(live)])


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
