"""Program model: probabilistic control-flow graphs and certificates.

A program is a graph of locations connected by transitions. A transition
either branches probabilistically between two successor locations (no
guard, no update) or moves to a single successor under a guard, applying
at most one variable update. Updates are a deterministic linear
expression, a linear expression plus one scaled distribution sample, or a
demonic choice from a bounded interval.

A termination certificate pairs a per-location vector of linear
expressions (one entry per ranking dimension) with a level map assigning
each transition the index of the component that ranks it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .distributions import DistributionSpec
from .linear import LinExpr, Polyhedron, Predicate


# -- updates ------------------------------------------------------------


@dataclass(frozen=True)
class NoUpdate:
    def pretty(self, names=None) -> str:
        return "skip"


@dataclass(frozen=True)
class ExprUpdate:
    """x[target] := base + coeff * sample(dist); at most one sample term."""
    target: int
    base: LinExpr
    sample: Optional[Tuple[Fraction, DistributionSpec]] = None

    def pretty(self, names=None) -> str:
        name = names[self.target] if names else f"x{self.target}"
        rhs = self.base.pretty(names)
        if self.sample:
            c, d = self.sample
            term = d.pretty() if c == 1 else f"{c}*{d.pretty()}"
            rhs = f"{rhs} + {term}" if rhs != "0" else term
        return f"{name} := {rhs}"


@dataclass(frozen=True)
class NondetUpdate:
    """x[target] := demonic choice from the bounded interval [lo, hi],
    which must be nonempty."""
    target: int
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def pretty(self, names=None) -> str:
        name = names[self.target] if names else f"x{self.target}"
        return f"{name} := ndet[{self.lo}, {self.hi}]"


Update = NoUpdate | ExprUpdate | NondetUpdate


# -- transitions ---------------------------------------------------------


@dataclass(frozen=True)
class ProbBranch:
    """Two-way probabilistic branch; guard is implicitly true."""
    dest1: str
    p1: Fraction
    dest2: str
    p2: Fraction


@dataclass(frozen=True)
class GuardedStep:
    dest: str
    guard: Predicate
    update: Update


@dataclass(frozen=True)
class Transition:
    id: str
    source: str
    kind: ProbBranch | GuardedStep

    @property
    def is_pb(self) -> bool:
        return isinstance(self.kind, ProbBranch)

    def destinations(self) -> List[str]:
        if isinstance(self.kind, ProbBranch):
            return [self.kind.dest1, self.kind.dest2]
        return [self.kind.dest]

    def guard(self) -> Predicate:
        """Guard predicate; probabilistic branches are guard-true."""
        if isinstance(self.kind, ProbBranch):
            return Predicate.true()
        return self.kind.guard

    def update(self) -> Update:
        if isinstance(self.kind, ProbBranch):
            return NoUpdate()
        return self.kind.update

    def samples_from(self) -> Optional[DistributionSpec]:
        u = self.update()
        if isinstance(u, ExprUpdate) and u.sample is not None:
            return u.sample[1]
        return None

    def samples_unbounded(self) -> bool:
        d = self.samples_from()
        return d is not None and not d.bounded


# -- the graph ------------------------------------------------------------


@dataclass
class PCFG:
    variables: List[str]
    locations: List[str]
    init_location: str
    terminal_location: str
    transitions: List[Transition]

    def var_index(self, name: str) -> int:
        return self.variables.index(name)

    def outgoing(self, location: str) -> List[Transition]:
        return [t for t in self.transitions if t.source == location]

    def transition(self, tid: str) -> Transition:
        for t in self.transitions:
            if t.id == tid:
                return t
        raise KeyError(tid)

    def non_terminal_transitions(self) -> List[Transition]:
        return [t for t in self.transitions if t.source != self.terminal_location]


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    subject: str = ""

    def __str__(self):
        return f"[{self.code}] {self.message}" + (f" ({self.subject})" if self.subject else "")


def validate_pcfg(p: PCFG) -> List[Diagnostic]:
    """Structural checks; an empty list means the graph is well-formed."""
    out: List[Diagnostic] = []
    locs = set(p.locations)
    nvars = len(p.variables)

    if len(locs) != len(p.locations):
        out.append(Diagnostic("DuplicateLocation", "duplicate location labels"))
    if len(set(p.variables)) != nvars:
        out.append(Diagnostic("DuplicateVariable", "duplicate variable names"))
    if p.init_location not in locs:
        out.append(Diagnostic("UnknownLocation", "init location not declared", p.init_location))
    if p.terminal_location not in locs:
        out.append(Diagnostic("UnknownLocation", "terminal location not declared",
                              p.terminal_location))

    seen_ids = set()
    for t in p.transitions:
        if t.id in seen_ids:
            out.append(Diagnostic("DuplicateTransitionId", "transition id reused", t.id))
        seen_ids.add(t.id)
        if t.source not in locs:
            out.append(Diagnostic("UnknownLocation", "transition source not declared", t.id))
        for d in t.destinations():
            if d not in locs:
                out.append(Diagnostic("UnknownLocation", "transition target not declared", t.id))
        if isinstance(t.kind, ProbBranch):
            k = t.kind
            if k.p1 + k.p2 != 1:
                out.append(Diagnostic("PBProbNotOne",
                                      f"branch probabilities sum to {k.p1 + k.p2}", t.id))
            if k.p1 <= 0 or k.p2 <= 0:
                out.append(Diagnostic("PBProbNotPositive",
                                      "branch probabilities must be positive", t.id))
            if k.dest1 == k.dest2:
                out.append(Diagnostic("PBSameTarget",
                                      "probabilistic branch needs two distinct targets", t.id))
        else:
            u = t.kind.update
            if isinstance(u, (ExprUpdate, NondetUpdate)):
                if not 0 <= u.target < nvars:
                    out.append(Diagnostic("BadVariableIndex",
                                          f"update target {u.target} out of range", t.id))
            bad = [i for i in t.kind.guard.variables() if not 0 <= i < nvars]
            if bad:
                out.append(Diagnostic("BadVariableIndex",
                                      f"guard uses undeclared variable index {bad[0]}", t.id))

    for loc in p.locations:
        outs = p.outgoing(loc)
        if loc == p.terminal_location:
            for t in outs:
                if t.destinations() != [loc]:
                    out.append(Diagnostic("NonSelfLoopAtTerminal",
                                          "terminal location may only carry self-loops", t.id))
        elif not outs:
            out.append(Diagnostic("NoOutgoing", "non-terminal location has no outgoing transition",
                                  loc))
    return out


def check_bsp(p: PCFG) -> Tuple[bool, Optional[Fraction]]:
    """Bounded-support check.

    Returns (True, N) with N the smallest bound such that every sampled
    distribution's support and every demonic interval fits in [-N, N];
    (False, None) if any distribution is unbounded. N is 0 when the
    program draws nothing.
    """
    bound = Fraction(0)
    for t in p.transitions:
        u = t.update()
        if isinstance(u, ExprUpdate) and u.sample is not None:
            d = u.sample[1]
            if not d.bounded:
                return False, None
            bound = max(bound, abs(d.support_lo), abs(d.support_hi))
        elif isinstance(u, NondetUpdate):
            bound = max(bound, abs(u.lo), abs(u.hi))
    return True, bound


def check_linpp_star(p: PCFG) -> bool:
    """True iff no location is both a probabilistic-branch successor and
    the target of a sampling transition."""
    pb_targets = set()
    sample_targets = set()
    for t in p.transitions:
        if t.is_pb:
            pb_targets.update(t.destinations())
        elif t.samples_from() is not None:
            sample_targets.add(t.kind.dest)
    return not (pb_targets & sample_targets)


# -- invariants and certificates ------------------------------------------


@dataclass
class Invariant:
    """Per-location over-approximation of reachable valuations.

    Semantic validity is not statically checkable; the simulator's audit
    can refute it dynamically. Locations without an entry mean `true`.
    """
    by_location: Dict[str, Polyhedron] = field(default_factory=dict)

    def at(self, location: str) -> Polyhedron:
        return self.by_location.get(location, Polyhedron.true())

    def antecedents(self, t: Transition,
                    context: Optional[Predicate] = None) -> List[Polyhedron]:
        """Where a side condition of `t` must hold: one polyhedron per
        disjunct of guard and `context`, guard disjunct outer and context
        disjunct inner, each with the invariant at the source first, then
        the guard rows, then the context rows."""
        pred = t.guard() if context is None else t.guard().conjoin(context)
        return [self.at(t.source).conjoin(d) for d in pred.disjuncts]


@dataclass
class LinExprMap:
    """`dimension` linear expressions per location (the ranking map)."""
    dimension: int
    components: Dict[str, List[LinExpr]]

    def __post_init__(self):
        for loc, vec in self.components.items():
            if len(vec) != self.dimension:
                raise ValueError(f"component vector at {loc} has length {len(vec)}, "
                                 f"expected {self.dimension}")

    def at(self, location: str, index: int) -> LinExpr:
        """Component `index` (1-based) at `location`."""
        return self.components[location][index - 1]

    def component(self, index: int) -> Dict[str, LinExpr]:
        """Component `index` (1-based) as a location -> expression map."""
        return {loc: vec[index - 1] for loc, vec in self.components.items()}

    def max_abs_coeff(self) -> Fraction:
        """Largest |coefficient| across all components, constants excluded."""
        best = Fraction(0)
        for vec in self.components.values():
            for e in vec:
                best = max(best, e.max_abs_coeff())
        return best

    def shifted(self, delta: Fraction) -> "LinExprMap":
        return LinExprMap(self.dimension, {
            loc: [e.shift(delta) for e in vec] for loc, vec in self.components.items()
        })


LevelMap = Dict[str, int]


class CertificateMode(enum.Enum):
    BSP_COMPLETE = "BSPComplete"
    GENERAL_SOUND = "GeneralSound"


@dataclass
class Certificate:
    """Ranking map + level map + the constant added to every component.

    In BSPComplete mode the (already shifted) map is a full linear
    certificate of almost-sure termination; in GeneralSound mode it
    witnesses the side conditions from which a piecewise-linear
    certificate, and hence termination, follows.
    """
    lem: LinExprMap
    levels: LevelMap
    shift: Fraction
    mode: CertificateMode

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.lem.dimension
