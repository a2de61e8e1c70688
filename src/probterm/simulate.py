"""Monte-Carlo execution of programs under pluggable schedulers.

State is kept in exact rationals; sampled floats are converted exactly,
so guard evaluation and invariant audits never suffer rounding. Each run
owns an rng stream given by (master seed, run index), which makes
aggregates reproducible and independent of the order of runs: run i
draws from numpy's counter-based Philox generator keyed on the seed, its
counter starting at the words (0, 0, i, 0) (`run_rngs`). A run has 2**128
counter blocks before its counter could reach run i + 1's, so the runs
draw from disjoint blocks, with no seed hashing (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011). For the same seed these
streams differ from those of earlier versions, where run i drew from
`default_rng([seed, i])`. Every estimate is made in one process.

Every entry point compiles the graph once per call into a `Program`
and runs it through one loop, `Program.runs`, which runs all the runs
of the call in one frame and holds all of a step's arithmetic; an edge
is a slotted record that the loop reads, with no method of its own. A
run's state is a list of numerators and one of denominators, each value
in lowest terms; `Fraction`s are built only for recorded states and the
real choices of a scheduler that reads the values, and a report builds
its `final_values` when they are read. Each location keeps the distinct
integer linear forms its guard atoms read, in lowest terms with the
first term positive (`x >= 0` and `x < 0` read one form). A step takes
each form's sign once and looks its enabled edges up by the tuple of
signs, in a table that fills as runs reach sign vectors. An update
builds its new value, sample included, as one integer ratio reduced by
one gcd; a uniform sample or a demonic interval enters it as the
integer m of one unit draw, its 2**53 folded into the update's
denominator. Every uniform draw (a branch, a demonic interval, a
uniform, Bernoulli or discrete sample, a scheduler's choice) reads one
raw 64-bit word w of the run's bit generator as the exact ratio
m / 2**53 with m = w >> 11, the value `Generator.random()` returns for
that word, and random tests compare it against the exact probability in
integers. Only the uniform scheduler's choice among n enabled
transitions builds the float u = m * 2**-53 and takes int(u * n), as
the AST interpreter does: the exact floor of m * n / 2**53 differs
where u * n rounds up to an integer. Normals and custom samplers call
the Generator, which reads the same word stream. The state, the rng
stream and the order of draws are those of the plain small-step
semantics.

The built-in counterexample process is no program: its runs are
exchangeable, so it keeps only how many are still going, and each step
draws how many of them stop as one binomial with the step's exact
probability q_t.

Only this module uses numpy, and numpy executes at the first attribute
access of `np`, when a simulation first draws, not at `import probterm`:
parsing, synthesis and checking never load it. On the bench's
`corpus` workload (Python 3.11, numpy 2.4, 2-core container) that lowers
peak RSS from about 35.6 to 24.7 MB and the start-up to the first
operation from about 0.19 to 0.11 s.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .distributions import UNIT_BITS, DistKind
from .linear import LinExpr, Rel
from .model import (Certificate, ExprUpdate, Invariant, NondetUpdate, PCFG,
                    ProbBranch, Transition)
from .preexp import max_pre, nondet_endpoint
from .simplex import integer_row

# numpy, loaded at the first attribute access of `np` (see the module
# docstring). A numpy already imported is reused, so its code runs once per
# process; a missing or blocked one fails here, as a plain import would.
if (np := sys.modules.get("numpy")) is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_ESTIMATE_CAP = 10 ** 6


MAX_SEED = 2 ** 128 - 1
"""Largest seed: the seed is the 128-bit Philox key of every run."""


def run_rngs(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """Run i's stream, for i in `indices`, in order: numpy's Philox with
    key `seed` and counter words (0, 0, i, 0), its buffer empty. One
    Generator is reused and re-seated on each stream by writing i into
    one state dict, so a yielded generator is only valid until the next
    one is taken. A seed outside 0..`MAX_SEED` or an index outside
    0..2**64 - 1 raises `ValueError`."""
    seed = operator.index(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in 0..{MAX_SEED}")
    counter = [0] * 4
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": [seed & 0xFFFFFFFFFFFFFFFF, seed >> 64]},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    rng = np.random.Generator(np.random.Philox(key=seed))
    bit_generator = rng.bit_generator
    for i in map(operator.index, indices):
        if not 0 <= i < 1 << 64:
            raise ValueError("run indices must lie in 0..2**64 - 1")
        counter[2] = i
        bit_generator.state = state
        yield rng


# -- schedulers ---------------------------------------------------------------


class Scheduler:
    """Resolves demonic choices: which enabled transition fires, and which
    value a demonic interval assignment takes."""

    choice_draws = 0   # the uniforms a choice among enabled transitions draws
    reads_values = True   # False: `choose` gets None for the state's values

    def choose(self, enabled: List[Transition], values: Optional[List[Fraction]],
               rng) -> Transition:
        """One of `enabled`, two or more transitions enabled at `values`."""
        raise NotImplementedError

    def ndet_value(self, t: Transition) -> Optional[Fraction]:
        """The value demonic assignment `t` takes, or None to draw it
        uniformly from its interval."""
        return None


class UniformRandom(Scheduler):
    """Uniform over enabled transitions, uniform over demonic intervals.

    Consumes one uniform draw only when the choice is real (two or more
    enabled transitions), which keeps its draw sequence aligned with the
    AST reference interpreter. The index is int(u * n) in floats, with u
    the float `rng.random()` would return, not the exact floor of u * n
    (see the module docstring).
    """

    choice_draws = 1
    reads_values = False

    def choose(self, enabled, values, rng):
        if len(enabled) == 1:
            return enabled[0]
        u = (rng.bit_generator.random_raw() >> 11) * 2.0 ** -UNIT_BITS
        return enabled[int(u * len(enabled))]


class FixedPriority(Scheduler):
    """Deterministic transition choice by a fixed id ordering; demonic
    values by `ndet_mode` in {"uniform", "lo", "hi"}."""

    reads_values = False

    def __init__(self, ordering: Sequence[str] = (), ndet_mode: str = "uniform"):
        self.ordering = list(ordering)
        # id -> first position in the ordering
        self._position = {tid: i for i, tid in reversed(list(enumerate(self.ordering)))}
        if ndet_mode not in ("uniform", "lo", "hi"):
            raise ValueError(f"unknown ndet mode {ndet_mode!r}")
        self.ndet_mode = ndet_mode

    def choose(self, enabled, values, rng):
        # an id missing from the ordering ranks after every listed one
        last = len(self.ordering)
        return min(enabled, key=lambda t: (self._position.get(t.id, last), t.id))

    def ndet_value(self, t):
        u = t.kind.update
        if self.ndet_mode == "lo":
            return u.lo
        if self.ndet_mode == "hi":
            return u.hi
        return None


class Adversarial(Scheduler):
    """Greedy heuristic against a certificate: among enabled transitions,
    take the one with the largest expected value of the component ranking
    the current state; demonic intervals pick the endpoint maximizing
    that component at the target. A heuristic only, no worst-case claim.
    """

    def __init__(self, certificate: Certificate):
        self.certificate = certificate
        # filled on first use, per scheduler: (level, transition id) ->
        # max_pre of that component
        self._pre: Dict[Tuple[int, str], LinExpr] = {}

    def _max_pre(self, j: int, t) -> LinExpr:
        pre = self._pre.get((j, t.id))
        if pre is None:
            pre = self._pre[(j, t.id)] = max_pre(self.certificate.lem.component(j), t)
        return pre

    def choose(self, enabled, values, rng):
        j = max(self.certificate.levels.get(t.id, 0) for t in enabled)
        if j == 0:
            return enabled[0]
        return max(enabled, key=lambda t: (self._max_pre(j, t).evaluate(values), t.id))

    def ndet_value(self, t):
        j = self.certificate.levels.get(t.id, 0)
        if j == 0:
            return None
        return nondet_endpoint(self.certificate.lem.at(t.kind.dest, j), t.kind.update)


# -- the compiled program -------------------------------------------------------

# An integer form (terms, k) with terms ((i, a_i), ...) stands for
# k + sum a_i * x_i: a linear expression times a positive integer, so it
# has the sign of the expression. `integer_row` makes it, the expression's
# constant entering as the negated right-hand side.


def _canonical_form(e: LinExpr) -> Tuple[Tuple[tuple, int], int]:
    """((terms, k), flip): the integer form of `e` divided by the gcd of
    its integers, its terms sorted by variable and its first term (else
    its constant) made positive, so that proportional expressions share
    one form; `e` has the sign of the form times `flip`."""
    terms, rhs, _ = integer_row(e.coeffs, -e.constant)
    terms, k = sorted(terms.items()), -rhs
    flip = -1 if (terms[0][1] if terms else k) < 0 else 1
    g = math.gcd(k, *(a for _, a in terms)) * flip or 1
    return (tuple((i, a // g) for i, a in terms), k // g), flip


def _fractions(nums: Sequence[int], dens: Sequence[int]) -> List[Fraction]:
    return [Fraction(n, d) for n, d in zip(nums, dens)]


class _Edge:
    """One transition as `Program.runs` takes it: a probabilistic branch
    (`dest2` set) goes to `dest` when its draw m / 2**53 lies below
    p1 = pn / (pd * 2**53), else to `dest2`; a step without update
    (`target` None) goes to `dest`; any other step sets x[target] to
    (k + sum a_i x_i + s * sample) / scale. The sample is the m of one
    unit draw where `unit` is set, the 2**53 it is divided by being in
    `scale`: a uniform sample or a demonic interval, lo + (hi - lo) * m /
    2**53, unless the scheduler names the interval's value (`ndet`). Else
    `draw` gives it as an integer ratio, or there is none."""

    __slots__ = ("transition", "dest", "dest2", "pn", "pd", "target", "terms", "k", "s",
                 "scale", "unit", "draw", "ndet")

    def __init__(self, t: Transition):
        self.transition = t
        self.dest2 = self.target = self.draw = None
        k = t.kind
        if isinstance(k, ProbBranch):
            self.dest, self.dest2 = k.dest1, k.dest2
            self.pn, self.pd = k.p1.numerator << UNIT_BITS, k.p1.denominator
            return
        self.dest, u = k.dest, k.update
        self.ndet = isinstance(u, NondetUpdate)
        if self.ndet:
            coeffs, constant, coeff, lo, hi = {}, ZERO, ONE, u.lo, u.hi
        elif isinstance(u, ExprUpdate):
            coeffs, constant = u.base.coeffs, u.base.constant
            coeff, dist = u.sample if u.sample is not None else (ZERO, None)
            lo = hi = None
            if dist is not None and dist.kind is DistKind.UNIFORM:
                lo, hi = dist.param("lo"), dist.param("hi")
            elif dist is not None:
                self.draw = dist.drawer()
        else:
            return
        self.target = u.target
        self.unit = lo is not None
        # column -1 is the sample: coeff * (lo + (hi - lo) * m / 2**53) for a unit draw
        if self.unit:
            constant, coeff = constant + coeff * lo, coeff * (hi - lo) / (1 << UNIT_BITS)
        terms, rhs, self.scale = integer_row({**coeffs, -1: coeff}, -constant)
        self.s = terms.pop(-1, 0)
        self.terms, self.k = tuple(terms.items()), -rhs


class _Location:
    """A location's outgoing edges with the distinct canonical forms their
    guard atoms read. Each guard is a tuple of disjuncts, each a tuple of
    atoms (form index, flip, relation). An atom's truth depends only on
    its form's sign, so the edges enabled at a vector of form signs are
    decided once and kept in `enabled`."""

    __slots__ = ("name", "edges", "forms", "guards", "enabled")

    def __init__(self, name: str, edges: Sequence[_Edge]):
        index: Dict[tuple, int] = {}

        def atom(c):
            form, flip = _canonical_form(c.lhs)
            return index.setdefault(form, len(index)), flip, c.rel

        self.name = name
        self.edges = tuple(edges)
        self.guards = tuple(tuple(tuple(map(atom, d.constraints))
                                  for d in e.transition.guard().disjuncts)
                            for e in self.edges)
        self.forms: Tuple[Tuple[tuple, int], ...] = tuple(index)
        self.enabled: Dict[Tuple[int, ...], Tuple[_Edge, ...]] = {}

    def decide(self, signs: Tuple[int, ...]) -> Tuple[_Edge, ...]:
        """The edges enabled where the forms have `signs`, in edge order."""
        def holds(f, flip, rel):
            s = signs[f] * flip
            return s <= 0 if rel is Rel.LE else s < 0 if rel is Rel.LT else s == 0

        enabled = self.enabled[signs] = tuple(
            e for e, guard in zip(self.edges, self.guards)
            if any(all(holds(*a) for a in atoms) for atoms in guard))
        return enabled


class Program:
    """A pCFG compiled for simulation; see the module docstring. An
    edge's destinations are `_Location`s, and a location without
    outgoing edges enables none: runs there are stuck."""

    def __init__(self, p: PCFG):
        self.edges: Dict[str, _Edge] = {t.id: _Edge(t) for t in p.transitions}
        outgoing: Dict[str, list] = {}
        for t in p.transitions:
            outgoing.setdefault(t.source, []).append(self.edges[t.id])
        names = [p.init_location, p.terminal_location, *outgoing,
                 *(d for t in p.transitions for d in t.destinations())]
        self.locations = {loc: _Location(loc, outgoing.get(loc, ())) for loc in names}
        for e in self.edges.values():
            e.dest = self.locations[e.dest]
            if e.dest2 is not None:
                e.dest2 = self.locations[e.dest2]
        self.init = self.locations[p.init_location]
        self.terminal = self.locations[p.terminal_location]

    def run(self, start: Tuple[Sequence[int], Sequence[int]], sched: Scheduler,
            step_cap: int, rng, record_states: bool = True) -> "TrajectoryReport":
        """One run on `rng`; see `runs`."""
        return next(self.runs(start, sched, step_cap, [rng], record_states))

    def runs(self, start: Tuple[Sequence[int], Sequence[int]], sched: Scheduler,
             step_cap: int, rngs: Iterable, record_states: bool = True
             ) -> Iterator["TrajectoryReport"]:
        """One run from `start`, a state (numerators, denominators) as
        `_integer_state` gives it, on each generator of `rngs` in turn,
        yielded as its report; see `run_trajectory`. This loop holds all
        of a step's arithmetic: the guard forms' signs, the branch draw
        and the update, each value reduced by one gcd."""
        terminal = self.terminal
        edges = self.edges
        choice_draws = sched.choice_draws
        reads_values = sched.reads_values
        gcd = math.gcd
        for rng in rngs:
            site = self.init
            nums, dens = list(start[0]), list(start[1])
            states = [(site.name, _fractions(nums, dens))] if record_states else None
            taken: Optional[List[str]] = [] if record_states else None
            draws = steps = 0
            stuck = False
            while site is not terminal and steps < step_cap:
                signs = []
                for terms, k in site.forms:
                    if len(terms) == 1:
                        (i, a), = terms
                        num = a * nums[i] + k * dens[i]
                    else:
                        num, den = k, 1
                        for i, a in terms:
                            d = dens[i]
                            num = num * d + a * nums[i] * den
                            den *= d
                    signs.append((num > 0) - (num < 0))
                signs = tuple(signs)
                enabled = site.enabled.get(signs)
                if enabled is None:
                    enabled = site.decide(signs)
                if len(enabled) == 1:
                    e = enabled[0]
                elif enabled:
                    t = sched.choose([e.transition for e in enabled],
                                     _fractions(nums, dens) if reads_values else None, rng)
                    e = edges[t.id]
                    draws += choice_draws
                else:
                    stuck = True
                    break
                target = e.target
                if target is None:
                    if e.dest2 is None:
                        site = e.dest
                    else:
                        # m / 2**53 < p1
                        draws += 1
                        site = (e.dest if (rng.bit_generator.random_raw() >> 11) * e.pd < e.pn
                                else e.dest2)
                else:
                    if e.ndet and (value := sched.ndet_value(e.transition)) is not None:
                        nums[target], dens[target] = value.numerator, value.denominator
                    else:
                        num, den = e.k, 1
                        for i, a in e.terms:
                            d = dens[i]
                            num = num * d + a * nums[i] * den
                            den *= d
                        if e.unit:
                            num += e.s * (rng.bit_generator.random_raw() >> 11) * den
                            draws += 1
                        elif e.draw is not None:
                            n, d = e.draw(rng)
                            num = num * d + e.s * n * den
                            den *= d
                            draws += 1
                        den *= e.scale
                        g = gcd(num, den)
                        nums[target], dens[target] = num // g, den // g
                    site = e.dest
                steps += 1
                if record_states:
                    taken.append(e.transition.id)
                    states.append((site.name, _fractions(nums, dens)))
            yield TrajectoryReport(site is terminal, steps, stuck, site.name, nums, dens,
                                   taken, states, draws)


def _integer_state(values: Iterable) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """`values`, each read as a Fraction, as (numerators, denominators)."""
    values = [Fraction(v) for v in values]
    return tuple(v.numerator for v in values), tuple(v.denominator for v in values)


# -- trajectories ---------------------------------------------------------------


@dataclass
class TrajectoryReport:
    """One run's outcome. The final state is kept as it was run, each
    value's numerator in `final_nums` and its denominator (> 0, in lowest
    terms) in `final_dens`, so reports are equal exactly when their final
    values are; `final_values` builds the `Fraction`s at each read."""

    terminated: bool
    steps: int
    stuck: bool
    final_location: str
    final_nums: List[int]
    final_dens: List[int]
    taken: Optional[List[str]] = None
    states: Optional[List[Tuple[str, List[Fraction]]]] = None
    draws: int = 0

    @property
    def final_values(self) -> List[Fraction]:
        return _fractions(self.final_nums, self.final_dens)

    def as_dict(self) -> dict:
        return {"terminated": self.terminated, "steps": self.steps,
                "stuck": self.stuck, "final_location": self.final_location,
                "final_values": [str(v) for v in self.final_values],
                "draws": self.draws}


def run_trajectory(p: PCFG, init: Sequence[Fraction], sched: Scheduler,
                   step_cap: int, seed: int = 0, run_index: int = 0,
                   record_states: bool = True) -> TrajectoryReport:
    """One run from the initial location under the program's small-step
    semantics, on run `run_index`'s stream from `run_rngs`: stop at the
    terminal location, at the step cap, or when no transition is enabled
    (reported as stuck, never raised).

    With `record_states` the report lists the ids of the transitions taken
    and every state visited; without it, `taken` and `states` are `None`."""
    return Program(p).run(_integer_state(init), sched, step_cap,
                          next(run_rngs(seed, [run_index])), record_states)


def trajectories(p: PCFG, init: Sequence[Fraction], sched: Scheduler,
                 step_cap: int, seed: int, runs: Iterable[int]) -> Iterator[TrajectoryReport]:
    """The runs with the given indices, each on its own stream from
    `run_rngs` and without states or taken transitions, from one compiled
    program; the runs are yielded lazily."""
    return Program(p).runs(_integer_state(init), sched, step_cap, run_rngs(seed, runs),
                           record_states=False)


# -- aggregation -----------------------------------------------------------------


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> Tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


@dataclass
class TerminationEstimate:
    fraction: float
    interval: Tuple[float, float]
    runs: int
    terminated: int
    stuck: int
    mean_steps: float

    @staticmethod
    def of(reports: Iterable[TrajectoryReport]) -> "TerminationEstimate":
        """The estimate from `reports`, which must hold at least one run."""
        runs = terminated = stuck = steps = 0
        for r in reports:
            runs += 1
            terminated += r.terminated
            stuck += r.stuck
            steps += r.steps
        return TerminationEstimate(terminated / runs, wilson_interval(terminated, runs),
                                   runs, terminated, stuck, steps / runs)

    def as_dict(self) -> dict:
        return {"fraction": self.fraction,
                "wilson95": [self.interval[0], self.interval[1]],
                "runs": self.runs, "terminated": self.terminated,
                "stuck": self.stuck, "mean_steps": self.mean_steps}


def estimate_termination(p: PCFG, init: Sequence[Fraction], sched: Scheduler,
                         runs: int, step_cap: int = DEFAULT_ESTIMATE_CAP,
                         seed: int = 0) -> TerminationEstimate:
    """i.i.d. trajectory aggregate with seeded substreams; the result is a
    pure function of (program, init, scheduler, runs, cap, seed)."""
    if runs < 1:
        raise ValueError("need at least one run")
    return TerminationEstimate.of(trajectories(p, init, sched, step_cap, seed, range(runs)))


# -- the leftward-nonnegativity counterexample process -----------------------------


COUNTEREXAMPLE_ANALYTIC = 0.4224238098267952
"""Limit of 1 - prod_{t>=0}(1 - 2^-t/4), the probability that the
documented one-dimensional counterexample process ever takes its
down-step (equivalently, that it stops). Computed independently by
series summation; the classical coarse bound is 1/2."""

ANALYTIC_HORIZON = 200
"""Factors in `counterexample_analytic`'s partial product."""

CEX_HORIZON = 60
"""Steps after which `counterexample_process` truncates a run."""

CEX_MAX_RUNS = 2 ** 63 - 1
"""Most runs `counterexample_process` takes: its binomial draws count in
64-bit integers."""


def counterexample_analytic() -> Fraction:
    """Partial-product value of the stopping probability; the tail beyond
    `ANALYTIC_HORIZON` factors contributes less than 2**-(ANALYTIC_HORIZON-1)."""
    prod = Fraction(1)
    for t in range(ANALYTIC_HORIZON):
        prod *= 1 - Fraction(1, 4) / 2 ** t
    return 1 - prod


@dataclass
class CounterexampleReport:
    empirical: float
    runs: int
    horizon: int
    residual_bound: float

    def as_dict(self) -> dict:
        return {"empirical": self.empirical, "runs": self.runs,
                "analytic": COUNTEREXAMPLE_ANALYTIC,
                "horizon": self.horizon, "residual_bound": self.residual_bound}


def counterexample_process(seed: int, runs: int) -> CounterexampleReport:
    """Simulate the process that starts at 1, and while nonnegative at
    step t jumps down by 2/p_t with probability p_t = 2**-t/4, else up by
    1/(1-p_t). A down-step lands strictly below 0 (the climb is at most
    linear while the drop is exponential), so the process stops iff a
    down-step ever fires; runs are truncated at `CEX_HORIZON` steps,
    which leaves under sum_{t>CEX_HORIZON} p_t < 2**-(CEX_HORIZON+1)
    residual probability unaccounted.

    A run's step test is u < p_t with u = `rng.random()`, a multiple of
    2**-53, so it fires with probability q_t = max(p_t, 2**-53): exactly
    p_t for t <= 51, where p_t is such a multiple, and 2**-53 (only u = 0
    passes) for t = 52..60. `residual_bound` covers the truncation only,
    not this resolution. Runs are exchangeable, so only the number still
    going is kept: of `live` runs at step t, Binomial(live, q_t) stop.
    Step t = 0..CEX_HORIZON draws that count with one `rng.binomial` on
    the stream seeded on `seed`, and the steps end once no run is left.
    Time and memory depend on `CEX_HORIZON` only, not on `runs`, which
    must lie in 1..`CEX_MAX_RUNS`. The law of the result is that of one
    uniform per run and step, as drawn by earlier versions; the value for
    a given seed is not.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if runs > CEX_MAX_RUNS:
        raise ValueError(f"at most {CEX_MAX_RUNS} runs")
    rng = np.random.default_rng(seed)
    live = runs
    for t in range(CEX_HORIZON + 1):
        live -= int(rng.binomial(live, max(2.0 ** -t / 4, 2.0 ** -53)))
        if live == 0:
            break
    return CounterexampleReport((runs - live) / runs, runs, CEX_HORIZON,
                                float(2.0 ** (-CEX_HORIZON - 1)))


# -- dynamic audits ------------------------------------------------------------------


@dataclass
class InvariantViolation:
    run: int
    step: int
    location: str
    values: List[Fraction]

    def as_dict(self) -> dict:
        return {"run": self.run, "step": self.step, "location": self.location,
                "values": [str(v) for v in self.values]}


def audit_invariant(p: PCFG, inv: Invariant,
                    trajectories: Sequence[TrajectoryReport]) -> List[InvariantViolation]:
    """Exact refutation check: every visited state must satisfy the
    invariant. Violations disprove invariance; none found proves nothing.
    """
    out = []
    for run, traj in enumerate(trajectories):
        if traj.states is None:
            raise ValueError("trajectory was recorded without states")
        for step, (loc, values) in enumerate(traj.states):
            if not inv.at(loc).satisfied(values):
                out.append(InvariantViolation(run, step, loc, list(values)))
    return out
