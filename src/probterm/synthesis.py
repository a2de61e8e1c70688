"""Iterative synthesis of lexicographic ranking certificates.

Each iteration fixes one fresh linear template per location and solves a
single LP asking the template to (1) be nonnegative wherever an unranked
transition is enabled, (2) never increase in expectation across any
unranked transition, (3) have nonnegative one-step expectation across
unranked non-branching transitions, (4) have nonnegative expectation
across unranked probabilistic branches when restricted to already-ranked
successor states, and (5) decrease by eps_tau across as many unranked
transitions as possible, maximizing the sum of the eps variables. All
universally quantified conditions become existential multiplier systems
via the Farkas encoder, over `preexp.pre_and_bounds`: a demonic interval
assignment reads one more universally quantified variable, bounded to
the interval, each condition across it holding for every value the
scheduler may pick, as in the checker.

The LP encodes only the conditions that the others do not imply, as in
the eps-formulation of Agrawal, Chatterjee and Novotny (POPL 2018). (5)
asks for here - pre >= eps with eps >= 0, so its multipliers also serve
(2), which is never encoded. A non-branching transition encodes (3) and
(5) over the same antecedent; their multipliers added together serve (1)
as here >= eps, since the bounds of a demonic variable, which here does
not read, add a multiple of hi - lo >= 0 (the model refuses an empty
interval). So (1) is encoded only for a probabilistic branch,
which has no (3). The LP has about half the rows, and its projection
onto the template and eps columns, hence every optimum, is the same.

One synthesis run solves many LPs, one per iteration and, in general
mode, one per attempt, and most transitions keep their side conditions
from one LP to the next. A transition's frame is the template columns,
one per variable and the constant, of each distinct location among its
source and destinations, then its eps. Its side conditions are encoded
once per run, straight into the integer rows of a `farkas.Block`, whose
first columns stand for the frame and the rest for the block's
multipliers, each row written once; the block is keyed by the transition
and, for a probabilistic branch, the unranked transitions leaving its
targets. Every iteration LP places each block it needs over its own
frame, with fresh multipliers, so it is exactly the LP a cold encoding
would build. This module chooses what to encode, screens the
antecedents, memoises the blocks and builds the frames; `farkas` owns
the rows. An antecedent is screened only when a block is encoded, once
for all the consequents it carries there; a placement screens none.

Every optimum sets each eps to 0 or 1: the rows are homogeneous but
for `eps <= 1` and a forced `eps = 1`, and lowering an eps keeps every
row that reads it satisfied, so the sum of one feasible point per
rankable transition, each eps then cut to 1, is optimal. The template
at the optimum 1-ranks exactly its eps = 1 set, unscaled: by additivity
of ranking maps, the unique maximal rankable set, which is what makes
the bounded-support procedure a decision procedure of minimal dimension.

Programs that sample from unbounded-support distributions go through the
general procedure, the same loop with other attempts: templates first
keep a zero coefficient, a `c = 0` row, on every variable written by an
unbounded-sampling transition at that transition's target; when no
progress is possible, an iteration unlocks one such coefficient at a
time (each once), forcing the unlocked transition (and every other
unbounded-sampling transition into the same target) to be 1-ranked by
the new component, and the certificate is not raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .farkas import Block, LPProblem, check_feasible, encode_implication, solve_lp
from .linear import LinExpr, Polyhedron
from .model import (Certificate, CertificateMode, Invariant, LevelMap,
                    LinExprMap, PCFG, Transition, check_bsp, check_linpp_star)
from .preexp import pre_and_bounds, pre_pb_restricted
from .simplex import IntRow, LPStatus, RowRel

ZERO = Fraction(0)
MINUS_ONE = Fraction(-1)


# (transition id, the unranked transitions leaving its branch targets)
# -> its block, the same object in every LP of a run that needs it
BlockMemo = Dict[Tuple[str, frozenset], Block]


class NotLinPPStar(Exception):
    """A probabilistic branch and a sampling transition share a target."""


class MissingBoundedSupport(Exception):
    """The bounded-support procedure was invoked on an unbounded program."""


@dataclass(frozen=True)
class TemplateRestriction:
    """Rows that one iteration's LP adds after its blocks, which never read it."""
    zero_coeffs: frozenset = frozenset()   # {(location, var index)} pinned to 0
    forced_rank: frozenset = frozenset()   # {transition id} with eps == 1


@dataclass
class SynthesisLP:
    """One iteration's LP plus the bookkeeping to read a component back."""
    lp: LPProblem
    # location -> its template columns: one per variable, then the constant
    columns: Dict[str, range]
    eps: Dict[str, int]             # unranked transition id -> its eps column
    dropped_implications: int = 0
    emitted_implications: int = 0

    def frame(self, t: Transition) -> List[int]:
        """The columns that the side conditions of `t` read: the template
        columns of each distinct location among its source and
        destinations, then its eps."""
        return [k for loc in dict.fromkeys((t.source, *t.destinations()))
                for k in self.columns[loc]] + [self.eps[t.id]]

    def component_at(self, x: List[Fraction]) -> Dict[str, LinExpr]:
        """The templates at the LP point `x`."""
        return {loc: LinExpr({i: x[k] for i, k in enumerate(cols[:-1])}, x[cols[-1]])
                for loc, cols in self.columns.items()}


def build_lp(p: PCFG, inv: Invariant, unranked: List[str],
             restrict: TemplateRestriction = TemplateRestriction(), *,
             blocks: Optional[BlockMemo] = None) -> SynthesisLP:
    """Assemble the LP for one iteration over the `unranked` transition
    ids. Antecedent disjuncts that fail the exact feasibility screen are
    dropped (their implications are vacuous); a transition all of whose
    antecedents drop has an unconstrained eps and is ranked for free.

    `blocks` memoises the encoded side conditions of a whole synthesis
    run, which passes the same memo to every iteration; without it, a
    fresh memo serves this call alone. A block is keyed by what its
    encoding reads: the transition and, for a probabilistic branch, the
    unranked transitions leaving its targets; it screens each antecedent
    once. Every block, fresh or memoised, is replayed over this LP's
    frame of the transition with fresh multipliers, so the LP is the one
    a cold encoding would build, term for term. `restrict` reaches no
    block: one `c = 0` row per pinned coefficient, in column order,
    follows the blocks, then the eps rows, `eps = 1` if forced.
    """
    if not unranked:
        raise ValueError("no unranked transitions left")
    if blocks is None:
        blocks = {}
    lp = LPProblem()
    width = len(p.variables) + 1
    columns = {loc: range(k * width, (k + 1) * width) for k, loc in enumerate(p.locations)}
    for loc in p.locations:
        for vname in p.variables:
            lp.add_var(f"c[{loc}][{vname}]")
        lp.add_var(f"c[{loc}].const")

    unranked_set = set(unranked)
    order = [t for t in p.transitions if t.id in unranked_set]
    out = SynthesisLP(lp, columns,
                      {t.id: lp.add_var(f"eps[{t.id}]", nonneg=True) for t in order})
    for t in order:
        open_ids = frozenset(u.id for loc in t.destinations() for u in p.outgoing(loc)
                             if u.id in unranked_set) if t.is_pb else frozenset()
        block = blocks.get((t.id, open_ids))
        if block is None:
            block = blocks[t.id, open_ids] = _encode(p, inv, t, open_ids)
        block.replay(lp, out.frame(t))
        out.dropped_implications += block.dropped
        out.emitted_implications += block.emitted

    for k in sorted(columns[loc][i] for loc, i in restrict.zero_coeffs):
        lp.add_row({k: 1}, 0, 1, RowRel.EQ)
    for tid, k in out.eps.items():
        lp.add_row({k: 1}, 1, 1, RowRel.LE)
        if tid in restrict.forced_rank:
            lp.add_row({k: 1}, 1, 1, RowRel.EQ)
    lp.objective = IntRow({k: 1 for k in out.eps.values()}, 0, 1)
    return out


def _encode(p: PCFG, inv: Invariant, t: Transition, open_ids: frozenset) -> Block:
    """The side conditions of transition `t` that the LP encodes (see the
    module docstring), encoded straight into the rows of a block, whose
    first columns stand for the positions of `t`'s frame. `open_ids`, the
    memo key's second half, is all that (4) reads of the unranked set."""
    position = itertools.count()
    templates = {loc: LinExpr.owning({i: LinExpr.var(next(position)) for i in range(len(p.variables))},
                                     LinExpr.var(next(position)))
                 for loc in dict.fromkeys((t.source, *t.destinations()))}
    eps = next(position)
    block = Block(eps + 1)

    def emit(antecedent: Polyhedron, consequents: List[Tuple[LinExpr, str]]) -> None:
        """Encode `antecedent` implies each (expression >= 0, tag) in turn,
        or drop them all when the antecedent is infeasible."""
        if not check_feasible(antecedent)[0]:
            block.dropped += len(consequents)
            return
        for expr, tag in consequents:
            encode_implication(antecedent, expr, block, tag=tag)
        block.emitted += len(consequents)

    pre, bounds = pre_and_bounds(len(p.variables), templates, t)
    here = templates[t.source]
    # (1) nonnegative where enabled for a branch, (3) nonnegative one-step
    # expectation for any other transition, then (5) decrease by eps. As
    # eps >= 0, the multipliers of (5) serve (2), and those of (3) and (5)
    # added together serve (1) as here >= eps. So nothing emits (2), and
    # only a branch, which reads no demonic bounds, emits (1).
    first = (here, f"nn.{t.id}") if t.is_pb else (pre, f"en.{t.id}")
    stepped = [first, ((here - pre).shift(LinExpr.owning({eps: MINUS_ONE}, ZERO)), f"rk.{t.id}")]
    for ante in inv.antecedents(t):
        emit(ante.conjoin(bounds), stepped)
    # (4) restricted expectation across unranked probabilistic branches,
    # over the successor states where no unranked transition is enabled
    if t.is_pb:
        for ctx, expr in pre_pb_restricted(p, templates, t, open_ids):
            for ante in inv.antecedents(t, ctx):
                emit(ante, [(expr, f"eb.{t.id}")])
    return block


# -- the iterative loop -------------------------------------------------------


@dataclass
class IterationRecord:
    index: int
    unranked_before: List[str]
    ranked: List[str]
    lp_unknowns: int
    lp_constraints: int
    objective: Optional[Fraction]
    tau0: Optional[str] = None

    def as_dict(self) -> dict:
        return {"iteration": self.index,
                "unranked": len(self.unranked_before),
                "lp_unknowns": self.lp_unknowns,
                "lp_constraints": self.lp_constraints,
                "objective": None if self.objective is None else str(self.objective),
                "ranked": self.ranked,
                "tau0": self.tau0}


@dataclass
class SynthesisResult:
    certificate: Optional[Certificate]
    history: List[IterationRecord]
    failure: Optional[str] = None
    first_lp: Optional[LPProblem] = None   # whose optimum gave component 1

    @property
    def found(self) -> bool:
        return self.certificate is not None


ProgressFn = Callable[[dict], None]
# the unranked transitions -> the (restriction, tau0) of each LP to try, in order
Attempts = Callable[[List[str]], Iterable[Tuple[TemplateRestriction, Optional[str]]]]


def extract_level_map(p: PCFG, history: List[IterationRecord]) -> LevelMap:
    """Transition level = index of the iteration that ranked it; terminal
    self-loops sit at level 0."""
    levels: LevelMap = {}
    for rec in history:
        for tid in rec.ranked:
            levels[tid] = rec.index
    for t in p.transitions:
        if t.source == p.terminal_location:
            levels[t.id] = 0
    return levels


def _iterate(p: PCFG, inv: Invariant, attempts: Attempts, progress: ProgressFn | None,
             mode: CertificateMode, support_bound: Fraction, failure: str) -> SynthesisResult:
    """The synthesis loop of both procedures. Each iteration solves the
    LPs of `attempts` in order and keeps the first whose optimum ranks a
    transition: its template, which 1-ranks the eps = 1 set (every eps
    is 0 or 1 at an optimum), is the next component. Once every
    transition is ranked, the certificate raises each component by
    2 * support_bound * max|coefficient|; when an iteration ranks none,
    the result is `failure`. One block memo serves every LP of the run.
    The simplex raises PivotCapReached when an LP, or one of its
    feasibility screens, hits the pivot cap: a capped LP has no answer,
    so it cannot show that nothing ranks."""
    unranked = [t.id for t in p.non_terminal_transitions()]
    components: List[Dict[str, LinExpr]] = []
    history: List[IterationRecord] = []
    blocks: BlockMemo = {}
    first_lp: Optional[LPProblem] = None
    while unranked:
        for restrict, tau0 in attempts(unranked):
            slp = build_lp(p, inv, unranked, restrict, blocks=blocks)
            sol = solve_lp(slp.lp)
            if sol.status is LPStatus.OPTIMAL:
                eps = {tid: sol.x[k] for tid, k in slp.eps.items()}
                ranked = [tid for tid in unranked if eps[tid] == 1]
                if ranked:
                    break
        else:
            return SynthesisResult(None, history, failure)
        components.append(slp.component_at(sol.x))
        if first_lp is None:
            first_lp = slp.lp
        record = IterationRecord(len(history) + 1, unranked, ranked, slp.lp.num_vars(),
                                 slp.lp.num_constraints(), sol.value, tau0)
        history.append(record)
        unranked = [tid for tid in unranked if eps[tid] != 1]
        if progress:
            progress(record.as_dict())
    lem = LinExprMap(len(components), {loc: [comp[loc] for comp in components]
                                       for loc in p.locations})
    shift = 2 * support_bound * lem.max_abs_coeff()
    if shift:
        lem = lem.shifted(shift)
    return SynthesisResult(Certificate(lem, extract_level_map(p, history), shift, mode),
                           history, first_lp=first_lp)


def synthesize_bsp(p: PCFG, inv: Invariant,
                   progress: ProgressFn | None = None) -> SynthesisResult:
    """Decision procedure for programs whose distributions all have
    bounded support: returns a complete certificate or the definitive
    answer that none exists for this invariant.

    On success every component is raised by 2*N*max|coefficient| with N
    the bound `check_bsp` gives, which covers every sampled term and
    demonic value and turns the weak expectation conditions established
    by the LPs into the unrestricted ones the certificate promises.
    """
    bounded, support_bound = check_bsp(p)
    if not bounded:
        raise MissingBoundedSupport("program samples from an unbounded-support "
                                    "distribution; use the general procedure")
    return _iterate(p, inv, lambda unranked: [(TemplateRestriction(), None)], progress,
                    CertificateMode.BSP_COMPLETE, support_bound,
                    "an iteration ranked no transition: no linear certificate "
                    "of this shape exists for the given invariant")


def synthesize_general(p: PCFG, inv: Invariant,
                       progress: ProgressFn | None = None) -> SynthesisResult:
    """Sound procedure for programs that may sample from unbounded-support
    distributions (requires that no probabilistic branch shares a target
    location with a sampling transition).

    A returned certificate witnesses the side conditions (including the
    zero-coefficient discipline for unbounded-sampling targets) from
    which termination with probability one follows; absence of a
    certificate means "unknown", not non-termination.
    """
    if not check_linpp_star(p):
        raise NotLinPPStar("a probabilistic branch and a sampling transition "
                           "share a target location")
    # unbounded-sampling transition -> the (target, variable) it pins
    pins = {t.id: (t.kind.dest, t.kind.update.target)
            for t in p.non_terminal_transitions() if t.samples_unbounded()}

    def attempts(unranked: List[str]):
        # the zero-coefficient discipline first, then each tau0 unlocked;
        # a tau0 whose pin an earlier one unlocked would repeat its LP
        here = {tid: pin for tid, pin in pins.items() if tid in unranked}
        zeros = frozenset(here.values())
        yield TemplateRestriction(zero_coeffs=zeros), None
        unlocks: Dict[Tuple[str, int], str] = {}
        for tid, pin in here.items():
            unlocks.setdefault(pin, tid)
        for (target, var), tau0 in unlocks.items():
            cohort = frozenset(tid for tid, (dest, _) in here.items() if dest == target)
            yield TemplateRestriction(zero_coeffs=zeros - {(target, var)},
                                      forced_rank=cohort), tau0

    return _iterate(p, inv, attempts, progress, CertificateMode.GENERAL_SOUND, ZERO,
                    "no component can rank further transitions under the "
                    "zero-coefficient discipline")
