"""One-step pre-expectation of ranking-map components.

For a component eta (one linear expression per location) and a transition
tau, the pre-expectation is the expected value of eta right after
executing tau, as a function of the pre-state variables. A demonic
interval assignment enters it as one more variable, bounded to the
interval, so a side condition over the pre-expectation and its bounds
holds for every value the scheduler may pick: in a decrease condition
it bounds the supremum, in a nonnegativity one the infimum.

The checker, synthesis and the adversarial scheduler share this one
algebra. The checker applies it to concrete components with rational
coefficients; synthesis applies it to templates, whose coefficients are
`LinExpr`s over the columns of the block of rows that encodes one
transition, which stand for its frame. A demonic interval needs no
endpoint chosen by the sign of a coefficient, which synthesis could not
do for an unknown one.

This module also owns the restriction set of a probabilistic branch: the
successor states where no still-open transition is enabled. Synthesis
opens its unranked transitions, the checker those at or above the level
of the component it checks. `pre_pb_restricted` negates the union U of
the open guards at each branch target once, into the restriction set G,
and splits the branch's pre-expectation over G and U.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Tuple

from .linear import LinConstraint, LinExpr, Polyhedron, Predicate, negate_predicate
from .model import NondetUpdate, NoUpdate, PCFG, ProbBranch, Transition

ComponentMap = Dict[str, LinExpr]  # location -> linear expression


def pre_and_bounds(nvars: int, eta: ComponentMap,
                   t: Transition) -> Tuple[LinExpr, Polyhedron]:
    """The pre-expectation of `eta` across `t`, as a function of the
    pre-state variables, and the bounds on the demonic value it reads.

    A probabilistic branch averages its destinations and a sampling
    update substitutes the distribution's mean; both are bounded by
    nothing. A demonic interval assignment reads variable `nvars`, bounded
    to [lo, hi]: over the bounds, the pre-expectation ranges over every
    value the scheduler may pick.
    """
    if isinstance(t.kind, ProbBranch):
        k = t.kind
        return eta[k.dest1].scale(k.p1) + eta[k.dest2].scale(k.p2), Polyhedron.true()
    dest, update = eta[t.kind.dest], t.kind.update
    if isinstance(update, NoUpdate):
        return dest, Polyhedron.true()
    if isinstance(update, NondetUpdate):
        y = LinExpr.var(nvars)
        return (dest.substitute(update.target, y),
                Polyhedron([LinConstraint.le(LinExpr.const(update.lo) - y),
                            LinConstraint.le(y - LinExpr.const(update.hi))]))
    rhs = update.base
    if update.sample is not None:
        coeff, dist = update.sample
        rhs = rhs.shift(coeff * dist.mean)
    return dest.substitute(update.target, rhs), Polyhedron.true()


def pre_pb_restricted(p: PCFG, eta: ComponentMap, tau: Transition,
                      open_ids: Collection[str]) -> List[Tuple[Predicate, LinExpr]]:
    """Case split of the pre-expectation of the probabilistic branch `tau`
    restricted to the successor states where no transition whose id is in
    `open_ids` is enabled.

    At each branch target, U is the union of the guards of its open
    outgoing transitions (`false` when none is open), and its one
    negation G is the restriction set. The restricted pre-expectation is

        G1 and G2  ->  p1*eta(dest1) + p2*eta(dest2)
        G1 and U2  ->  p1*eta(dest1)
        U1 and G2  ->  p2*eta(dest2)

    and 0 on the remaining case. Cases whose context is syntactically
    `false` are omitted (restriction over an empty successor set).
    """
    if not isinstance(tau.kind, ProbBranch):
        raise ValueError(f"transition {tau.id} is not a probabilistic branch")
    k = tau.kind
    u1, u2 = (Predicate([d for t in p.outgoing(loc) if t.id in open_ids
                         for d in t.guard().disjuncts])
              for loc in (k.dest1, k.dest2))
    g1, g2 = negate_predicate(u1), negate_predicate(u2)
    cases = [
        (g1.conjoin(g2), eta[k.dest1].scale(k.p1) + eta[k.dest2].scale(k.p2)),
        (g1.conjoin(u2), eta[k.dest1].scale(k.p1)),
        (u1.conjoin(g2), eta[k.dest2].scale(k.p2)),
    ]
    return [(ctx, e) for ctx, e in cases if not ctx.is_false()]
