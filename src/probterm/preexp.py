"""One-step pre-expectation of ranking-map components.

For a component eta (one linear expression per location) and a transition
tau, the maximal/minimal pre-expectation is the expected value of eta
right after executing tau, with demonic interval assignments resolved to
the worst/best endpoint.

The checker and synthesis share this algebra. The checker applies it to
concrete components with rational coefficients; synthesis applies it to
templates, whose coefficients are `LinExpr`s over the columns of the
block of rows that encodes one transition, which stand for its frame.
Only a demonic interval stays outside it in synthesis: an endpoint cannot
be chosen by the sign of an unknown coefficient, so synthesis substitutes
a universally quantified variable bounded to the interval instead.

This module also owns the restriction set of a probabilistic branch: the
successor states where no still-open transition is enabled. Synthesis
opens its unranked transitions, the checker those at or above the level
of the component it checks. `pre_pb_restricted` negates the union U of
the open guards at each branch target once, into the restriction set G,
and splits the branch's pre-expectation over G and U.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Dict, List, Tuple

from .linear import LinExpr, Predicate, negate_predicate
from .model import (ExprUpdate, NondetUpdate, NoUpdate, PCFG, ProbBranch,
                    Transition)

ComponentMap = Dict[str, LinExpr]  # location -> linear expression


def _expr_pre(eta_dest: LinExpr, update) -> LinExpr:
    if isinstance(update, NoUpdate):
        return eta_dest
    assert isinstance(update, ExprUpdate)
    rhs = update.base
    if update.sample is not None:
        coeff, dist = update.sample
        rhs = rhs.shift(coeff * dist.mean)
    return eta_dest.substitute(update.target, rhs)


def nondet_endpoint(eta_dest: LinExpr, update: NondetUpdate,
                    maximize: bool = True) -> Fraction:
    """The endpoint of the demonic interval of `update` that maximizes
    (or minimizes) `eta_dest`: `hi` when its coefficient on the target is
    nonnegative, else `lo` (the other way round when minimizing)."""
    rising = eta_dest.coeff(update.target) >= 0
    return update.hi if rising == maximize else update.lo


def _pre(eta: ComponentMap, tau: Transition, maximize: bool) -> LinExpr:
    if isinstance(tau.kind, ProbBranch):
        k = tau.kind
        return eta[k.dest1].scale(k.p1) + eta[k.dest2].scale(k.p2)
    step = tau.kind
    dest = eta[step.dest]
    if isinstance(step.update, NondetUpdate):
        endpoint = nondet_endpoint(dest, step.update, maximize)
        return dest.substitute(step.update.target, LinExpr.const(endpoint))
    return _expr_pre(dest, step.update)


def max_pre(eta: ComponentMap, tau: Transition) -> LinExpr:
    """Maximal pre-expectation of `eta` across `tau`, as a function of the
    pre-state variables.

    Probabilistic branches average the destination components; sampling
    updates substitute the distribution's mean; demonic intervals resolve
    to the endpoint maximizing the component.
    """
    return _pre(eta, tau, maximize=True)


def min_pre(eta: ComponentMap, tau: Transition) -> LinExpr:
    """As `max_pre` but demonic intervals resolve to the minimizing
    endpoint; identical to `max_pre` for all other transition shapes."""
    return _pre(eta, tau, maximize=False)


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
