r"""Independent certificate verification.

Re-derives, transition by transition, the side conditions that make a
(program, invariant, certificate) triple a valid termination witness,
discharging every universally quantified inequality through the exact
entailment oracle. No code is shared with synthesis beyond the domain
types, the pre-expectation algebra and the entailment backend, so a bug
in the synthesis LP cannot vouch for itself.

Checked per transition tau at level j >= 1, on every satisfiable
disjunct of invariant /\ guard:

  decrease           expected value of component j after tau <= value - 1
  unaffected         components j' < j do not increase in expectation
  nonneg             components j' <= j are nonnegative at the source
  expected-nonneg    minimal one-step expectation of components j' <= j is
                     nonnegative; for probabilistic branches restricted to
                     successor states whose enabled transitions all have
                     level < j' (three-case split on the branch targets)
  sampling-coeff-zero  (general mode) components left of j keep a zero
                     coefficient on the variable written by an
                     unbounded-support sampling transition, at its target
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .farkas import entails
from .linear import LinExpr
from .model import (Certificate, CertificateMode, Invariant, PCFG, check_bsp,
                    check_linpp_star)
from .preexp import max_pre, min_pre, pre_pb_restricted


class StructuralMismatch(Exception):
    """Certificate does not structurally fit the program."""


@dataclass
class ConditionReport:
    transition: str
    condition: str
    component: int
    status: str                       # "ok" | "violated"
    counterexample: Optional[Dict[str, str]] = None

    def as_dict(self) -> dict:
        out = {"transition": self.transition, "condition": self.condition,
               "component": self.component, "status": self.status}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class CheckReport:
    accepted: bool
    mode: str
    conditions: List[ConditionReport]
    meaning: str

    @property
    def violations(self) -> List[ConditionReport]:
        return [c for c in self.conditions if c.status == "violated"]

    def as_dict(self) -> dict:
        return {"verdict": "accepted" if self.accepted else "rejected",
                "mode": self.mode,
                "meaning": self.meaning,
                "conditions": [c.as_dict() for c in self.conditions]}


_MEANING = {
    CertificateMode.BSP_COMPLETE:
        "all side conditions verified; the map (shift already applied) is a "
        "linear lexicographic ranking certificate, so the program terminates "
        "with probability 1 under every scheduler",
    CertificateMode.GENERAL_SOUND:
        "all side conditions verified; they imply the existence of a "
        "piecewise-linear ranking certificate and hence termination with "
        "probability 1. The piecewise map itself is not constructed: its "
        "cutoff constant depends on distribution tail mass that the program "
        "text does not determine, so this step is accepted from theory",
}


def structural_check(p: PCFG, c: Certificate) -> None:
    """Raise StructuralMismatch unless `c` has the shape of a certificate for `p`."""
    missing = [loc for loc in p.locations if loc not in c.lem.components]
    if missing:
        raise StructuralMismatch(f"certificate has no components at {missing}")
    nvars = len(p.variables)
    for loc, vec in c.lem.components.items():
        if loc not in p.locations:
            raise StructuralMismatch(f"certificate mentions unknown location {loc!r}")
        for e in vec:
            bad = [i for i in e.coeffs if not 0 <= i < nvars]
            if bad:
                raise StructuralMismatch(f"component at {loc} uses variable index {bad[0]}")
    tids = {t.id for t in p.transitions}
    for tid in c.levels:
        if tid not in tids:
            raise StructuralMismatch(f"level map mentions unknown transition {tid!r}")
    for t in p.transitions:
        lvl = c.levels.get(t.id)
        if lvl is None:
            raise StructuralMismatch(f"transition {t.id} has no level")
        if not 0 <= lvl <= c.dimension:
            raise StructuralMismatch(f"level {lvl} of {t.id} outside 0..{c.dimension}")
        is_terminal_loop = (t.source == p.terminal_location
                            and t.destinations() == [t.source])
        if is_terminal_loop != (lvl == 0):
            raise StructuralMismatch(
                f"level 0 is reserved for terminal self-loops (transition {t.id})")


def check_certificate(p: PCFG, inv: Invariant, c: Certificate) -> CheckReport:
    """Full verification; raises StructuralMismatch for shape errors and
    otherwise reports every checked condition with an exact counterexample
    point for each violation."""
    structural_check(p, c)
    conditions: List[ConditionReport] = []

    def names(witness: Optional[Dict[int, Fraction]]) -> Optional[Dict[str, str]]:
        if witness is None:
            return None
        return {p.variables[i]: str(v) for i, v in witness.items()
                if 0 <= i < len(p.variables)}

    def record(tid: str, cond: str, comp: int, ok: bool, witness=None) -> None:
        conditions.append(ConditionReport(tid, cond, comp,
                                          "ok" if ok else "violated",
                                          None if ok else names(witness)))

    if c.mode is CertificateMode.BSP_COMPLETE:
        bounded, _ = check_bsp(p)
        record("*", "program-shape", 0, bounded)
    else:
        record("*", "program-shape", 0, check_linpp_star(p))

    comps = {jp: c.lem.component(jp) for jp in range(1, c.dimension + 1)}
    for t in p.non_terminal_transitions():
        j = c.levels[t.id]
        decrease = comps[j][t.source] - max_pre(comps[j], t) - LinExpr.const(1)
        unaffected = [comps[jp][t.source] - max_pre(comps[jp], t) for jp in range(1, j)]
        expected = [] if t.is_pb else [min_pre(comps[jp], t) for jp in range(1, j + 1)]
        for ante in inv.antecedents(t):
            ok, w = entails(ante, decrease)
            record(t.id, "decrease", j, ok, w)
            for jp, e in enumerate(unaffected, 1):
                ok, w = entails(ante, e)
                record(t.id, "unaffected", jp, ok, w)
            for jp in range(1, j + 1):
                ok, w = entails(ante, comps[jp][t.source])
                record(t.id, "nonneg", jp, ok, w)
            for jp, e in enumerate(expected, 1):
                ok, w = entails(ante, e)
                record(t.id, "expected-nonneg", jp, ok, w)
        if t.is_pb:
            for jp in range(1, j + 1):
                # successor states where every enabled transition has level < jp
                open_ids = {u.id for u in p.transitions if c.levels[u.id] >= jp}
                for ctx, expr in pre_pb_restricted(p, comps[jp], t, open_ids):
                    for ante in inv.antecedents(t, ctx):
                        ok, w = entails(ante, expr)
                        record(t.id, "expected-nonneg", jp, ok, w)
        if c.mode is CertificateMode.GENERAL_SOUND and t.samples_unbounded():
            target = t.kind.dest
            var = t.kind.update.target
            for jp in range(1, j):
                coeff = c.lem.at(target, jp).coeff(var)
                ok = coeff == 0
                conditions.append(ConditionReport(
                    t.id, "sampling-coeff-zero", jp, "ok" if ok else "violated",
                    None if ok else {p.variables[var]: f"coefficient {coeff} at {target}"}))

    conditions.sort(key=lambda r: (r.transition, r.condition, r.component))
    accepted = all(r.status == "ok" for r in conditions)
    return CheckReport(accepted, c.mode.value, conditions,
                       _MEANING[c.mode] if accepted else "certificate rejected")
