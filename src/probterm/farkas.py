"""Farkas-lemma encoding and polyhedral queries.

Every side condition takes one form: an antecedent polyhedron implies
e >= 0 for a linear expression e. Synthesis discharges it by duality:
with the antecedent as  A x <= b  and the consequent as  c(x) + d >= 0
(c, d affine in the template unknowns), the implication holds, whenever
the antecedent is satisfiable, exactly when nonnegative multipliers lam
exist with  lam^T A = -c  and  lam^T b <= d.  Strict inequalities follow
the standard protocol: if the antecedent is infeasible with stricts
honored the implication is vacuous and dropped, otherwise its stricts
read as non-strict, since the encoder uses only each row's left-hand
side.

There is one polyhedral query, and it is exact too. `check_feasible`
decides whether a polyhedron has a rational point: a row without
variables is decided by its constant, with no LP, and the rest go into
one LP that honors strict rows through a shared slack. Synthesis screens
antecedents with it. `entails(p, e)`, the checker's oracle, asks it for a
point of p where e < 0, which is the counterexample when there is one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .linear import LinConstraint, LinExpr, Polyhedron, Rel, ResourceLimit
from .rationals import rat, RationalLike
from . import simplex
from .simplex import LPStatus, RowRel

ZERO = Fraction(0)
ONE = Fraction(1)


class PivotCapReached(ResourceLimit):
    """A polyhedral query's LP hit the simplex pivot cap."""


class Affine:
    """Linear form over named LP unknowns plus a rational constant; as a
    `LinExpr` coefficient it makes that expression a synthesis template."""

    __slots__ = ("terms", "const")

    def __init__(self, terms: Dict[str, Fraction] | None = None,
                 const: RationalLike = ZERO):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}
        self.const = rat(const)

    @staticmethod
    def of(name: str, coeff: RationalLike = 1) -> "Affine":
        return Affine({name: rat(coeff)})

    @staticmethod
    def constant(value: RationalLike) -> "Affine":
        return Affine({}, value)

    @staticmethod
    def owning(terms: Dict[str, Fraction], const: Fraction) -> "Affine":
        """An Affine that takes `terms`, a dict of nonzero Fractions that
        no other Affine holds, as its own, and `const`, a Fraction, as it
        is: no copy, no coercion, no zero test."""
        a = Affine.__new__(Affine)
        a.terms = terms
        a.const = const
        return a

    def __add__(self, other: "Affine | Fraction") -> "Affine":
        if not isinstance(other, Affine):
            return Affine(self.terms, self.const + other)
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, ZERO) + v
        return Affine(t, self.const + other.const)

    def __sub__(self, other: "Affine | Fraction") -> "Affine":
        if not isinstance(other, Affine):
            return Affine(self.terms, self.const - other)
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t[k] - v if k in t else -v
        return Affine(t, self.const - other.const)

    def __neg__(self) -> "Affine":
        return Affine.owning({k: -v for k, v in self.terms.items()}, -self.const)

    def __rsub__(self, other: Fraction) -> "Affine":
        return -self + other

    __radd__ = __add__

    def scale(self, f: RationalLike) -> "Affine":
        f = rat(f)
        if f == 1:
            return Affine.owning(dict(self.terms), self.const)
        if f == -1:
            return -self
        return Affine({k: v * f for k, v in self.terms.items()}, self.const * f)

    __mul__ = __rmul__ = scale

    def __bool__(self) -> bool:
        return bool(self.terms) or self.const != 0

    def value(self, assignment: Dict[str, Fraction]) -> Fraction:
        return self.const + sum((v * assignment[k] for k, v in self.terms.items()), ZERO)

    def __repr__(self):
        return f"Affine({self.terms}, {self.const})"


@dataclass
class LPConstraint:
    form: Affine            # form rel 0
    rel: RowRel


@dataclass
class LPProblem:
    """An LP over named unknowns; objective is always maximized.

    Unknowns registered nonnegative keep a >= 0 bound (all Farkas
    multipliers do); the rest are free.
    """
    names: List[str] = field(default_factory=list)
    nonneg: List[bool] = field(default_factory=list)
    constraints: List[LPConstraint] = field(default_factory=list)
    objective: Affine = field(default_factory=Affine)
    _index: Dict[str, int] = field(default_factory=dict)
    _fresh: itertools.count = field(default_factory=itertools.count)

    def add_var(self, name: str, nonneg: bool = False) -> str:
        if name in self._index:
            raise ValueError(f"unknown {name!r} already registered")
        self._index[name] = len(self.names)
        self.names.append(name)
        self.nonneg.append(nonneg)
        return name

    def fresh_multiplier(self, tag: str = "lam") -> str:
        return self.add_var(f"{tag}.{next(self._fresh)}", nonneg=True)

    def add_constraint(self, form: Affine, rel: RowRel) -> None:
        for name in form.terms:
            if name not in self._index:
                raise KeyError(f"unregistered unknown {name!r}")
        self.constraints.append(LPConstraint(form, rel))

    def num_vars(self) -> int:
        return len(self.names)

    def num_constraints(self) -> int:
        return len(self.constraints)


@dataclass
class LPSolution:
    status: LPStatus
    assignment: Optional[Dict[str, Fraction]] = None
    value: Optional[Fraction] = None
    pivots: int = 0


def solve_lp(lp: LPProblem, pivot_cap: int = simplex.DEFAULT_PIVOT_CAP) -> LPSolution:
    """Exact optimum of the named LP; deterministic for identical input."""
    rows = []
    for c in lp.constraints:
        coeffs = {lp._index[k]: v for k, v in c.form.terms.items()}
        rows.append((coeffs, c.rel, -c.form.const))
    obj = {lp._index[k]: v for k, v in lp.objective.terms.items()}
    res = simplex.solve(lp.num_vars(), lp.nonneg, rows, obj, pivot_cap=pivot_cap)
    if res.status is not LPStatus.OPTIMAL:
        return LPSolution(res.status, pivots=res.pivots)
    assignment = {name: res.x[i] for i, name in enumerate(lp.names)}
    return LPSolution(LPStatus.OPTIMAL, assignment, res.value + lp.objective.const,
                      res.pivots)


# -- polyhedral queries ----------------------------------------------------


def check_feasible(p: Polyhedron) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
    """Rational satisfiability of `p` with strict inequalities honored.

    A row without variables is decided by its constant: it is dropped when
    it holds, and `p` is empty when it fails. The other rows go into one
    LP that adds a shared slack `gap >= 0` to every strict row, bounds it
    by `gap <= 1` and maximizes it. `p` has a rational point iff that LP
    is feasible with a positive optimal gap; the point is returned as the
    witness. Raises PivotCapReached when the LP hits the pivot cap.
    """
    nvars = max((i for c in p.constraints for i in c.lhs.coeffs), default=-1) + 1
    gap = nvars
    rows = []
    for c in p.constraints:
        if not c.lhs.coeffs:
            if not c.satisfied({}):
                return False, None
            continue
        coeffs = c.lhs.coeffs
        if c.rel is Rel.LT:
            coeffs = {**coeffs, gap: ONE}
        rows.append((coeffs, RowRel.EQ if c.rel is Rel.EQ else RowRel.LE, -c.lhs.constant))
    rows.append(({gap: ONE}, RowRel.LE, ONE))
    res = simplex.solve(nvars + 1, [False] * nvars + [True], rows, {gap: ONE})
    if res.status is LPStatus.PIVOT_CAP:
        raise PivotCapReached(f"{res.pivots} pivots")
    if res.status is LPStatus.INFEASIBLE or res.value == 0:
        return False, None
    return True, {i: res.x[i] for i in range(nvars)}


def entails(p: Polyhedron, e: LinExpr) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
    """Does `e >= 0` hold on every rational point of `p`? It fails exactly
    when `p` with `e < 0` has a point, which is the counterexample."""
    violated, w = check_feasible(Polyhedron(p.constraints + [LinConstraint.lt(e)]))
    return not violated, w


# -- the implication encoder ------------------------------------------------


def encode_implication(antecedent: Polyhedron, consequent: LinExpr,
                       lp: LPProblem, tag: str = "lam") -> List[str]:
    """Emit into `lp` the multiplier system for "`antecedent` implies
    `consequent` >= 0"; returns the fresh multiplier names.

    The antecedent holds concrete rationals, possibly over fresh universal
    variables, and has passed `check_feasible`; a strict row reads as its
    relaxation. The consequent's coefficients and constant are `Affine`
    forms over the template unknowns. A consequent that is identically
    zero holds everywhere and emits nothing.
    """
    if not consequent.coeffs and not consequent.constant:
        return []
    # antecedent rows as A x <= b (equalities split)
    a_rows: List[Tuple[Dict[int, Fraction], Fraction]] = []
    for cons in antecedent.constraints:
        for half in cons.split_eq():
            a_rows.append((half.lhs.coeffs, -half.lhs.constant))

    lams = [lp.fresh_multiplier(tag) for _ in a_rows]

    # each row's terms are collected once: the consequent's, then one per
    # multiplier in row order
    columns: Dict[int, List[Tuple[str, Fraction]]] = {i: [] for i in consequent.coeffs}
    for lam, (coeffs, _) in zip(lams, a_rows):
        for i, a in coeffs.items():
            columns.setdefault(i, []).append((lam, a))

    def row(base: Optional[Affine], terms) -> Affine:
        form = Affine() if base is None else Affine(base.terms, base.const)
        form.terms.update(terms)
        return form

    # lam^T A = -c, per program variable
    for i in sorted(columns):
        lp.add_constraint(row(consequent.coeffs.get(i), columns[i]), RowRel.EQ)

    # lam^T b <= d, emitted as  d - lam^T b >= 0
    lp.add_constraint(row(consequent.constant,
                          ((lam, -b) for lam, (_, b) in zip(lams, a_rows) if b != 0)),
                      RowRel.GE)
    return lams


def dump_lp(lp: LPProblem) -> str:
    """Text dump in the common solver-exchange (CPLEX LP) format, for
    cross-checking against external solvers."""

    def safe(name: str) -> str:
        return name.replace("[", "(").replace("]", ")").replace(".", "_")

    def term_str(form: Affine) -> str:
        parts = []
        for name, v in form.terms.items():
            parts.append(f"{'+' if v >= 0 else '-'} {abs(v)} {safe(name)}")
        return " ".join(parts) if parts else "0 dummy"

    lines = ["Maximize", f" obj: {term_str(lp.objective)}", "Subject To"]
    for k, c in enumerate(lp.constraints):
        op = {RowRel.LE: "<=", RowRel.GE: ">=", RowRel.EQ: "="}[c.rel]
        lines.append(f" c{k}: {term_str(c.form)} {op} {-c.form.const}")
    lines.append("Bounds")
    for name, nn in zip(lp.names, lp.nonneg):
        lines.append(f" {safe(name)} >= 0" if nn else f" {safe(name)} free")
    lines.append("End")
    return "\n".join(lines) + "\n"
