"""Farkas-lemma encoding and polyhedral queries.

The duality step at the heart of template synthesis: a universally
quantified implication

    for all x:  A x <= b   implies   c(x) >= d

(with c, d affine in the template unknowns) holds, whenever the
antecedent is satisfiable, exactly when nonnegative multipliers lam exist
with  lam^T A = -c  and  lam^T b <= -d.  Strict inequalities follow the
standard protocol: if the antecedent is infeasible with stricts honored
the implication is vacuous and dropped, otherwise stricts are relaxed to
non-strict before encoding.

The polyhedral queries are exact too. `check_feasible`, synthesis's
screen, honors strict rows through one shared slack. `entails`, the
checker's oracle, maximizes the consequent over the relaxed antecedent,
one LP per inequality; only an inequality that this maximum does not
settle gets a second LP, the feasibility query for a violating point,
which decides it and gives the counterexample.
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


class StrictNotRelaxed(Exception):
    """A strict inequality reached the Farkas encoder unrelaxed."""


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

    def __add__(self, other: "Affine | Fraction") -> "Affine":
        if not isinstance(other, Affine):
            return Affine(self.terms, self.const + other)
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, ZERO) + v
        return Affine(t, self.const + other.const)

    def __sub__(self, other: "Affine") -> "Affine":
        return self + other.scale(-1)

    __radd__ = __add__

    def scale(self, f: RationalLike) -> "Affine":
        f = rat(f)
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


def _poly_rows(p: Polyhedron, extra_gap: Optional[int] = None):
    """Rows (coeffs, rel, rhs) for `p`; strict rows get `+ gap` when an
    extra gap-variable index is supplied (used to witness strictness)."""
    rows = []
    for c in p.constraints:
        coeffs = dict(c.lhs.coeffs)
        rhs = -c.lhs.constant
        if c.rel is Rel.EQ:
            rows.append((coeffs, RowRel.EQ, rhs))
        elif c.rel is Rel.LE:
            rows.append((coeffs, RowRel.LE, rhs))
        else:
            if extra_gap is not None:
                coeffs = dict(coeffs)
                coeffs[extra_gap] = coeffs.get(extra_gap, ZERO) + ONE
            rows.append((coeffs, RowRel.LE, rhs))
    return rows


def _solve_query(*args) -> simplex.SimplexResult:
    res = simplex.solve(*args)
    if res.status is LPStatus.PIVOT_CAP:
        raise PivotCapReached(f"{res.pivots} pivots")
    return res


def check_feasible(p: Polyhedron) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
    """Rational satisfiability of `p` with strict inequalities honored.

    Maximizes a shared slack under every strict row; the system has a
    rational point iff the non-strict relaxation is feasible and the
    optimal slack is positive. Returns a witness point when feasible.
    Raises PivotCapReached when the LP hits the pivot cap.
    """
    nvars = max((i for c in p.constraints for i in c.lhs.coeffs), default=-1) + 1
    has_strict = p.has_strict()
    if not has_strict:
        rows = _poly_rows(p)
        res = _solve_query(nvars, [False] * nvars, rows, {})
        if res.status is LPStatus.INFEASIBLE:
            return False, None
        return True, {i: res.x[i] for i in range(nvars)}
    gap = nvars
    rows = _poly_rows(p, extra_gap=gap)
    rows.append(({gap: ONE}, RowRel.LE, ONE))
    nonneg = [False] * nvars + [True]
    res = _solve_query(nvars + 1, nonneg, rows, {gap: ONE})
    if res.status is LPStatus.INFEASIBLE or res.value == 0:
        return False, None
    return True, {i: res.x[i] for i in range(nvars)}


def entails(p: Polyhedron, c: LinConstraint) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
    """Does every rational point of `p` satisfy `c`?

    Each half of `c` (equalities as two inequalities) is decided by
    maximizing its left-hand side over the non-strict relaxation of `p`,
    which has the supremum of `p` whenever `p` is nonempty: an empty
    relaxation, or a maximum of at most 0, means the half holds. Otherwise
    the witness system, `p` with the half's left-hand side positive,
    decides it exactly. It is infeasible only when the strict rows of `p`
    empty it, and its point, which satisfies the strict rows of `p` too,
    is the counterexample. Raises PivotCapReached when an LP hits the pivot
    cap.
    """
    if c.rel is Rel.LT:
        raise ValueError("entailment of strict consequents is not supported")
    relaxed = p.relax_strict()
    rows = _poly_rows(relaxed)
    nvars = max((i for q in (relaxed.constraints + [c]) for i in q.lhs.coeffs),
                default=-1) + 1
    for half in c.split_eq():
        res = _solve_query(nvars, [False] * nvars, rows, dict(half.lhs.coeffs))
        if res.status is LPStatus.INFEASIBLE or (
                res.status is LPStatus.OPTIMAL and res.value + half.lhs.constant <= 0):
            continue
        # violated where the half's left-hand side is positive
        witness_sys = Polyhedron(p.constraints + [LinConstraint.lt(-half.lhs)])
        violated, w = check_feasible(witness_sys)
        if violated:
            return False, w
    return True, None


# -- the implication encoder ------------------------------------------------


@dataclass
class FarkasImplication:
    """`antecedent` (concrete rationals, possibly over fresh universal
    variables) implies `consequent(x) >= 0`, with the consequent given as
    per-variable affine forms over the template unknowns."""
    antecedent: Polyhedron
    consequent_coeffs: Dict[int, Affine]
    consequent_const: Affine

    @staticmethod
    def concrete(antecedent: Polyhedron, e: LinExpr) -> "FarkasImplication":
        """Implication with a fully concrete consequent e(x) >= 0."""
        return FarkasImplication(
            antecedent,
            {i: Affine.constant(v) for i, v in e.coeffs.items()},
            Affine.constant(e.constant))


def encode_implication(f: FarkasImplication, lp: LPProblem,
                       tag: str = "lam") -> List[str]:
    """Emit the multiplier system for `f` into `lp`; returns the fresh
    multiplier names.

    Precondition: the antecedent passed `check_feasible` and contains no
    strict rows (callers relax after the feasibility screen).
    """
    if f.antecedent.has_strict():
        raise StrictNotRelaxed(f.antecedent.pretty())

    # antecedent rows as A x <= b (equalities split)
    a_rows: List[Tuple[Dict[int, Fraction], Fraction]] = []
    for cons in f.antecedent.constraints:
        for half in cons.split_eq():
            a_rows.append((half.lhs.coeffs, -half.lhs.constant))

    lams = [lp.fresh_multiplier(tag) for _ in a_rows]

    # each row's terms are collected once: the consequent's, then one per
    # multiplier in row order
    columns: Dict[int, List[Tuple[str, Fraction]]] = {i: [] for i in f.consequent_coeffs}
    for lam, (coeffs, _) in zip(lams, a_rows):
        for i, a in coeffs.items():
            columns.setdefault(i, []).append((lam, a))

    def row(base: Optional[Affine], terms) -> Affine:
        form = Affine() if base is None else Affine(base.terms, base.const)
        form.terms.update(terms)
        return form

    # lam^T A = -c, per program variable
    for i in sorted(columns):
        lp.add_constraint(row(f.consequent_coeffs.get(i), columns[i]), RowRel.EQ)

    # lam^T b <= -d, where the consequent reads c^T x - (-const) >= 0;
    # emitted as  const - lam^T b >= 0
    lp.add_constraint(row(f.consequent_const,
                          ((lam, -b) for lam, (_, b) in zip(lams, a_rows) if b != 0)),
                      RowRel.GE)
    return lams


def dump_lp(lp: LPProblem) -> str:
    """Text dump in the common solver-exchange (CPLEX LP) format, for
    cross-checking against external solvers."""

    def term_str(form: Affine) -> str:
        parts = []
        for name, v in form.terms.items():
            safe = name.replace("[", "(").replace("]", ")").replace(".", "_")
            parts.append(f"{'+' if v >= 0 else '-'} {abs(v)} {safe}")
        return " ".join(parts) if parts else "0 dummy"

    lines = ["Maximize", f" obj: {term_str(lp.objective)}", "Subject To"]
    for k, c in enumerate(lp.constraints):
        op = {RowRel.LE: "<=", RowRel.GE: ">=", RowRel.EQ: "="}[c.rel]
        lines.append(f" c{k}: {term_str(c.form)} {op} {-c.form.const}")
    lines.append("Bounds")
    for name, nn in zip(lp.names, lp.nonneg):
        safe = name.replace("[", "(").replace("]", ")").replace(".", "_")
        lines.append(f" {safe} >= 0" if nn else f" {safe} free")
    lines.append("End")
    return "\n".join(lines) + "\n"
