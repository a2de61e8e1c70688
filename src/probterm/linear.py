"""Linear expressions, constraints, polyhedra and DNF predicates.

These are the atoms everything else is assembled from: ranking-map
components, guards, invariants and update right-hand sides are all linear
expressions with exact rational coefficients over the program variables
(identified by index). Constraints are normalized to ``lhs rel 0``.

When synthesis encodes a transition's side conditions, a template is a
linear expression over the program variables whose coefficients and
constant are linear expressions over the columns of the block of rows
the encoding fills, which stand for the transition's frame (also
identified by index), so one algebra serves both.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence

from .rationals import rat, RationalLike

ZERO = Fraction(0)
ONE = Fraction(1)


DEFAULT_DNF_CAP = 4096


class ResourceLimit(Exception):
    """A query stopped at a resource limit, so it has no answer (neither
    yes nor no)."""


class EncodingBlowup(ResourceLimit):
    """DNF expansion exceeded the configured disjunct cap."""


def _coef(value):
    """A coefficient as stored: ints and strings become Fractions; a
    Fraction, or a `LinExpr` over LP columns, is kept as it is."""
    return rat(value) if isinstance(value, (int, str)) else value


class LinExpr:
    """Affine expression ``constant + sum(coeffs[i] * x_i)``, over the
    program variables or over the columns of an LP.

    A coefficient is a Fraction or, in a synthesis template, a `LinExpr`
    over LP columns with Fraction coefficients. Zero coefficients are
    never stored, so structural equality coincides with mathematical
    equality.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None,
                 constant: RationalLike = 0):
        cs: Dict[int, Fraction] = {}
        if coeffs:
            for i, c in coeffs.items():
                c = _coef(c)
                if c:
                    cs[int(i)] = c
        self.coeffs = cs
        self.constant = _coef(constant)

    @staticmethod
    def owning(coeffs: Dict[int, Fraction], constant) -> "LinExpr":
        """A LinExpr that takes `coeffs`, a dict of nonzero coefficients
        that no other LinExpr holds, as its own, and `constant` as it is:
        no copy, no coercion, no zero test."""
        e = LinExpr.__new__(LinExpr)
        e.coeffs = coeffs
        e.constant = constant
        return e

    @staticmethod
    def const(value: RationalLike) -> "LinExpr":
        return LinExpr({}, value)

    @staticmethod
    def var(index: int, coeff: RationalLike = ONE) -> "LinExpr":
        return (LinExpr.owning({int(index): ONE}, ZERO) if coeff is ONE
                else LinExpr({index: coeff}))

    def coeff(self, index: int) -> Fraction:
        return self.coeffs.get(index, ZERO)

    def is_constant(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs or self.constant)

    # `+` and `-` keep this expression's terms in order, then the new ones
    # of `other`, and drop a term that cancels; a Fraction `other` adds to
    # the constant
    def __add__(self, other) -> "LinExpr":
        if not isinstance(other, LinExpr):
            return LinExpr.owning(dict(self.coeffs), self.constant + other)
        cs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = cs[i] + c if i in cs else c
            if s:
                cs[i] = s
            else:
                del cs[i]
        return LinExpr.owning(cs, self.constant + other.constant)

    def __sub__(self, other) -> "LinExpr":
        if not isinstance(other, LinExpr):
            return LinExpr.owning(dict(self.coeffs), self.constant - other)
        cs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = cs[i] - c if i in cs else -c
            if s:
                cs[i] = s
            else:
                del cs[i]
        return LinExpr.owning(cs, self.constant - other.constant)

    def __neg__(self) -> "LinExpr":
        return LinExpr.owning({i: -c for i, c in self.coeffs.items()}, -self.constant)

    __radd__ = __add__

    def __rsub__(self, other) -> "LinExpr":
        return -self + other

    def scale(self, factor) -> "LinExpr":
        """The expression times `factor`, a Fraction or, to scale a
        concrete expression by a template coefficient, a `LinExpr`, which
        each coefficient and the constant scale in turn."""
        if isinstance(factor, LinExpr):
            return LinExpr.owning({i: factor.scale(c) for i, c in self.coeffs.items()}
                                  if factor else {}, factor.scale(self.constant))
        f = _coef(factor)
        if f == 1:
            return LinExpr.owning(dict(self.coeffs), self.constant)
        if f == -1:
            return -self
        if not f:
            return LinExpr.owning({}, self.constant * f)
        return LinExpr.owning({i: c * f for i, c in self.coeffs.items()},
                              self.constant * f)

    __mul__ = __rmul__ = scale

    def shift(self, delta) -> "LinExpr":
        return LinExpr.owning(dict(self.coeffs), self.constant + _coef(delta))

    def substitute(self, index: int, replacement: "LinExpr") -> "LinExpr":
        """Replace variable `index` by `replacement`, which is scaled by
        the coefficient of `index` (a `LinExpr` one in a template)."""
        c = self.coeffs.get(index)
        if c is None:
            return self
        rest = {i: v for i, v in self.coeffs.items() if i != index}
        return LinExpr.owning(rest, self.constant) + replacement.scale(c)

    def evaluate(self, values: Sequence[Fraction] | Mapping[int, Fraction]) -> Fraction:
        total = self.constant
        for i, c in self.coeffs.items():
            total += c * values[i]
        return total

    def max_abs_coeff(self) -> Fraction:
        """Largest |coefficient|, constant term excluded; 0 if none."""
        return max((abs(c) for c in self.coeffs.values()), default=ZERO)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinExpr) and self.coeffs == other.coeffs
                and self.constant == other.constant)

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.constant))

    def pretty(self, names: Sequence[str] | None = None) -> str:
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            name = names[i] if names else f"x{i}"
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"LinExpr({self.pretty()})"


class Rel(enum.Enum):
    LE = "<="
    LT = "<"
    EQ = "=="


class LinConstraint:
    """Normalized atomic constraint ``lhs rel 0``."""

    __slots__ = ("lhs", "rel")

    def __init__(self, lhs: LinExpr, rel: Rel):
        self.lhs = lhs
        self.rel = rel

    @staticmethod
    def le(lhs: LinExpr) -> "LinConstraint":
        return LinConstraint(lhs, Rel.LE)

    @staticmethod
    def lt(lhs: LinExpr) -> "LinConstraint":
        return LinConstraint(lhs, Rel.LT)

    @staticmethod
    def eq(lhs: LinExpr) -> "LinConstraint":
        return LinConstraint(lhs, Rel.EQ)

    def satisfied(self, values) -> bool:
        v = self.lhs.evaluate(values)
        if self.rel is Rel.LE:
            return v <= 0
        if self.rel is Rel.LT:
            return v < 0
        return v == 0

    def negate(self) -> List["LinConstraint"]:
        """Negation as a disjunction (list) of atomic constraints.

        not(e <= 0) is (-e < 0); not(e < 0) is (-e <= 0); not(e == 0) is
        the two-way disjunction (-e < 0) or (e < 0).
        """
        if self.rel is Rel.LE:
            return [LinConstraint(-self.lhs, Rel.LT)]
        if self.rel is Rel.LT:
            return [LinConstraint(-self.lhs, Rel.LE)]
        return [LinConstraint(-self.lhs, Rel.LT), LinConstraint(self.lhs, Rel.LT)]

    def __eq__(self, other):
        return (isinstance(other, LinConstraint) and self.lhs == other.lhs
                and self.rel is other.rel)

    def __hash__(self):
        return hash((self.lhs, self.rel))

    def pretty(self, names=None) -> str:
        return f"{self.lhs.pretty(names)} {self.rel.value} 0"

    def __repr__(self):
        return f"LinConstraint({self.pretty()})"


class Polyhedron:
    """Conjunction of linear constraints; the empty conjunction is `true`."""

    __slots__ = ("constraints",)

    def __init__(self, constraints: Iterable[LinConstraint] = ()):
        self.constraints = list(constraints)

    @staticmethod
    def true() -> "Polyhedron":
        return Polyhedron()

    def conjoin(self, other: "Polyhedron") -> "Polyhedron":
        return Polyhedron(self.constraints + other.constraints)

    def satisfied(self, values) -> bool:
        return all(c.satisfied(values) for c in self.constraints)

    def variables(self) -> set:
        out = set()
        for c in self.constraints:
            out |= set(c.lhs.coeffs)
        return out

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.constraints == other.constraints

    def pretty(self, names=None) -> str:
        if not self.constraints:
            return "true"
        return " and ".join(c.pretty(names) for c in self.constraints)

    def __repr__(self):
        return f"Polyhedron({self.pretty()})"


class Predicate:
    """Disjunctive normal form: satisfaction set is the union of disjuncts.

    An empty disjunct list denotes `false` (it arises from negating a
    tautology and keeps the DNF algebra closed).
    """

    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts: Iterable[Polyhedron] = ()):
        self.disjuncts = list(disjuncts)

    @staticmethod
    def true() -> "Predicate":
        return Predicate([Polyhedron.true()])

    @staticmethod
    def false() -> "Predicate":
        return Predicate([])

    @staticmethod
    def of_constraints(constraints: Iterable[LinConstraint]) -> "Predicate":
        return Predicate([Polyhedron(constraints)])

    def is_false(self) -> bool:
        return not self.disjuncts

    def is_true(self) -> bool:
        return any(not d.constraints for d in self.disjuncts)

    def satisfied(self, values) -> bool:
        return any(d.satisfied(values) for d in self.disjuncts)

    def disjoin(self, other: "Predicate") -> "Predicate":
        return Predicate(self.disjuncts + other.disjuncts)

    def conjoin(self, other: "Predicate", cap: int = DEFAULT_DNF_CAP) -> "Predicate":
        out = []
        for a in self.disjuncts:
            for b in other.disjuncts:
                out.append(a.conjoin(b))
                if len(out) > cap:
                    raise EncodingBlowup(f"DNF conjunction exceeds {cap} disjuncts")
        return Predicate(out)

    def variables(self) -> set:
        out = set()
        for d in self.disjuncts:
            out |= d.variables()
        return out

    def __eq__(self, other):
        return isinstance(other, Predicate) and self.disjuncts == other.disjuncts

    def pretty(self, names=None) -> str:
        if not self.disjuncts:
            return "false"
        if len(self.disjuncts) == 1:
            return self.disjuncts[0].pretty(names)
        return " or ".join(f"({d.pretty(names)})" for d in self.disjuncts)

    def __repr__(self):
        return f"Predicate({self.pretty()})"


def negate_predicate(pred: Predicate, cap: int = DEFAULT_DNF_CAP) -> Predicate:
    """DNF of the complement of `pred`.

    The complement of a DNF is a conjunction of clause complements, each a
    disjunction of atom negations; distributing back to DNF can blow up,
    hence the cap.
    """
    result = Predicate.true()
    for poly in pred.disjuncts:
        atoms: List[LinConstraint] = []
        for c in poly.constraints:
            atoms.extend(c.negate())
        clause = Predicate([Polyhedron([a]) for a in atoms])
        result = result.conjoin(clause, cap=cap)
    return result

