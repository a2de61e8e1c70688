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

An LP unknown is its column index from assembly to the simplex: in a
`LinExpr` over LP columns, in the integer rows (`IntRow`) of an
`LPProblem` and its objective, and in the point `solve_lp` returns. The
encoder builds each row in integers once, into a `Block` over a frame
of LP columns plus the block's own multipliers. Placing a block is the
only way Farkas rows and multipliers enter an LP, and the simplex takes
the rows as they stand. Names label the columns in `dump_lp` alone,
which prints each coefficient as its fraction.

There is one polyhedral query, and it is exact too. `check_feasible`
decides whether a polyhedron has a rational point. It tries, in order:
- a row without variables, decided by its constant;
- a lower and an upper bound on one variable that contradict, a Farkas
  certificate with two multipliers that proves the polyhedron empty;
- a box point, built from the single-variable bounds and evaluated
  exactly, that proves it nonempty;
- one LP that honors strict rows through a shared slack.
Plain arithmetic checks the first three, and only a query that none of
them settles pays for the LP. Synthesis screens antecedents with it, and
`entails(p, e)`, the checker's oracle, is this query on p with e < 0: a
counterexample is the box point whenever there is one, else the LP's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .linear import LinConstraint, LinExpr, Polyhedron, Rel
from . import simplex
from .simplex import IntRow, LPStatus, RowRel, SimplexResult, integer_row

ZERO = Fraction(0)
ONE = Fraction(1)
NO_TERMS = LinExpr.owning({}, ZERO)   # a row's base where the consequent has no term


class LPConstraint(NamedTuple):
    form: IntRow            # form.terms . x  rel  form.rhs, over form.den
    rel: RowRel


@dataclass
class LPProblem:
    """An LP whose unknowns are its columns 0, 1, ...; the objective, an
    integer row whose rhs is 0, is always maximized.

    Unknowns registered nonnegative keep a >= 0 bound (all Farkas
    multipliers do); the rest are free. Farkas rows and their multipliers
    enter only by placing a `Block`. `names` labels the columns in
    `dump_lp` and nowhere else: a column's name, or a multiplier's tag
    and ordinal among the LP's multipliers, which `dump_lp` writes as
    `tag.ordinal`.
    """
    names: List[Union[str, Tuple[str, int]]] = field(default_factory=list)
    nonneg: List[bool] = field(default_factory=list)
    constraints: List[LPConstraint] = field(default_factory=list)
    objective: IntRow = field(default_factory=lambda: IntRow({}, 0, 1))
    multipliers: int = 0    # placed so far; the next one's ordinal

    def add_var(self, name: str, nonneg: bool = False) -> int:
        """A new unknown labelled `name`; returns its column."""
        self.names.append(name)
        self.nonneg.append(nonneg)
        return len(self.names) - 1

    def add_row(self, terms: Dict[int, int], rhs: int, den: int, rel: RowRel) -> None:
        """Append the row (terms . x) / den  rel  rhs / den, in lowest terms
        with den > 0; the row keeps `terms` as its own."""
        self.constraints.append(LPConstraint(IntRow(terms, rhs, den), rel))

    def num_vars(self) -> int:
        return len(self.names)

    def num_constraints(self) -> int:
        return len(self.constraints)


def solve_lp(lp: LPProblem, pivot_cap: int = simplex.DEFAULT_PIVOT_CAP) -> SimplexResult:
    """Exact optimum of `lp`, its point indexed by column; deterministic
    for identical input."""
    return simplex.solve(lp.num_vars(), lp.nonneg, lp.constraints, lp.objective,
                         pivot_cap=pivot_cap)


# -- polyhedral queries ----------------------------------------------------


Bound = Tuple[Fraction, bool]   # a bound's value, and whether it is strict


def _scan(constraints: List[LinConstraint]
          ) -> Optional[Tuple[Dict[int, Bound], Dict[int, Bound], List[LinConstraint]]]:
    """None when a false constant row, or a lower and an upper bound on one
    variable that contradict, prove `constraints` empty. Otherwise the
    tightest lower and upper bound that the single-variable rows put on
    each variable, and the rows over two or more variables.

    The single-variable rows on one variable contradict exactly when its
    tightest lower and upper bound do, so only those two are compared.
    """
    lo: Dict[int, Bound] = {}
    hi: Dict[int, Bound] = {}
    wide: List[LinConstraint] = []
    for c in constraints:
        coeffs = c.lhs.coeffs
        if len(coeffs) == 1:
            [(i, a)] = coeffs.items()
            k = c.lhs.constant
            value = -k if a == 1 else k if a == -1 else -k / a
            strict = c.rel is Rel.LT
            if c.rel is Rel.EQ or a > 0:
                old = hi.get(i)
                if old is None or value < old[0] or value == old[0] and strict:
                    hi[i] = (value, strict)
            if c.rel is Rel.EQ or a < 0:
                old = lo.get(i)
                if old is None or value > old[0] or value == old[0] and strict:
                    lo[i] = (value, strict)
        elif coeffs:
            wide.append(c)
        elif not c.satisfied(()):
            return None
    for i, (low, strict) in lo.items():
        if i in hi:
            high, high_strict = hi[i]
            if low > high or low == high and (strict or high_strict):
                return None
    return lo, hi, wide


def _box_point(lo: Dict[int, Bound], hi: Dict[int, Bound], wide: List[LinConstraint],
               nvars: int) -> Optional[Dict[int, Fraction]]:
    """The point made from the bounds that `_scan` found, if it satisfies
    every row over two or more variables exactly. A variable between two
    bounds takes their midpoint, one with a single bound lies 1 inside it,
    and one with none is 0. As `_scan` found each variable's bounds
    consistent, the point satisfies every single-variable row: strictly
    inside both bounds, or on them when they are equal and not strict."""
    point = []
    for i in range(nvars):
        low, high = lo.get(i), hi.get(i)
        if low is not None and high is not None:
            point.append((low[0] + high[0]) / 2)
        elif low is not None:
            point.append(low[0] + 1)
        elif high is not None:
            point.append(high[0] - 1)
        else:
            point.append(ZERO)
    for c in wide:
        if not c.satisfied(point):
            return None
    return dict(enumerate(point))


def _gap_lp(constraints: List[LinConstraint], nvars: int
            ) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
    """Feasibility by one LP: a shared slack `gap >= 0` is added to every
    strict row, bounded by `gap <= 1` and maximized. There is a point iff
    the LP is feasible with a positive optimal gap. Rows without variables
    must hold already, and are left out."""
    gap = nvars
    rows = []
    for c in constraints:
        coeffs = c.lhs.coeffs
        if not coeffs:
            continue
        if c.rel is Rel.LT:
            coeffs = {**coeffs, gap: ONE}
        rows.append((integer_row(coeffs, -c.lhs.constant),
                     RowRel.EQ if c.rel is Rel.EQ else RowRel.LE))
    rows.append((IntRow({gap: 1}, 1, 1), RowRel.LE))
    res = simplex.solve(nvars + 1, [False] * nvars + [True], rows, IntRow({gap: 1}, 0, 1))
    if res.status is LPStatus.INFEASIBLE or res.value == 0:
        return False, None
    return True, {i: res.x[i] for i in range(nvars)}


def _num_vars(constraints: List[LinConstraint]) -> int:
    return max((i for c in constraints for i in c.lhs.coeffs), default=-1) + 1


def check_feasible(p: Polyhedron) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
    """Rational satisfiability of `p` with strict inequalities honored,
    and a point of `p` as the witness when there is one.

    Four tests run in turn, each exact, and the first that settles the
    query answers it:
    1. a row without variables is decided by its constant;
    2. a lower and an upper bound on one variable that contradict make
       `p` empty (a Farkas certificate with two multipliers);
    3. the box point of the single-variable rows (midpoint, bound ± 1 or
       0 per variable) is the witness when it satisfies every row;
    4. otherwise one gap LP decides, and its point is the witness.
    The simplex raises PivotCapReached when the LP hits its cap.
    """
    constraints = p.constraints
    box = _scan(constraints)
    if box is None:
        return False, None
    nvars = _num_vars(constraints)
    point = _box_point(*box, nvars)
    if point is not None:
        return True, point
    return _gap_lp(constraints, nvars)


def entails(p: Polyhedron, e: LinExpr) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
    """Does `e >= 0` hold on every rational point of `p`? It fails exactly
    when `p` with `e < 0` has a point, and `check_feasible` decides that,
    its witness being the counterexample."""
    violated, point = check_feasible(Polyhedron(p.constraints + [LinConstraint.lt(e)]))
    return not violated, point


# -- the implication encoder ------------------------------------------------


@dataclass
class Block:
    """Farkas rows over a frame of LP columns plus multipliers of their own:
    what `encode_implication` writes into. A row is an `IntRow`'s terms,
    rhs and denominator, then its relation. A term's column stands as a
    position in the frame, below `width`, or as `width` plus the index of
    a multiplier, whose tags `tags` lists in creation order. `replay`
    places the block into an LP, which is the only way Farkas rows and
    multipliers enter one. `dropped` and `emitted` count the implications
    whose antecedent failed or passed its feasibility screen, for a
    caller that screens."""
    width: int      # the length of the frame
    tags: List[str] = field(default_factory=list)
    rows: List[Tuple[Dict[int, int], int, int, RowRel]] = field(default_factory=list)
    dropped: int = 0
    emitted: int = 0

    def replay(self, lp: LPProblem, frame: List[int]) -> None:
        """Place the block into `lp`: position k < `width` becomes column
        `frame[k]`, and the multipliers one run of fresh nonnegative
        columns, labelled by tag and ordinal in creation order."""
        first, ordinal, n = len(lp.names), lp.multipliers, len(self.tags)
        lp.names.extend(zip(self.tags, range(ordinal, ordinal + n)))
        lp.nonneg.extend([True] * n)
        lp.multipliers += n
        cols = frame + list(range(first, first + n))
        lp.constraints.extend(LPConstraint(IntRow({cols[k]: v for k, v in terms.items()}, rhs, den), rel)
                              for terms, rhs, den, rel in self.rows)


def encode_implication(antecedent: Polyhedron, consequent: LinExpr,
                       block: Block, tag: str = "lam") -> List[int]:
    """Write into `block` the multiplier system for "`antecedent` implies
    `consequent` >= 0"; returns the block positions of the fresh
    multipliers, all tagged `tag`.

    The antecedent holds concrete rationals, possibly over fresh universal
    variables, and has passed `check_feasible`; a strict row reads as its
    relaxation. The consequent's coefficients and constant are `LinExpr`s
    over the block's frame positions. A consequent that is identically
    zero holds everywhere and writes nothing.

    Each row is built once, as integers: the consequent's terms, then one
    per multiplier in row order, through `integer_row`.
    """
    if not consequent:
        return []
    # the antecedent as A x <= b, an equality as its two halves; per half,
    # the entries of A and -b
    halves: List[Tuple[Dict[int, Fraction], Fraction]] = []
    for cons in antecedent.constraints:
        lhs = cons.lhs
        halves.append((lhs.coeffs, lhs.constant))
        if cons.rel is Rel.EQ:
            halves.append(({i: -a for i, a in lhs.coeffs.items()}, -lhs.constant))

    first = block.width + len(block.tags)
    lams = list(range(first, first + len(halves)))
    block.tags.extend([tag] * len(halves))

    # each row's multiplier terms are collected once, in row order
    columns: Dict[int, Dict[int, Fraction]] = {i: {} for i in consequent.coeffs}
    for lam, (entries, _) in zip(lams, halves):
        for i, a in entries.items():
            columns.setdefault(i, {})[lam] = a

    # lam^T A = -c, per program variable
    for i in sorted(columns):
        block.rows.append(_row(consequent.coeffs.get(i, NO_TERMS), columns[i], RowRel.EQ))

    # lam^T b <= d, written as  d - lam^T b >= 0
    block.rows.append(_row(consequent.constant,
                           {lam: k for lam, (_, k) in zip(lams, halves) if k}, RowRel.GE))
    return lams


def _row(base: LinExpr, multipliers: Dict[int, Fraction], rel: RowRel
         ) -> Tuple[Dict[int, int], int, int, RowRel]:
    """The block row  base + sum(a * lam)  rel  0, where `base` is a
    `LinExpr` over the frame positions and `multipliers` maps each lam to
    its a. The rhs that `integer_row` gives for base.constant, negated,
    is the one it would give for -base.constant: its gcd has no sign."""
    terms, rhs, den = integer_row({**base.coeffs, **multipliers}, base.constant)
    return terms, -rhs, den, rel


_LABEL_SPECIAL = re.compile(r"[^A-Za-z0-9_()]")
_LABEL_REWRITE = {"[": "(", "]": ")", ".": "_"}


def _label(name: str) -> str:
    """`name` as one CPLEX LP token: brackets become parentheses, dots
    underscores, and any other character outside [A-Za-z0-9_()] becomes
    `_<hex code point>_`."""
    return _LABEL_SPECIAL.sub(
        lambda m: _LABEL_REWRITE.get(m[0]) or f"_{ord(m[0]):x}_", name)


def dump_lp(lp: LPProblem) -> str:
    """Text dump in the common solver-exchange (CPLEX LP) format, for
    cross-checking against external solvers. Column j is written under
    `_label` of its name; raises ValueError when two columns would be
    written under one name."""
    names = [_label(n if isinstance(n, str) else f"{n[0]}.{n[1]}") for n in lp.names]
    if len(set(names)) < len(names):
        twice = next(n for j, n in enumerate(names) if n in names[:j])
        raise ValueError(f"two LP unknowns would both be written as {twice!r}")

    def term_str(form: IntRow) -> str:
        parts = [f"{'+' if v >= 0 else '-'} {Fraction(abs(v), form.den)} {names[j]}"
                 for j, v in form.terms.items()]
        return " ".join(parts) if parts else "0 dummy"

    lines = ["Maximize", f" obj: {term_str(lp.objective)}", "Subject To"]
    for k, (form, rel) in enumerate(lp.constraints):
        op = {RowRel.LE: "<=", RowRel.GE: ">=", RowRel.EQ: "="}[rel]
        lines.append(f" c{k}: {term_str(form)} {op} {Fraction(form.rhs, form.den)}")
    lines.append("Bounds")
    for name, nn in zip(names, lp.nonneg):
        lines.append(f" {name} >= 0" if nn else f" {name} free")
    lines.append("End")
    return "\n".join(lines) + "\n"
