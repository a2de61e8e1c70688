"""Exact two-phase simplex over rationals, fraction-free and sparse.

Dedicated to certificate synthesis and checking, where a float LP would
poison the Farkas witnesses: feasibility, unboundedness and optima are
exact, and every optimum is re-substituted into the constraints without
tolerance before it is returned.

The tableau holds integers only. A row is a dict from column to nonzero
integer numerator, an integer right-hand side and one positive integer
denominator for the whole row, kept in lowest terms; the reduced-cost row
has the same form, with minus the objective value as its right-hand side.
A pivot with entry p turns a row whose entry in the pivot column is a
into (p * row - a * pivot_row) / (den * p): the pivot row's own
denominator cancels, rows without an entry in the pivot column are not
touched, and a slack or artificial column costs nothing in rows where it
is zero.

Starting basis. A presolve runs first, over the integer rows: an
equality with a single entry and right-hand side 0 pins its unknown at 0.
The unknown gets no column and is deleted from every row. One pass
indexes the rows by column; a worklist then counts each pin off the rows
that read it, and a zero-rhs equality left with one live entry pins that
one too. So a chain of pins is followed to its end, each row read a
bounded number of times, and the pinned set, the least one closed under
this rule, does not depend on the order pins are found in. A row with no
live entry and right-hand side 0 is dropped, every `c = 0` row of
synthesis among them. An empty row with a nonzero right-hand side is
kept: phase 1 finds it infeasible. Columns and rows keep their relative
order, and Bland's rule below sees them in it. A pinned unknown reads
back as 0 and costs no pivot. Each tableau row is then built in one pass
over its caller row: pins left out, free columns split, negated to a
nonnegative right-hand side (a >= row with right-hand side 0 as well, so
that its slack starts basic), and divided by its gcd when it lost a pin.
The slack of a <= row starts basic. An equality with right-hand side 0
that owns an unknown, one that no other row reads, starts basic on the
first column of the last unknown it owns, negated when that entry is
negative and divided by it: no artificial, no pivot, and value 0. Every
other row gets an artificial column. An artificial on a zero right-hand
side is then driven out before phase 1: its row is pivoted on its
highest-numbered non-artificial column, or deleted as redundant when it
has none. Such a pivot moves no basic value. In the Farkas LPs of
synthesis every row but the bounds on eps has right-hand side 0, and a
block's multipliers are numbered after the template unknowns all blocks
share, so nearly every equality starts on a multiplier of its own and
the few left pivot on a multiplier of their block where they have one,
not on a template column whose elimination fills in every other block.
Phase 1 runs only while an artificial with a positive value is still
basic, and the same drive-out follows it. Every pivot, these included,
counts toward the pivot cap, and the one that would pass it raises
PivotCapReached: a capped LP has no answer, neither yes nor no.

Pivoting uses Bland's rule throughout (no cycling, deterministic),
entering on the lowest column index with positive reduced cost and
leaving on the lowest basic index among minimum ratios. Ratios are
compared by cross-multiplying numerators, since a row's denominator
cancels in its own ratio.

Integers from input to re-check. Every row a caller passes in, and the
objective, is an `IntRow` already: its integer numerators over one
positive denominator, in lowest terms. `integer_row` is the one place a
rational row becomes one, so a caller converts each row once, when it is
made, and `solve` converts nothing; a free variable's second column takes
the negated integers. The basic values are read as integer numerators
over one common denominator D, the lcm of the row denominators, and the
assignment is built once from them. Every optimum is then re-checked
exactly against the caller's own rows, not the tableau's copy, so the
rows the presolve dropped are checked too: a row's integer dot product
with the numerators is compared with its right-hand side times D, and
its own denominator, which scales both sides alike, is not read. The
objective value is checked the same way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .linear import ResourceLimit

ZERO = Fraction(0)

DEFAULT_PIVOT_CAP = 10 ** 6


class RowRel(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class PivotCapReached(ResourceLimit):
    """An LP hit the simplex pivot cap."""


@dataclass
class SimplexResult:
    status: LPStatus
    x: Optional[List[Fraction]] = None
    value: Optional[Fraction] = None
    pivots: int = 0


class IntRow(NamedTuple):
    """An LP row in integers: (terms . x) / den rel rhs / den, where `terms`
    maps each column to its nonzero integer numerator, in the order the
    row lists them, and den > 0. A row is kept in lowest terms."""
    terms: Dict[int, int]
    rhs: int
    den: int


Row = Tuple[Dict[int, int], int, int]   # a tableau row, as a plain tuple


def _reduced(row: Dict[int, int], rhs: int, den: int) -> Row:
    """The row divided by the gcd of all its integers (den > 0)."""
    g = gcd(rhs, den, *row.values())
    if g == 1:
        return row, rhs, den
    return {j: v // g for j, v in row.items()}, rhs // g, den // g


def integer_row(coeffs: Dict[int, Fraction], rhs: Fraction) -> IntRow:
    """Rational coefficients and right-hand side as one integer row, with
    the zero coefficients dropped. A row whose denominators are all 1 is
    its numerators over 1, which is in lowest terms already; any other
    row is scaled by the lcm of its denominators and reduced."""
    row: Dict[int, int] = {}
    dens: Dict[int, int] = {}   # the denominators other than 1
    for j, c in coeffs.items():
        n, d = c.as_integer_ratio()
        if n:
            row[j] = n
            if d != 1:
                dens[j] = d
    b, bd = rhs.as_integer_ratio()
    if not dens and bd == 1:
        return IntRow(row, b, 1)
    den = lcm(bd, *dens.values())
    return IntRow(*_reduced({j: n * (den // dens.get(j, 1)) for j, n in row.items()},
                            b * (den // bd), den))


def _eliminate(row: Dict[int, int], rhs: int, den: int, a: int,
               prow: Dict[int, int], prhs: int, p: int) -> Row:
    """(p * row - a * prow) / (den * p), which clears the pivot column:
    there `row` has numerator a and the pivot row `prow` numerator p > 0.
    The pivot row's own denominator cancels. Updates `row` in place when
    p divides a."""
    g = gcd(a, p)
    a //= g
    p //= g
    if p != 1:
        row = {j: p * v for j, v in row.items()}
        rhs *= p
        den *= p
    for j, v in prow.items():
        w = row.get(j, 0) - a * v
        if w:
            row[j] = w
        else:
            del row[j]
    return _reduced(row, rhs - a * prhs, den)


class _Tableau:
    """Sparse fraction-free tableau with explicit basis bookkeeping: row i
    reads rows[i][j] / den[i] in column j and rhs[i] / den[i] on the right;
    its basic column basis[i] reads den[i] / den[i] = 1. Every pivot counts
    toward `pivots`; one past `pivot_cap` raises PivotCapReached."""

    def __init__(self, rows: List[Dict[int, int]], rhs: List[int],
                 den: List[int], basis: List[int], pivot_cap: int):
        self.rows = rows
        self.rhs = rhs
        self.den = den
        self.basis = basis
        self.pivots = 0
        self.pivot_cap = pivot_cap

    def pivot(self, r: int, c: int) -> None:
        if self.pivots >= self.pivot_cap:
            raise PivotCapReached(f"{self.pivots} pivots")
        prow, prhs, p = self.rows[r], self.rhs[r], self.rows[r][c]
        if p < 0:
            prow, prhs, p = {j: -v for j, v in prow.items()}, -prhs, -p
        # divided by its pivot entry, the row is prow / p
        prow, prhs, p = _reduced(prow, prhs, p)
        self.rows[r], self.rhs[r], self.den[r] = prow, prhs, p
        for i, row in enumerate(self.rows):
            a = row.get(c)
            if a is not None and i != r:
                self.rows[i], self.rhs[i], self.den[i] = _eliminate(
                    row, self.rhs[i], self.den[i], a, prow, prhs, p)
        self.basis[r] = c
        self.pivots += 1

    def drive_out(self, art: Set[int], rows: List[int]) -> None:
        """Take the artificial basic in each of `rows`, each at value 0, out
        of the basis: pivot the row on its highest-numbered non-artificial
        column, or delete the row as redundant when it has none. Then
        delete every non-basic artificial column, if any, which fences it
        out of later pivots."""
        drop: List[int] = []
        for i in rows:
            col = max((j for j in self.rows[i] if j not in art), default=None)
            if col is None:
                drop.append(i)
            else:
                self.pivot(i, col)
        for i in reversed(drop):
            del self.rows[i], self.rhs[i], self.den[i], self.basis[i]
        gone = art.difference(self.basis)
        if not gone:
            return
        for i, row in enumerate(self.rows):
            if not gone.isdisjoint(row):
                self.rows[i], self.rhs[i], self.den[i] = _reduced(
                    {j: v for j, v in row.items() if j not in gone}, self.rhs[i], self.den[i])

    def feasible_start(self, art: Set[int]) -> bool:
        """Replace the artificial start by a basis of original columns;
        False when the rows are infeasible.

        A row that starts on a column it owns has no artificial. An
        artificial on a zero right-hand side is driven out first: a pivot
        on a zero row moves no basic value. Phase 1 then runs only while
        some artificial is basic with a positive value.
        """
        self.drive_out(art, [i for i, b in enumerate(self.basis)
                             if b in art and self.rhs[i] == 0])
        left = [b for b in self.basis if b in art]
        if not left:
            return True
        _, value = self.maximize({c: -1 for c in left}, 1)
        if value < 0:
            return False
        self.drive_out(art, [i for i, b in enumerate(self.basis) if b in art])
        return True

    def maximize(self, cost: Dict[int, int], den: int) -> Tuple[str, Fraction]:
        """Run simplex on the current basis for the objective cost / den,
        an integer row that `maximize` may change.

        Returns (outcome, value); outcome is "optimal" or "unbounded".
        """
        z, zrhs, zden = cost, 0, den
        for i, b in enumerate(self.basis):
            f = z.get(b)
            if f is not None:
                z, zrhs, zden = _eliminate(z, zrhs, zden, f, self.rows[i],
                                           self.rhs[i], self.den[i])

        while True:
            enter = min((j for j, v in z.items() if v > 0), default=-1)
            if enter < 0:
                outcome = "optimal"
                break
            leave = -1
            for i, row in enumerate(self.rows):
                a = row.get(enter)
                if a is not None and a > 0:
                    if leave < 0:
                        leave, best_rhs, best_a = i, self.rhs[i], a
                        continue
                    lhs, rhs = self.rhs[i] * best_a, best_rhs * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave, best_rhs, best_a = i, self.rhs[i], a
            if leave < 0:
                outcome = "unbounded"
                break
            self.pivot(leave, enter)
            z, zrhs, zden = _eliminate(z, zrhs, zden, z[enter], self.rows[leave],
                                       self.rhs[leave], self.den[leave])
        return outcome, Fraction(-zrhs, zden)


def solve(num_vars: int,
          nonneg: Sequence[bool],
          rows: Sequence[Tuple[IntRow, RowRel]],
          objective: IntRow,
          pivot_cap: int = DEFAULT_PIVOT_CAP) -> SimplexResult:
    """Maximize `objective`, (terms . x) / den with its rhs 0, subject to
    `rows` over `num_vars` variables. Neither is changed.

    Variables with nonneg[j] False are free (internally split). The
    result's assignment, when optimal, satisfies every row exactly, and
    this is re-checked on every optimum. `pivots` counts every pivot
    made, including those that drive artificials out of the basis, and
    none for an unknown the presolve pins or for a row that starts basic
    on a column it owns. Raises PivotCapReached ("N pivots") when a pivot
    would pass `pivot_cap`.
    """
    # the presolve of the module docstring: index the rows by column, then
    # pin from a worklist of rows that may be left with one live entry
    readers: List[List[int]] = [[] for _ in range(num_vars)]
    for i, ((terms, _, _), _) in enumerate(rows):
        for j in terms:
            readers[j].append(i)
    size = [len(terms) for (terms, _, _), _ in rows]
    live = size.copy()   # each row's entries not pinned
    pinned: Set[int] = set()
    work = [i for i, n in enumerate(size) if n == 1]
    while work:
        (terms, r, _), rel = rows[work.pop()]
        if r == 0 and rel is RowRel.EQ:
            for j in terms:
                if j not in pinned:
                    pinned.add(j)
                    for i in readers[j]:
                        live[i] -= 1
                        if live[i] == 1:
                            work.append(i)
    # a row the pins leave as 0 rel 0, or that has no terms, is dropped
    kept = [i for i, ((_, r, _), _) in enumerate(rows) if r or live[i]]

    # column layout: none for a pinned var, one per nonneg var, two per free
    # var, then one slack per inequality and one artificial per row lacking
    # a +1 slack, each in row order
    col_of: List[Tuple[int, int]] = []  # (pos_col, neg_col); -1 for no column
    ncols = 0
    for j in range(num_vars):
        if j in pinned:
            col_of.append((-1, -1))
        elif nonneg[j]:
            col_of.append((ncols, -1))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    slack = ncols
    art = ncols + sum(rows[i][1] is not RowRel.EQ for i in kept)
    # the last unknown each row owns, one no other row reads (a pinned one
    # is owned only by the row it leaves as 0 = 0)
    owner = [-1] * len(rows)
    for j, readers_j in enumerate(readers):
        if len(readers_j) == 1:
            owner[readers_j[0]] = j

    def split(terms: Dict[int, int], sign: int) -> Dict[int, int]:
        """sign * terms over the columns, without the pinned unknowns."""
        cols: Dict[int, int] = {}
        for j, v in terms.items():
            pos, neg = col_of[j]
            if pos >= 0:
                v *= sign
                cols[pos] = v
                if neg >= 0:
                    cols[neg] = -v
        return cols

    trows: List[Dict[int, int]] = []
    rhs: List[int] = []
    den: List[int] = []
    basis: List[int] = []
    art_cols: List[int] = []
    for i in kept:
        (terms, r, d), rel = rows[i]
        own = owner[i] if r == 0 and rel is RowRel.EQ else -1
        if own >= 0:
            # starts basic on the first column of `own`: divided by its
            # entry and reduced, all the reduction a deleted pin needs
            v = terms[own]
            row, r, d = _reduced(split(terms, 1 if v > 0 else -1), 0, abs(v))
            basis.append(col_of[own][0])
        else:
            # a nonnegative right-hand side; a zero one turns a >= row into
            # a <= row, whose slack starts basic
            flip = r < 0 or (r == 0 and rel is RowRel.GE)
            row = split(terms, -1 if flip else 1)
            r = abs(r)
            if live[i] < size[i]:
                row, r, d = _reduced(row, r, d)
            if rel is not RowRel.EQ:
                row[slack] = d if (rel is RowRel.LE) != flip else -d
                slack += 1
            if rel is not RowRel.EQ and row[slack - 1] > 0:
                basis.append(slack - 1)
            else:
                row[art] = d
                basis.append(art)
                art_cols.append(art)
                art += 1
        trows.append(row)
        rhs.append(r)
        den.append(d)

    tab = _Tableau(trows, rhs, den, basis, pivot_cap)
    if not tab.feasible_start(set(art_cols)):
        return SimplexResult(LPStatus.INFEASIBLE, pivots=tab.pivots)
    outcome, value = tab.maximize(split(objective.terms, 1), objective.den)
    if outcome == "unbounded":
        return SimplexResult(LPStatus.UNBOUNDED, pivots=tab.pivots)

    # basic values as integer numerators over one common denominator D
    D = lcm(*tab.den)
    colval = {b: tab.rhs[i] * (D // tab.den[i]) for i, b in enumerate(tab.basis)}
    X = [colval.get(pos, 0) - colval.get(neg, 0) for pos, neg in col_of]
    _check_solution(nonneg, rows, objective, X, D, value)
    return SimplexResult(LPStatus.OPTIMAL, x=[Fraction(v, D) if v else ZERO for v in X],
                         value=value, pivots=tab.pivots)


def _check_solution(nonneg, rows, objective, X, D, value) -> None:
    """Re-substitute x = X / D into the caller's own rows and objective,
    exactly and in integers: a row (terms . x) / den rel rhs / den holds
    exactly when terms . X rel rhs * D."""
    for j, v in enumerate(X):
        if nonneg[j] and v < 0:
            raise AssertionError(f"nonneg variable {j} got {Fraction(v, D)}")
    for (terms, b, den), rel in rows:
        lhs = sum(v * X[j] for j, v in terms.items())
        rhs = b * D
        ok = lhs <= rhs if rel is RowRel.LE else lhs >= rhs if rel is RowRel.GE else lhs == rhs
        if not ok:
            raise AssertionError(f"row violated exactly: {Fraction(lhs, D * den)} "
                                 f"{rel.value} {Fraction(b, den)}")
    terms, _, den = objective
    lhs = sum(v * X[j] for j, v in terms.items())
    if lhs * value.denominator != value.numerator * D * den:
        raise AssertionError(f"objective mismatch: {Fraction(lhs, D * den)} != {value}")
