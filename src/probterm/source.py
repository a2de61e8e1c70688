"""Parser for the small imperative probabilistic source language.

Statements: `skip`, `x := <linear expr>` (optionally containing one
`sample(<dist>)` term), `x := ndet[lo, hi]`, sequencing with `;`,
`while <pred> do ... od`, and three `if` forms -- `if <pred>`,
`if prob(p)` (probabilistic branch) and `if *` (demonic branch) -- each
with a mandatory `else` and closing `fi`. Predicates are Boolean
combinations of linear comparisons. The full grammar lives in
docs/lang.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import List, Tuple

from .distributions import SCALAR_KINDS, DistributionSpec
from .linear import (LinConstraint, LinExpr, Polyhedron, Predicate,
                     negate_predicate)
from .model import ExprUpdate, NondetUpdate


class ProgramSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class NonLinearExpression(ProgramSyntaxError):
    pass


class MultipleSamplesInAssignment(ProgramSyntaxError):
    pass


class SampleInPredicate(ProgramSyntaxError):
    pass


# -- AST -------------------------------------------------------------------


@dataclass
class Skip:
    pass


@dataclass
class Assign:
    """`x := ...` as the update a transition carries, over variable indices."""
    update: ExprUpdate | NondetUpdate


@dataclass
class Seq:
    stmts: List["Stmt"]


@dataclass
class While:
    cond: Predicate
    body: "Stmt"


@dataclass
class IfCond:
    cond: Predicate
    then: "Stmt"
    els: "Stmt"


@dataclass
class IfProb:
    p: Fraction
    then: "Stmt"
    els: "Stmt"


@dataclass
class IfNdet:
    then: "Stmt"
    els: "Stmt"


Stmt = Skip | Assign | Seq | While | IfCond | IfProb | IfNdet


@dataclass
class SourceProgram:
    body: Stmt
    variables: List[str] = field(default_factory=list)


# -- tokenizer ---------------------------------------------------------------

KEYWORDS = {"while", "do", "od", "if", "then", "else", "fi", "skip",
            "prob", "ndet", "sample", "and", "or", "not", "true", "false"}

SYMBOLS = [":=", "<=", ">=", "==", "!=", "<", ">", "+", "-", "*", "/",
           "(", ")", "[", "]", ",", ";", ":"]


@dataclass
class Token:
    kind: str      # "num" | "ident" | "kw" | symbol itself | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1; line += 1; col = 1
            continue
        if ch.isspace():
            i += 1; col += 1
            continue
        if ch == "#":  # comment to end of line
            j = i
            while j < n and text[j] != "\n":
                j += 1
            col += j - i; i = j
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            while j < n and (text[j].isdecimal() or text[j] == "."):
                j += 1
            if text.count(".", i, j) > 1:
                raise ProgramSyntaxError(f"malformed number {text[i:j]!r}", line, col)
            toks.append(Token("num", text[i:j], line, col))
            col += j - i; i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(Token("kw" if word in KEYWORDS else "ident", word, line, col))
            col += j - i; i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token(sym, sym, line, col))
                col += len(sym); i += len(sym)
                break
        else:
            raise ProgramSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# -- parser ------------------------------------------------------------------


# `lhs op rhs` as a disjunction of atoms, each (constraint, sign of lhs - rhs)
_COMPARISONS = {"<=": [(LinConstraint.le, 1)], "<": [(LinConstraint.lt, 1)],
                ">=": [(LinConstraint.le, -1)], ">": [(LinConstraint.lt, -1)],
                "==": [(LinConstraint.eq, 1)],
                "!=": [(LinConstraint.lt, 1), (LinConstraint.lt, -1)]}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.toks = tokens
        self.pos = 0
        self.vars: List[str] = []
        # an expression is one LinExpr, whose column -k is the k-th sample
        # term read: samples[k - 1] holds its `sample` token and distribution
        self.samples: List[Tuple[Token, DistributionSpec]] = []

    # token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ProgramSyntaxError(f"expected {want!r}, found {t.text or t.kind!r}",
                                     t.line, t.col)
        return self.next()

    def err(self, message: str):
        t = self.peek()
        raise ProgramSyntaxError(message, t.line, t.col)

    def run(self, rule):
        """`rule()`; nesting too deep for the interpreter's stack is a
        syntax error at the token reached."""
        try:
            return rule()
        except RecursionError:
            self.err("nesting too deep to parse")

    def var_index(self, name: str) -> int:
        if name not in self.vars:
            if name == "const":
                self.err("'const' is reserved and cannot name a variable")
            self.vars.append(name)
        return self.vars.index(name)

    # statements

    def parse_program(self) -> SourceProgram:
        if self.at("eof"):
            return SourceProgram(Skip(), [])
        body = self.parse_seq()
        self.expect("eof")
        return SourceProgram(body, list(self.vars))

    def parse_seq(self) -> Stmt:
        stmts = [self.parse_stmt()]
        while self.at(";"):
            self.next()
            if self.at("eof") or self.at("kw", "od") or self.at("kw", "fi") \
                    or self.at("kw", "else"):
                break  # tolerate a trailing semicolon
            stmts.append(self.parse_stmt())
        return stmts[0] if len(stmts) == 1 else Seq(stmts)

    def parse_stmt(self) -> Stmt:
        if self.at("kw", "skip"):
            self.next()
            return Skip()
        if self.at("kw", "while"):
            self.next()
            cond = self.parse_predicate()
            self.expect("kw", "do")
            body = self.parse_seq()
            self.expect("kw", "od")
            return While(cond, body)
        if self.at("kw", "if"):
            return self.parse_if()
        if self.at("ident"):
            return self.parse_assign()
        self.err("expected a statement")

    def parse_if(self) -> Stmt:
        self.expect("kw", "if")
        if self.at("*"):
            self.next()
            make = IfNdet
        elif self.at("kw", "prob"):
            t = self.next()
            self.expect("(")
            p = self.parse_signed_number()
            self.expect(")")
            if not 0 < p < 1:
                raise ProgramSyntaxError(f"branch probability {p} outside (0, 1)",
                                         t.line, t.col)
            make = partial(IfProb, p)
        else:
            make = partial(IfCond, self.parse_predicate())
        self.expect("kw", "then")
        then = self.parse_seq()
        self.expect("kw", "else")
        els = self.parse_seq()
        self.expect("kw", "fi")
        return make(then, els)

    def parse_assign(self) -> Stmt:
        # declares the target before its right-hand side
        target = self.var_index(self.expect("ident").text)
        self.expect(":=")
        if self.at("kw", "ndet"):
            t = self.next()
            self.expect("[")
            lo = self.parse_signed_number()
            self.expect(",")
            hi = self.parse_signed_number()
            self.expect("]")
            if lo > hi:
                raise ProgramSyntaxError(f"empty interval [{lo}, {hi}]", t.line, t.col)
            return Assign(NondetUpdate(target, lo, hi))
        expr = self.parse_expr()
        columns = sorted((i for i in expr.coeffs if i < 0), reverse=True)
        if len(columns) > 1:
            t = self.samples[-columns[1] - 1][0]
            raise MultipleSamplesInAssignment("at most one sample term per assignment",
                                              t.line, t.col)
        if not columns:
            return Assign(ExprUpdate(target, expr))
        k = columns[0]
        base = LinExpr.owning({i: c for i, c in expr.coeffs.items() if i != k}, expr.constant)
        return Assign(ExprUpdate(target, base, (expr.coeffs[k], self.samples[-k - 1][1])))

    # predicates (built directly in disjunctive normal form)

    def parse_predicate(self) -> Predicate:
        pred = self.parse_and()
        while self.at("kw", "or"):
            self.next()
            pred = pred.disjoin(self.parse_and())
        return pred

    def parse_and(self) -> Predicate:
        pred = self.parse_patom()
        while self.at("kw", "and"):
            self.next()
            pred = pred.conjoin(self.parse_patom())
        return pred

    def parse_patom(self) -> Predicate:
        if self.at("kw", "not"):
            self.next()
            return negate_predicate(self.parse_patom())
        if self.at("kw", "true"):
            self.next()
            return Predicate.true()
        if self.at("kw", "false"):
            self.next()
            return Predicate.false()
        if self.at("("):
            # either a parenthesized predicate or the start of a comparison;
            # a sample read in a comparison is refused however it is read
            snapshot = self.pos
            self.next()
            try:
                inner = self.parse_predicate()
                self.expect(")")
                return inner
            except SampleInPredicate:
                raise
            except ProgramSyntaxError:
                self.pos = snapshot
        return self.parse_comparison()

    def parse_comparison(self) -> Predicate:
        first = len(self.samples)
        lhs = self.parse_expr()
        op = self.peek()
        if op.kind not in _COMPARISONS:
            self.err("expected a comparison operator")
        self.next()
        diff = lhs - self.parse_expr()
        if len(self.samples) > first:
            t = self.samples[first][0]
            raise SampleInPredicate("sampling is not allowed inside predicates",
                                    t.line, t.col)
        return Predicate([Polyhedron([atom(diff if sign > 0 else -diff)])
                          for atom, sign in _COMPARISONS[op.kind]])

    # linear expressions; sample terms are negative columns

    def parse_expr(self) -> LinExpr:
        expr = self.parse_term()
        while self.at("+") or self.at("-"):
            if self.next().kind == "-":
                expr = expr - self.parse_term()
            else:
                expr = expr + self.parse_term()
        return expr

    def parse_term(self) -> LinExpr:
        expr = self.parse_factor()
        while self.at("*") or self.at("/"):
            op = self.next()
            rhs = self.parse_factor()
            if op.kind == "*" and rhs.is_constant():
                expr = expr.scale(rhs.constant)
            elif op.kind == "*" and expr.is_constant():
                expr = rhs.scale(expr.constant)
            elif op.kind == "*":
                raise NonLinearExpression("product of two non-constant expressions",
                                          op.line, op.col)
            elif not rhs.is_constant():
                raise NonLinearExpression("division by a non-constant", op.line, op.col)
            elif rhs.constant == 0:
                raise ProgramSyntaxError("division by zero", op.line, op.col)
            else:
                expr = expr.scale(1 / rhs.constant)
        return expr

    def parse_factor(self) -> LinExpr:
        t = self.peek()
        if t.kind == "-":
            self.next()
            return -self.parse_factor()
        if t.kind == "num":
            self.next()
            return LinExpr.const(Fraction(t.text))
        if t.kind == "ident":
            self.next()
            return LinExpr.var(self.var_index(t.text))
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "kw" and t.text == "sample":
            self.next()
            self.expect("(")
            self.samples.append((t, self.parse_distribution()))
            self.expect(")")
            return LinExpr.var(-len(self.samples))
        self.err("expected an expression")

    def parse_signed_number(self) -> Fraction:
        neg = False
        while self.at("-") or self.at("+"):
            neg ^= self.next().kind == "-"
        t = self.expect("num")
        value = Fraction(t.text)
        if self.at("/"):
            slash = self.next()
            denom = Fraction(self.expect("num").text)
            if denom == 0:
                raise ProgramSyntaxError("zero denominator", slash.line, slash.col)
            value /= denom
        return -value if neg else value

    def parse_distribution(self) -> DistributionSpec:
        t = self.peek()
        try:
            return self._distribution()
        except ValueError as e:
            raise ProgramSyntaxError(f"invalid distribution: {e}", t.line, t.col)

    def _distribution(self) -> DistributionSpec:
        t = self.expect("ident")
        name = t.text.lower()
        self.expect("(")
        scalar = next((s for s in SCALAR_KINDS.values() if name in s.names), None)
        if scalar is not None:
            args = [self.parse_signed_number()]
            for _ in scalar.params[1:]:
                self.expect(",")
                args.append(self.parse_signed_number())
            self.expect(")")
            return scalar.make(*args)
        if name == "discrete":
            pairs = []
            while True:
                v = self.parse_signed_number()
                self.expect(":")
                pr = self.parse_signed_number()
                pairs.append((v, pr))
                if self.at(","):
                    self.next()
                    continue
                break
            self.expect(")")
            return DistributionSpec.discrete(pairs)
        raise ProgramSyntaxError(f"unknown distribution {t.text!r}", t.line, t.col)


def parse_program(text: str) -> SourceProgram:
    """Parse source text into an AST; raises ProgramSyntaxError (or its
    NonLinearExpression / MultipleSamplesInAssignment refinements) with
    line/column on the first error, nesting too deep to parse included,
    and EncodingBlowup when a guard's normal form outgrows the DNF cap."""
    parser = _Parser(tokenize(text))
    return parser.run(parser.parse_program)


def parse_constraint_strings(items: List[str], variables: List[str]) -> Polyhedron:
    """Parse invariant side-car entries like ``"x >= -7"`` against a fixed
    variable table; conjunction semantics, atoms only."""
    constraints: List[LinConstraint] = []
    for s in items:
        parser = _Parser(tokenize(s))
        parser.vars = list(variables)
        pred = parser.run(parser.parse_comparison)
        parser.expect("eof")
        if parser.vars != list(variables):
            unknown = [v for v in parser.vars if v not in variables]
            raise ValueError(f"constraint {s!r} uses undeclared variables {unknown}")
        if len(pred.disjuncts) != 1:
            raise ValueError(f"constraint {s!r} must be a single atom")
        constraints.extend(pred.disjuncts[0].constraints)
    return Polyhedron(constraints)
