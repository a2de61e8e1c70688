"""Parser for the small imperative probabilistic source language.

Statements: `skip`, `x := <linear expr>` (optionally containing one
`sample(<dist>)` term), `x := ndet[lo, hi]`, sequencing with `;`,
`while <pred> do ... od`, and three `if` forms -- `if <pred>`,
`if prob(p)` (probabilistic branch) and `if *` (demonic branch) -- each
with a mandatory `else` and closing `fi`. Predicates are Boolean
combinations of linear comparisons. The full grammar and the lexical
syntax live in docs/lang.md.

`tokenize` reads the text with one regular expression into tokens that
carry their offset; a keyword's or symbol's kind is its own text. A
`ProgramSyntaxError` works out the line and column of an offset only
when it is raised (`ProgramSyntaxError.at`).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import List, NamedTuple, Tuple

from .distributions import SCALAR_KINDS, DistributionSpec
from .linear import (LinConstraint, LinExpr, Polyhedron, Predicate,
                     negate_predicate)
from .model import ExprUpdate, NondetUpdate


class ProgramSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col

    @classmethod
    def at(cls, text: str, pos: int, message: str) -> "ProgramSyntaxError":
        """The error `message` at offset `pos` of the source `text`."""
        return cls(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


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

# one match per token: whitespace and comments are read as the prefix of
# the token that follows them, and `eof` ends the text. Every other
# character starts an alternative (`bad` takes any one that no token
# does). `\s`, `\d` and `\w` read Unicode as `isspace`, `isdecimal` and
# `isalnum` (or "_") do; a word must also start with a letter or "_",
# which `[^\W\d]` alone does not enforce (it takes "\u00b2")
_TOKEN = re.compile(r"""(?: \s+ | \#[^\n]* )*
                        (?: (?P<num>\.?\d[\d.]*) | (?P<word>[^\W\d]\w*)
                          | (?P<sym>:= | <= | >= | == | != | [-<>+*/()\[\],;:])
                          | (?P<eof>\Z) | (?P<bad>.) )""", re.VERBOSE)


class Token(NamedTuple):
    """A token: `kind` is "num", "ident", "eof" (with empty `text`) or the
    keyword or symbol itself; `pos` is its offset into the source text."""
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, pos = m[kind], m.start(kind)
        if kind == "word" and (word[0].isalpha() or word[0] == "_"):
            kind = word if word in KEYWORDS else "ident"
        elif kind == "sym":
            kind = word
        elif kind == "num" and word.count(".") > 1:
            raise ProgramSyntaxError.at(text, pos, f"malformed number {word!r}")
        elif kind in ("word", "bad"):
            raise ProgramSyntaxError.at(text, pos, f"unexpected character {word[0]!r}")
        toks.append(Token(kind, word, pos))
        if kind == "eof":   # which `finditer` may match twice at the end
            return toks


# -- parser ------------------------------------------------------------------


# `lhs op rhs` as a disjunction of atoms, each (constraint, sign of lhs - rhs)
_COMPARISONS = {"<=": [(LinConstraint.le, 1)], "<": [(LinConstraint.lt, 1)],
                ">=": [(LinConstraint.le, -1)], ">": [(LinConstraint.lt, -1)],
                "==": [(LinConstraint.eq, 1)],
                "!=": [(LinConstraint.lt, 1), (LinConstraint.lt, -1)]}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
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

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Token | None:
        """The next token, consumed, if it has `kind`; else None."""
        return self.next() if self.at(kind) else None

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"expected {kind!r}, found {t.text or t.kind!r}")
        return self.next()

    def fail(self, message: str, t: Token | None = None, error=ProgramSyntaxError):
        """Raise `error` with `message` at token `t`, by default the next."""
        raise error.at(self.text, (t or self.peek()).pos, message)

    def run(self, rule):
        """`rule()`; nesting too deep for the interpreter's stack is a
        syntax error at the token reached."""
        try:
            return rule()
        except RecursionError:
            self.fail("nesting too deep to parse")

    def var_index(self, name: str) -> int:
        if name not in self.vars:
            if name == "const":
                self.fail("'const' is reserved and cannot name a variable")
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
        while self.accept(";"):
            if self.peek().kind in ("eof", "od", "fi", "else"):
                break  # tolerate a trailing semicolon
            stmts.append(self.parse_stmt())
        return stmts[0] if len(stmts) == 1 else Seq(stmts)

    def parse_stmt(self) -> Stmt:
        if self.accept("skip"):
            return Skip()
        if self.accept("while"):
            cond = self.parse_predicate()
            self.expect("do")
            body = self.parse_seq()
            self.expect("od")
            return While(cond, body)
        if self.at("if"):
            return self.parse_if()
        if self.at("ident"):
            return self.parse_assign()
        self.fail("expected a statement")

    def parse_if(self) -> Stmt:
        self.expect("if")
        if self.accept("*"):
            make = IfNdet
        elif self.at("prob"):
            t = self.next()
            self.expect("(")
            p = self.parse_signed_number()
            self.expect(")")
            if not 0 < p < 1:
                self.fail(f"branch probability {p} outside (0, 1)", t)
            make = partial(IfProb, p)
        else:
            make = partial(IfCond, self.parse_predicate())
        self.expect("then")
        then = self.parse_seq()
        self.expect("else")
        els = self.parse_seq()
        self.expect("fi")
        return make(then, els)

    def parse_assign(self) -> Stmt:
        # declares the target before its right-hand side
        target = self.var_index(self.expect("ident").text)
        self.expect(":=")
        if self.at("ndet"):
            t = self.next()
            self.expect("[")
            lo = self.parse_signed_number()
            self.expect(",")
            hi = self.parse_signed_number()
            self.expect("]")
            if lo > hi:
                self.fail(f"empty interval [{lo}, {hi}]", t)
            return Assign(NondetUpdate(target, lo, hi))
        expr = self.parse_expr()
        columns = sorted((i for i in expr.coeffs if i < 0), reverse=True)
        if len(columns) > 1:
            t = self.samples[-columns[1] - 1][0]
            self.fail("at most one sample term per assignment", t,
                      MultipleSamplesInAssignment)
        if not columns:
            return Assign(ExprUpdate(target, expr))
        k = columns[0]
        base = LinExpr.owning({i: c for i, c in expr.coeffs.items() if i != k}, expr.constant)
        return Assign(ExprUpdate(target, base, (expr.coeffs[k], self.samples[-k - 1][1])))

    # predicates (built directly in disjunctive normal form)

    def parse_predicate(self) -> Predicate:
        pred = self.parse_and()
        while self.accept("or"):
            pred = pred.disjoin(self.parse_and())
        return pred

    def parse_and(self) -> Predicate:
        pred = self.parse_patom()
        while self.accept("and"):
            pred = pred.conjoin(self.parse_patom())
        return pred

    def parse_patom(self) -> Predicate:
        if self.accept("not"):
            return negate_predicate(self.parse_patom())
        if self.accept("true"):
            return Predicate.true()
        if self.accept("false"):
            return Predicate.false()
        snapshot = self.pos
        if self.accept("("):
            # either a parenthesized predicate or the start of a comparison;
            # a sample read in a comparison is refused however it is read
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
            self.fail("expected a comparison operator")
        self.next()
        diff = lhs - self.parse_expr()
        if len(self.samples) > first:
            self.fail("sampling is not allowed inside predicates", self.samples[first][0],
                      SampleInPredicate)
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
                self.fail("product of two non-constant expressions", op, NonLinearExpression)
            elif not rhs.is_constant():
                self.fail("division by a non-constant", op, NonLinearExpression)
            elif rhs.constant == 0:
                self.fail("division by zero", op)
            else:
                expr = expr.scale(1 / rhs.constant)
        return expr

    def parse_factor(self) -> LinExpr:
        t = self.peek()
        if self.accept("-"):
            return -self.parse_factor()
        if t.kind == "num":
            return LinExpr.const(self.number())
        if self.accept("ident"):
            return LinExpr.var(self.var_index(t.text))
        if self.accept("("):
            e = self.parse_expr()
            self.expect(")")
            return e
        if self.accept("sample"):
            self.expect("(")
            self.samples.append((t, self.parse_distribution()))
            self.expect(")")
            return LinExpr.var(-len(self.samples))
        self.fail("expected an expression")

    def parse_signed_number(self) -> Fraction:
        neg = False
        while self.at("-") or self.at("+"):
            neg ^= self.next().kind == "-"
        value = self.number()
        slash = self.accept("/")
        if slash:
            denom = self.number()
            if denom == 0:
                self.fail("zero denominator", slash)
            value /= denom
        return -value if neg else value

    def number(self) -> Fraction:
        """The value of the next token, a numeric literal."""
        t = self.expect("num")
        try:
            return Fraction(t.text)
        except ValueError:  # a digit run too long to convert to an int
            self.fail(f"number has {max(map(len, t.text.split('.')))} digits in a row, "
                      f"more than the limit of {sys.get_int_max_str_digits()}", t)

    def parse_distribution(self) -> DistributionSpec:
        t = self.peek()
        try:
            return self._distribution()
        except ValueError as e:
            self.fail(f"invalid distribution: {e}", t)

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
                if not self.accept(","):
                    break
            self.expect(")")
            return DistributionSpec.discrete(pairs)
        self.fail(f"unknown distribution {t.text!r}", t)


def parse_program(text: str) -> SourceProgram:
    """Parse source text into an AST; raises ProgramSyntaxError (or its
    NonLinearExpression / MultipleSamplesInAssignment refinements) with
    line/column on the first error, nesting too deep to parse included,
    and EncodingBlowup when a guard's normal form outgrows the DNF cap."""
    parser = _Parser(text)
    return parser.run(parser.parse_program)


def parse_constraint_strings(items: List[str], variables: List[str]) -> Polyhedron:
    """Parse invariant side-car entries like ``"x >= -7"`` against a fixed
    variable table; conjunction semantics, atoms only."""
    constraints: List[LinConstraint] = []
    for s in items:
        parser = _Parser(s)
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
