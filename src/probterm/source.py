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
from typing import Dict, List, NamedTuple, Tuple

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

# one match per token, as (prefix, token): whitespace and comments are the
# prefix of the token that follows them, the empty token at the end of the
# text is `eof`, and every other character starts a token. A word must
# start with a letter or "_", which `[^\W\d]` alone does not enforce (it
# takes "²"), a number holds one "." at most, and any other token that
# `_KINDS` does not name ("=" or "!" alone, or what the last alternative
# takes) is refused. `\s`, `\d` and `\w` read Unicode as `isspace`,
# `isdecimal` and `isalnum` (or "_") do.
_TOKEN = re.compile(r"""(\s* (?: \#[^\n]* \s* )*)
                        ( [^\W\d]\w* | [-+*/()\[\],;] | [:<>=!]=? | \.?\d[\d.]* | \Z | . )""",
                    re.VERBOSE)

# the kind of every token whose text names it: keywords, symbols and `eof`
_KINDS = {word: word for word in (*KEYWORDS, ":=", "<=", ">=", "==", "!=", *"-<>+*/()[],;:")}
_KINDS[""] = "eof"


class Token(NamedTuple):
    """A token: `kind` is "num", "ident", "eof" (with empty `text`) or the
    keyword or symbol itself; `pos` is its offset into the source text."""
    kind: str
    text: str
    pos: int


def scan(text: str) -> Tuple[List[str], List[str], List[int]]:
    """The kind, text and offset of each token of `text`, as three lists,
    the last token `eof`."""
    kinds, words, starts, pos = [], [], [], 0
    for prefix, word in _TOKEN.findall(text):
        pos += len(prefix)
        kind = _KINDS.get(word)
        if kind is None:
            c = word[0]
            if c.isalpha() or c == "_":
                kind = "ident"
            elif c.isdecimal() or c == "." and word != ".":
                if word.count(".") > 1:
                    raise ProgramSyntaxError.at(text, pos, f"malformed number {word!r}")
                kind = "num"
            else:
                raise ProgramSyntaxError.at(text, pos, f"unexpected character {c!r}")
        kinds.append(kind)
        words.append(word)
        starts.append(pos)
        if kind == "eof":   # which `findall` may match twice at the end
            return kinds, words, starts
        pos += len(word)


def tokenize(text: str) -> List[Token]:
    return list(map(Token, *scan(text)))


# -- parser ------------------------------------------------------------------


# `lhs op rhs` as a disjunction of atoms, each (constraint, sign of lhs - rhs)
_COMPARISONS = {"<=": [(LinConstraint.le, 1)], "<": [(LinConstraint.lt, 1)],
                ">=": [(LinConstraint.le, -1)], ">": [(LinConstraint.lt, -1)],
                "==": [(LinConstraint.eq, 1)],
                "!=": [(LinConstraint.lt, 1), (LinConstraint.lt, -1)]}


class _Parser:
    """Recursive descent over the tokens of `scan`, each named by its
    index: a rule reads the kind of the token at `pos` once and dispatches
    on it."""

    def __init__(self, text: str, variables: List[str] = ()):
        self.text = text
        self.kinds, self.words, self.starts = scan(text)
        self.pos = 0
        self.vars: List[str] = list(variables)
        # an expression is one LinExpr, whose column -k is the k-th sample
        # term read: samples[k - 1] holds its `sample` token and distribution
        self.samples: List[Tuple[int, DistributionSpec]] = []
        self.dists: Dict[str, DistributionSpec] = {}   # by text up to ")"

    def expect(self, kind: str) -> int:
        """The next token, consumed; a syntax error unless it has `kind`."""
        if self.kinds[self.pos] != kind:
            self.fail(f"expected {kind!r}, found {self.words[self.pos] or self.kinds[self.pos]!r}")
        self.pos += 1
        return self.pos - 1

    def fail(self, message: str, at: int | None = None, error=ProgramSyntaxError):
        """Raise `error` with `message` at token `at`, by default the next."""
        raise error.at(self.text, self.starts[self.pos if at is None else at], message)

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
        if self.kinds[0] == "eof":
            return SourceProgram(Skip(), [])
        body = self.parse_seq()
        self.expect("eof")
        return SourceProgram(body, list(self.vars))

    def parse_seq(self) -> Stmt:
        stmts = [self.parse_stmt()]
        while self.kinds[self.pos] == ";":
            self.pos += 1
            if self.kinds[self.pos] in ("eof", "od", "fi", "else"):
                break  # tolerate a trailing semicolon
            stmts.append(self.parse_stmt())
        return stmts[0] if len(stmts) == 1 else Seq(stmts)

    def parse_stmt(self) -> Stmt:
        kind = self.kinds[self.pos]
        self.pos += 1
        if kind == "ident":
            # declares the target, once read, before its right-hand side
            return self.parse_assign(self.var_index(self.words[self.pos - 1]))
        if kind == "if":
            return self.parse_if()
        if kind == "while":
            cond = self.parse_predicate()
            self.expect("do")
            body = self.parse_seq()
            self.expect("od")
            return While(cond, body)
        if kind == "skip":
            return Skip()
        self.fail("expected a statement", self.pos - 1)

    def parse_if(self) -> Stmt:
        t = self.pos
        if self.kinds[t] == "*":
            self.pos += 1
            make = IfNdet
        elif self.kinds[t] == "prob":
            self.pos += 1
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

    def parse_assign(self, target: int) -> Stmt:
        self.expect(":=")
        t = self.pos
        if self.kinds[t] == "ndet":
            self.pos += 1
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
            self.fail("at most one sample term per assignment", self.samples[-columns[1] - 1][0],
                      MultipleSamplesInAssignment)
        if not columns:
            return Assign(ExprUpdate(target, expr))
        k = columns[0]
        base = LinExpr.owning({i: c for i, c in expr.coeffs.items() if i != k}, expr.constant)
        return Assign(ExprUpdate(target, base, (expr.coeffs[k], self.samples[-k - 1][1])))

    # predicates (built directly in disjunctive normal form)

    def parse_predicate(self) -> Predicate:
        pred = self.parse_and()
        while self.kinds[self.pos] == "or":
            self.pos += 1
            pred = pred.disjoin(self.parse_and())
        return pred

    def parse_and(self) -> Predicate:
        pred = self.parse_patom()
        while self.kinds[self.pos] == "and":
            self.pos += 1
            pred = pred.conjoin(self.parse_patom())
        return pred

    def parse_patom(self) -> Predicate:
        kind = self.kinds[self.pos]
        self.pos += 1
        if kind == "not":
            return negate_predicate(self.parse_patom())
        if kind in ("true", "false"):
            return Predicate.true() if kind == "true" else Predicate.false()
        if kind == "(":
            # either a parenthesized predicate or the start of a comparison;
            # a sample read in a comparison is refused however it is read
            snapshot = self.pos
            try:
                inner = self.parse_predicate()
                self.expect(")")
                return inner
            except SampleInPredicate:
                raise
            except ProgramSyntaxError:
                self.pos = snapshot
        self.pos -= 1
        return self.parse_comparison()

    def parse_comparison(self) -> Predicate:
        first = len(self.samples)
        lhs = self.parse_expr()
        atoms = _COMPARISONS.get(self.kinds[self.pos])
        if atoms is None:
            self.fail("expected a comparison operator")
        self.pos += 1
        diff = lhs - self.parse_expr()
        if len(self.samples) > first:
            self.fail("sampling is not allowed inside predicates", self.samples[first][0],
                      SampleInPredicate)
        return Predicate([Polyhedron([atom(diff if sign > 0 else -diff)])
                          for atom, sign in atoms])

    # linear expressions; sample terms are negative columns

    def parse_expr(self) -> LinExpr:
        expr = self.parse_term()
        while self.kinds[self.pos] in ("+", "-"):
            self.pos += 1
            if self.kinds[self.pos - 1] == "-":
                expr = expr - self.parse_term()
            else:
                expr = expr + self.parse_term()
        return expr

    def parse_term(self) -> LinExpr:
        expr = self.parse_factor()
        while self.kinds[self.pos] in ("*", "/"):
            op = self.pos
            self.pos += 1
            rhs = self.parse_factor()
            if self.kinds[op] == "*" and rhs.is_constant():
                expr = expr.scale(rhs.constant)
            elif self.kinds[op] == "*" and expr.is_constant():
                expr = rhs.scale(expr.constant)
            elif self.kinds[op] == "*":
                self.fail("product of two non-constant expressions", op, NonLinearExpression)
            elif not rhs.is_constant():
                self.fail("division by a non-constant", op, NonLinearExpression)
            elif rhs.constant == 0:
                self.fail("division by zero", op)
            else:
                expr = expr.scale(1 / rhs.constant)
        return expr

    def parse_factor(self) -> LinExpr:
        kind = self.kinds[self.pos]
        self.pos += 1
        if kind == "ident":
            return LinExpr.var(self.var_index(self.words[self.pos - 1]))
        if kind == "num":
            return LinExpr.owning({}, self.number(self.pos - 1))
        if kind == "-":
            return -self.parse_factor()
        if kind == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if kind == "sample":
            self.samples.append((self.pos - 1, self.parse_distribution()))
            return LinExpr.var(-len(self.samples))
        self.fail("expected an expression", self.pos - 1)

    def parse_signed_number(self) -> Fraction:
        neg = False
        while self.kinds[self.pos] in ("-", "+"):
            neg ^= self.kinds[self.pos] == "-"
            self.pos += 1
        value = self.number(self.expect("num"))
        if self.kinds[self.pos] == "/":
            self.pos += 1
            denom = self.number(self.expect("num"))
            if denom == 0:
                self.fail("zero denominator", self.pos - 2)
            value /= denom
        return -value if neg else value

    def number(self, t: int) -> Fraction:
        """The value of token `t`, a numeric literal."""
        text = self.words[t]
        try:
            return Fraction(int(text) if text.isdecimal() else text)
        except ValueError:  # a digit run too long to convert to an int
            self.fail(f"number has {max(map(len, text.split('.')))} digits in a row, "
                      f"more than the limit of {sys.get_int_max_str_digits()}", t)

    def parse_distribution(self) -> DistributionSpec:
        """The `(name(args))` after `sample`; one distribution is built
        per text in a parse."""
        self.expect("(")
        t = self.expect("ident")
        name = self.words[t].lower()
        self.expect("(")
        scalar = next((s for s in SCALAR_KINDS.values() if name in s.names), None)
        if scalar is not None:
            args = [self.parse_signed_number()]
            for _ in scalar.params[1:]:
                self.expect(",")
                args.append(self.parse_signed_number())
            make = partial(scalar.make, *args)
        elif name == "discrete":
            pairs = []
            while True:
                v = self.parse_signed_number()
                self.expect(":")
                pairs.append((v, self.parse_signed_number()))
                if self.kinds[self.pos] != ",":
                    break
                self.pos += 1
            make = partial(DistributionSpec.discrete, pairs)
        else:
            self.fail(f"unknown distribution {self.words[t]!r}", t)
        key = self.text[self.starts[t]:self.starts[self.expect(")")]]
        if key not in self.dists:
            try:
                self.dists[key] = make()
            except ValueError as e:
                self.fail(f"invalid distribution: {e}", t)
        self.expect(")")
        return self.dists[key]


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
        parser = _Parser(s, variables)
        pred = parser.run(parser.parse_comparison)
        parser.expect("eof")
        if parser.vars != list(variables):
            unknown = [v for v in parser.vars if v not in variables]
            raise ValueError(f"constraint {s!r} uses undeclared variables {unknown}")
        if len(pred.disjuncts) != 1:
            raise ValueError(f"constraint {s!r} must be a single atom")
        constraints.extend(pred.disjuncts[0].constraints)
    return Polyhedron(constraints)
