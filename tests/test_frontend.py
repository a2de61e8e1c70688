"""Parser, lowering, interchange round-trips, and the lowering oracle."""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from probterm import (DistributionSpec, FormatError, MultipleSamplesInAssignment,
                      NonLinearExpression, ProgramSyntaxError, ProbBranch,
                      SampleInPredicate, check_bsp, lower_to_pcfg, parse_program,
                      run_ast, validate_pcfg)
from probterm.linear import Polyhedron
from probterm.lowering import _Builder
from probterm.rationals import rat
from probterm.pcfg_io import (dist_from_json, dist_to_json, invariant_from_json, load_pcfg,
                              pcfg_from_json, pcfg_to_json)
from probterm.simulate import UniformRandom, run_rngs, run_trajectory
from probterm.model import NondetUpdate
from probterm.source import (Assign, IfCond, IfNdet, IfProb, Seq, Skip, SourceProgram,
                             While, tokenize)

from conftest import FIXTURES, fixture_path, load_fixture, load_fixture_ast
from test_strict_rule import workloads


# -- parsing --------------------------------------------------------------------


def test_parse_nested_loops():
    ast = load_fixture_ast("fig1a")
    assert isinstance(ast.body, While)
    assert sorted(ast.variables) == ["x", "y"]
    inner = ast.body.body
    assert isinstance(inner, Seq) and isinstance(inner.stmts[1], While)


def test_parse_reports_position():
    with pytest.raises(ProgramSyntaxError) as e:
        parse_program("while x >= 0 do\n  x := $ od")
    assert e.value.line == 2


def test_end_of_input_after_a_comment_is_at_the_end():
    # the column of the end-of-input token counts the comment's characters,
    # as it counts the spaces that could stand in its place
    for text in ["while x > 0 do x := x - 1 # no od", "while x > 0 do x := x - 1" + " " * 8]:
        with pytest.raises(ProgramSyntaxError) as e:
            parse_program(text)
        assert str(e.value) == "1:34: expected 'od', found 'eof'"


# The token-stream oracle: one sha256 over the tokens of every input below,
# each as (kind, text, line, col), or over the error message where the
# tokenizer refuses the input. The fuzz mixes ASCII with characters on the
# edges of the Unicode classes the lexer reads: a digit that is not decimal
# (U+00B2), an Arabic-Indic decimal digit (U+0661), a numeric that is
# neither (U+00BD), a titlecase letter (U+01C5), a space that is not ASCII
# (U+3000) and a zero-width space that is not whitespace (U+200B).
TOKEN_STREAM_DIGEST = "eafa8cfc32b25158d9c71bed724e5a1457a6b915340ef579f99622d852a23fcf"
TOKEN_FUZZ_SEED = "token stream"
TOKEN_FUZZ_STRINGS = 4000
TOKEN_FUZZ_COMMON = (list("abxyz_0129.#=:<>+-*/()[],; \t\n")
                     + ["while", "do", "od", "if", "then", "fi", "sample", "x1",
                        ":=", "<=", "!=", "1.5", ".5", "1.2.3", "# c\n"])
TOKEN_FUZZ_RARE = ["$", "!", "\u00b2", "\u0661", "\u00bd", "\u01c5", "\u3000", "\u200b"]


def token_record(text, t):
    """(kind, text, line, col) of token `t` of `text`. The digest was
    valued when tokens carried their line and column and a keyword had kind
    "kw"; a token that carries its offset `pos` instead has them worked out
    from it, and a keyword's kind is its text either way."""
    kind = t.text if t.kind == "kw" else t.kind
    if hasattr(t, "pos"):
        return kind, t.text, text.count("\n", 0, t.pos) + 1, t.pos - text.rfind("\n", 0, t.pos)
    return kind, t.text, t.line, t.col


def token_stream_sources() -> list:
    fixtures = []
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".prob"):
            with open(fixture_path(name)) as f:
                fixtures.append(f.read())
    found = set(workloads.read_json("expected.json")["corpus"]["found"])
    corpus = workloads.corpus_sources([i in found for i in range(workloads.CORPUS_SIZE)])
    ladders = [workloads.ladder_source(k, noisy) for noisy in (False, True)
               for k in range(1, 7)]
    rng = random.Random(TOKEN_FUZZ_SEED)
    fuzz = ["".join(rng.choice(TOKEN_FUZZ_RARE if rng.random() < 0.1 else TOKEN_FUZZ_COMMON)
                    for _ in range(rng.randrange(25)))
            for _ in range(TOKEN_FUZZ_STRINGS)]
    return fixtures + corpus + ladders + fuzz


def test_token_stream_digest():
    h = hashlib.sha256()
    for text in token_stream_sources():
        try:
            record = [token_record(text, t) for t in tokenize(text)]
        except ProgramSyntaxError as e:
            record = str(e)
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == TOKEN_STREAM_DIGEST


# The AST oracle: one sha256 over what `parse_program` returns for every
# input of the token-stream oracle, as the canonical dump `ast_record`, or
# over the error's class and message where it refuses the input.
AST_DIGEST = "d4eb877d2561984625af012d0868c74d7dcdc45b2a862848563e8cc9b50a1309"


def ast_record(node):
    """A nested tuple of plain values that says everything about a parsed
    program or statement: its variables, each statement, every predicate
    atom, every coefficient (as a string, in the order the expression
    keeps them) and each distribution's kind, mean, support and params."""
    def rational(v):
        return tuple(map(rational, v)) if isinstance(v, tuple) else str(v)

    def expr(e):
        return tuple((i, str(c)) for i, c in e.coeffs.items()), str(e.constant)

    def pred(p):
        return tuple(tuple((c.rel.value, expr(c.lhs)) for c in d.constraints)
                     for d in p.disjuncts)

    def dist(d):
        return (d.kind.value, str(d.mean), str(d.support_lo), str(d.support_hi),
                tuple((k, rational(v)) for k, v in d.params))

    if isinstance(node, SourceProgram):
        return "program", tuple(node.variables), ast_record(node.body)
    if isinstance(node, Skip):
        return ("skip",)
    if isinstance(node, Assign):
        u = node.update
        if isinstance(u, NondetUpdate):
            return "ndet", u.target, str(u.lo), str(u.hi)
        sample = None if u.sample is None else (str(u.sample[0]), dist(u.sample[1]))
        return "assign", u.target, expr(u.base), sample
    if isinstance(node, Seq):
        return "seq", tuple(map(ast_record, node.stmts))
    if isinstance(node, While):
        return "while", pred(node.cond), ast_record(node.body)
    if isinstance(node, IfCond):
        return "if", pred(node.cond), ast_record(node.then), ast_record(node.els)
    if isinstance(node, IfProb):
        return "if prob", str(node.p), ast_record(node.then), ast_record(node.els)
    assert isinstance(node, IfNdet), node
    return "if *", ast_record(node.then), ast_record(node.els)


def test_ast_digest():
    h = hashlib.sha256()
    for text in token_stream_sources():
        try:
            record = ast_record(parse_program(text))
        except ProgramSyntaxError as e:
            record = type(e).__name__, str(e)
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == AST_DIGEST


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no digit limit is set")
@pytest.mark.parametrize("template,col", [("x := {}", 6), ("x := x - 0.{}", 10),
                                          ("if prob(0.{}) then skip else skip fi", 9)],
                         ids=["integer", "decimal", "probability"])
def test_literal_beyond_the_digit_limit_is_a_syntax_error(template, col):
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 1)
    message = f"number has {limit + 1} digits in a row, more than the limit of {limit}"
    with pytest.raises(ProgramSyntaxError) as e:
        parse_program(template.format(digits))
    assert str(e.value) == f"1:{col}: {message}"
    # the literal just inside the limit is read
    parse_program(template.format(digits[1:]))
    p = lower_to_pcfg(parse_program("while x >= 0 do x := x - 1 od"))
    with pytest.raises(FormatError, match=f"^\\$\\.l0: 1:6: {message}$"):
        invariant_from_json({"l0": [f"x >= {digits}"]}, p)


def test_nonlinear_rejected():
    with pytest.raises(NonLinearExpression):
        parse_program("while x >= 0 do x := x * x od")


def test_two_samples_rejected():
    with pytest.raises(MultipleSamplesInAssignment):
        parse_program("x := sample(norm(0,1)) + sample(unif(0,1))")


def test_sampling_in_guard_rejected():
    with pytest.raises(ProgramSyntaxError):
        parse_program("while sample(norm(0,1)) >= 0 do skip od")


def test_parenthesized_guard_keeps_its_sampling_error():
    # the parser reads "(" as a predicate first and backtracks to an
    # expression on a syntax error, but never past a sample in a comparison
    with pytest.raises(SampleInPredicate, match="^1:8: "):
        parse_program("while (sample(norm(0,1)) >= 0) do skip od")
    assert (parse_program("while (x + 1) >= 0 do x := x - 1 od")
            == parse_program("while x >= -1 do x := x - 1 od"))


def test_empty_program_is_skip():
    ast = parse_program("")
    assert isinstance(ast.body, Skip)
    p = lower_to_pcfg(ast)
    assert len(p.transitions) == 1
    t = p.transitions[0]
    assert t.source == p.init_location and t.kind.dest == p.terminal_location
    assert t.kind.guard.is_true()


@pytest.mark.parametrize("source", [
    "x := " + "(" * 400 + "1" + ")" * 400,
    "while " + "(" * 400 + "x >= 0" + ")" * 400 + " do x := x - 1 od",
], ids=["expression", "guard"])
def test_deep_nesting_is_a_syntax_error(source):
    with pytest.raises(ProgramSyntaxError) as e:
        parse_program(source)
    assert "nesting too deep" in str(e.value) and e.value.line == 1


def test_deep_nesting_in_an_invariant_is_a_format_error():
    p = lower_to_pcfg(parse_program("while x >= 0 do x := x - 1 od"))
    with pytest.raises(FormatError) as e:
        invariant_from_json({"l0": ["(" * 400 + "x" + ")" * 400 + " >= 0"]}, p)
    assert "nesting too deep" in str(e.value)


def test_constant_arithmetic_folds_exactly():
    ast = parse_program("x := 0.1 + 1/2 * x")
    assert ast.body.update.base == __import__("probterm").LinExpr(
        {0: Fraction(1, 2)}, Fraction(1, 10))


def test_sample_times_zero_is_dropped():
    # the draw would be read by nothing, and would make the support unbounded
    ast = parse_program("x := 0 * sample(norm(0, 1))")
    assert ast.body.update.sample is None and ast.body.update.base.is_constant()
    p = lower_to_pcfg(ast)
    assert all(t.samples_from() is None for t in p.transitions)
    assert check_bsp(p)[0]


# -- lowering shape ----------------------------------------------------------------


def test_fig1a_lowering_shape(fig1a):
    p, _ = fig1a
    assert sorted(p.locations) == ["l0", "l1", "out"]
    assert len(p.transitions) == 4
    # inner self-loop carries the sampling update
    self_loops = [t for t in p.transitions
                  if not t.is_pb and t.kind.dest == t.source]
    assert len(self_loops) == 1 and self_loops[0].source == "l1"
    d = self_loops[0].samples_from()
    assert d is not None and not d.bounded


def test_fig1b_lowering_shape(fig1b):
    p, _ = fig1b
    assert sorted(p.locations) == ["l0", "l1", "out"]
    assert len(p.transitions) == 4
    # the else-branch got one extra location so each transition carries
    # at most one assignment
    into_l1 = [t for t in p.transitions if not t.is_pb and t.kind.dest == "l1"]
    out_of_l1 = [t for t in p.transitions if t.source == "l1"]
    assert len(into_l1) == 1 and len(out_of_l1) == 1
    assert into_l1[0].samples_from() is not None
    assert out_of_l1[0].samples_from() is not None


def test_every_fixture_lowers_clean():
    for name in ["fig1a", "fig1b", "countdown", "diverge_inc", "diverge_const",
                 "zero_drift_walk", "straightline", "branching"]:
        p, _ = load_fixture(name)
        assert validate_pcfg(p) == [], name
        for t in p.transitions:
            if t.is_pb:
                assert t.guard().is_true()
            updates = 0 if t.update().pretty() == "skip" else 1
            assert updates <= 1


def test_statically_dead_branches_are_dropped():
    from probterm.simulate import UniformRandom, run_trajectory
    for src, terminates in [("while false do x := 1 od", True),
                            ("if false then x := 1; x := 2 else skip fi", True),
                            ("while true do x := x - 1 od", False)]:
        p = lower_to_pcfg(parse_program(src))
        assert validate_pcfg(p) == [], src
        r = run_trajectory(p, [Fraction(5)], UniformRandom(), 100, seed=0)
        assert r.terminated == terminates, src


def test_skip_loop_lowering():
    p = lower_to_pcfg(parse_program("while x >= 0 do skip od"))
    assert validate_pcfg(p) == []
    assert len(p.locations) == 2  # loop head + terminal
    loops = [t for t in p.transitions if t.kind.dest == t.source]
    assert len(loops) == 1


def test_probabilistic_branch_lowering():
    p = lower_to_pcfg(parse_program(
        "while x >= 0 do if prob(0.25) then x := x - 1 else x := x + 1 fi od"))
    pbs = [t for t in p.transitions if t.is_pb]
    assert len(pbs) == 1
    assert pbs[0].kind.p1 == Fraction(1, 4) and pbs[0].kind.p2 == Fraction(3, 4)
    assert validate_pcfg(p) == []


# -- interchange round-trips ----------------------------------------------------------


def test_json_roundtrip_all_fixture_files():
    for name in os.listdir(FIXTURES):
        if not name.endswith(".pcfg.json"):
            continue
        path = fixture_path(name)
        p = load_pcfg(path)
        doc1 = pcfg_to_json(p)
        with open(path) as f:
            assert doc1 == json.load(f), name
        assert pcfg_to_json(pcfg_from_json(doc1)) == doc1, name


def test_roundtrip_through_objects(fig1b):
    p, _ = fig1b
    doc = pcfg_to_json(p)
    p2 = pcfg_from_json(doc)
    assert pcfg_to_json(p2) == doc
    assert p2.variables == p.variables and p2.locations == p.locations


def test_missing_terminal_is_format_error():
    doc = pcfg_to_json(load_fixture("countdown")[0])
    del doc["terminal"]
    with pytest.raises(FormatError) as e:
        pcfg_from_json(doc)
    assert "terminal" in str(e.value)


def test_bad_rational_reports_json_path(fig1b):
    doc = pcfg_to_json(fig1b[0])
    doc["transitions"][1]["update"]["sample"]["coeff"] = "one half"
    with pytest.raises(FormatError) as e:
        pcfg_from_json(doc)
    assert "sample.coeff" in str(e.value)


def test_declared_mean_must_match():
    doc = pcfg_to_json(load_fixture("fig1b")[0])
    doc["transitions"][1]["update"]["sample"]["dist"]["mean"] = "0"
    with pytest.raises(FormatError) as e:
        pcfg_from_json(doc)
    assert "mean" in str(e.value)


def _dist(kind, params, mean, support):
    return {"kind": kind, "params": params, "mean": mean, "support": support}


# every source name of every kind -> (what `pretty` writes, the `dist` of
# the pCFG JSON of `x := sample(...)`)
DISTRIBUTIONS = {
    "norm(1, 2)": ("norm(1, 2)",
                   _dist("normal", {"mean": "1", "stddev": "2"}, "1", ["-inf", "inf"])),
    "normal(-1/2, 3)": ("norm(-1/2, 3)",
                        _dist("normal", {"mean": "-1/2", "stddev": "3"}, "-1/2",
                              ["-inf", "inf"])),
    "Gaussian(0, 1/4)": ("norm(0, 1/4)",
                         _dist("normal", {"mean": "0", "stddev": "1/4"}, "0", ["-inf", "inf"])),
    "unif(-1, 3)": ("unif(-1, 3)",
                    _dist("uniform", {"lo": "-1", "hi": "3"}, "1", ["-1", "3"])),
    "uniform(1/2, 1/2)": ("unif(1/2, 1/2)",
                          _dist("uniform", {"lo": "1/2", "hi": "1/2"}, "1/2", ["1/2", "1/2"])),
    "bern(1/3)": ("bern(1/3)", _dist("bernoulli", {"p": "1/3"}, "1/3", ["0", "1"])),
    "bernoulli(1)": ("bern(1)", _dist("bernoulli", {"p": "1"}, "1", ["0", "1"])),
    "discrete(-1: 1/4, 3: 3/4)": ("discrete(-1: 1/4, 3: 3/4)",
                                  _dist("discrete", {"values": [["-1", "1/4"], ["3", "3/4"]]},
                                        "2", ["-1", "3"])),
}


@pytest.mark.parametrize("source", sorted(DISTRIBUTIONS))
def test_distribution_kinds(source):
    pretty, dist = DISTRIBUTIONS[source]
    doc = pcfg_to_json(lower_to_pcfg(parse_program(f"x := sample({source})")))
    assert doc["transitions"] == [{
        "id": "t0", "source": "l0", "kind": "npb", "dest": "out", "guard": [[]],
        "update": {"kind": "expr", "target": "x", "base": {"const": "0"},
                   "sample": {"coeff": "1", "dist": dist}}}]
    spec = dist_from_json(dist, "$")
    assert spec.pretty() == pretty
    assert dist_to_json(spec) == dist
    assert pcfg_to_json(pcfg_from_json(doc)) == doc
    # what `pretty` writes parses back to the same distribution
    again = pcfg_to_json(lower_to_pcfg(parse_program(f"x := sample({pretty})")))
    assert again == doc


def test_custom_distribution_goes_through_json():
    dist = _dist("custom", {"sampler": "mine"}, "-1", ["-2", "inf"])
    spec = dist_from_json(dist, "$")
    assert spec == DistributionSpec.custom("mine", -1, -2, None)
    assert spec.pretty() == "custom(mine)"
    assert dist_to_json(spec) == dist


@pytest.mark.parametrize("support,read", [
    (["-inf", "inf"], (None, None)), (["-oo", "+oo"], (None, None)),
    (["-2", "oo"], (-2, None)), (["-inf", "+inf"], (None, None)),
    (["-2", "-inf"], "an upper end cannot be minus infinity"),
    (["inf", "0"], "a lower end cannot be plus infinity"),
    (["+oo", "-oo"], "a lower end cannot be plus infinity"),
    (["inf", "-inf"], "a lower end cannot be plus infinity")])
def test_an_infinite_end_has_its_own_sign(support, read):
    # `-inf` as an upper end was read as `+inf`, `inf` as a lower end as `-inf`
    dist = _dist("custom", {"sampler": "mine"}, "-1", support)
    if isinstance(read, str):
        with pytest.raises(FormatError, match=rf"^\$\.support: bad rational .*: {read}$"):
            dist_from_json(dist, "$")
    else:
        spec = dist_from_json(dist, "$")
        assert (spec.support_lo, spec.support_hi) == read


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no digit limit is set")
@pytest.mark.parametrize("template", ["1e{}", "-1E-{}", "0.5e{}", "1_0.e-{}", " 2e+{} "])
def test_rational_exponent_at_the_digit_limit(template):
    # mantissa digits plus the exponent's magnitude, at the limit and one past
    limit = sys.get_int_max_str_digits()
    at, past = (template.format(limit - sum(c.isdigit() for c in template) + k)
                for k in (0, 1))
    assert dist_from_json({"kind": "discrete", "params": {"values": [[at, "1"]]}},
                          "$").mean == rat(at)
    message = (f"its numerator or denominator could have {limit + 1} digits, "
               f"more than the limit of {limit}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        rat(past)
    with pytest.raises(FormatError, match=rf"^\$: bad rational .*: {message}$"):
        dist_from_json({"kind": "discrete", "params": {"values": [[past, "1"]]}}, "$")


def test_loaded_fixture_passes_validation():
    p = load_pcfg(fixture_path("fig2left.pcfg.json"))
    assert validate_pcfg(p) == []


def test_certificate_roundtrip(fig1b, tmp_path):
    from probterm import load_certificate
    from probterm.pcfg_io import certificate_to_json, json_text
    from conftest import example3_certificate
    p, _ = fig1b
    cert = example3_certificate(p)
    path = tmp_path / "c.json"
    path.write_text(json_text(certificate_to_json(cert, p)))
    again = load_certificate(path, p)
    assert certificate_to_json(again, p) == certificate_to_json(cert, p)
    assert again.lem.components == cert.lem.components
    assert again.levels == cert.levels and again.mode is cert.mode


# -- the lowering oracle ------------------------------------------------------------


# a probabilistic branch with two empty arms, alone and in a loop body;
# and rational coefficients, constants, distribution and interval bounds
# and branch probability in a loop that reads two variables
INLINE = {
    "empty_arms": "if prob(1/2) then skip else skip fi; x := x + 1",
    "empty_arms_loop": "while x <= 5 do if prob(1/2) then skip else skip fi; x := x + 1 od",
    "rational_updates": ("while x >= 1 do x := x / 3 + 2/5 * sample(unif(-1/2, 1)) - 1/7 + 3/4 * y; "
                         "y := ndet[-1/3, 2/3]; if prob(2/7) then x := x - 1/2 else skip fi od"),
}


@pytest.mark.parametrize("name,init,cap", [
    ("fig1a", {"x": 2, "y": 3}, 10 ** 6),
    ("fig1b", {"x": 3, "y": 3}, 10 ** 6),
    ("countdown", {"x": 9}, 10 ** 4),
    ("straightline", {"x": 0, "y": 0}, 10 ** 4),
    ("branching", {"x": 4, "y": 5}, 10 ** 5),
    ("prob_join", {"x": 5, "y": 0}, 10 ** 5),
    ("bern_walk", {"x": 6}, 10 ** 5),
    ("empty_arms", {"x": 0}, 10 ** 3),
    ("empty_arms_loop", {"x": 0}, 10 ** 3),
    ("rational_updates", {"x": Fraction(40, 3), "y": Fraction(1, 2)}, 10 ** 4),
])
def test_ast_and_graph_traces_agree(name, init, cap):
    ast = parse_program(INLINE[name]) if name in INLINE else load_fixture_ast(name)
    p = lower_to_pcfg(ast)
    assert validate_pcfg(p) == []
    values = [Fraction(init.get(v, 0)) for v in p.variables]
    for i in range(100):
        ref = run_ast(ast, values, next(run_rngs(1000, [i])), step_cap=cap)
        sim = run_trajectory(p, values, UniformRandom(), cap,
                             seed=1000, run_index=i, record_states=False)
        assert ref.terminated == sim.terminated, (name, i)
        assert ref.draws == sim.draws, (name, i)
        if ref.terminated:
            assert ref.values == sim.final_values, (name, i)


@pytest.mark.parametrize("src,transitions", [
    # a disjunct repeated in the guard, and one repeated in its negation
    # (corpus program 38): each lowers to one transition
    ("while x >= 0 or x >= 0 do x := x - 1 od", 2),
    ("while y <= -2 and y <= -2 do y := ndet[-3, -2] od", 2),
    # the two arms of an `if *` stay two transitions, one per draw of
    # `run_ast`
    ("while x >= 0 do if * then skip else skip fi; x := x - 1 od", 4),
])
def test_repeated_disjuncts_lower_once(src, transitions):
    ast = parse_program(src)
    p = lower_to_pcfg(ast)
    assert validate_pcfg(p) == []
    assert len(p.transitions) == transitions
    values = [Fraction(0)] * len(p.variables)
    for seed in range(1, 6):
        ref = run_ast(ast, values, next(run_rngs(seed, [0])), step_cap=100)
        sim = run_trajectory(p, values, UniformRandom(), 100, seed=seed,
                             record_states=False)
        assert ref.terminated and sim.terminated, seed
        assert (ref.draws, ref.values) == (sim.draws, sim.final_values), seed


class _CountedList(list):
    """A list that counts how often it is iterated."""
    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_renaming_and_validation_read_the_transitions_a_fixed_number_of_times():
    # 200 sequential `if`s, not contracted: naming the locations breadth
    # first and checking that each has an exit read the transition list
    # a fixed number of times, not once per location
    n = 200
    ast = parse_program("y := 0; " + "; ".join(["if y >= 0 then y := y + 1 "
                                                  "else y := y - 1 fi"] * n))
    builder = _Builder(ast.variables)
    entry = builder.fresh()
    builder.lower(ast.body, entry, builder.terminal)
    builder.transitions = _CountedList(builder.transitions)
    p = builder.finish(entry)
    assert len(p.locations) > 3 * n and builder.transitions.reads <= 2
    p.transitions = _CountedList(p.transitions)
    assert validate_pcfg(p) == [] and p.transitions.reads == 1


class _CountedName(str):
    """A location name that counts how often it is hashed."""
    hashes = 0

    def __hash__(self):
        _CountedName.hashes += 1
        return str.__hash__(self)


def test_contraction_work_grows_linearly(monkeypatch):
    # `y := 0` then n sequential `if`s, lowered with location names that
    # count how often a map or set hashes them: each rewrite of the
    # contraction touches a few locations, so the count grows linearly in
    # n, where a rescan from the first location after every rewrite makes
    # it grow with n squared
    monkeypatch.setattr(_Builder, "fresh",
                        lambda self: _CountedName(f"q{next(self.counter)}"))

    def hashes(n):
        ast = parse_program("y := 0; " + "; ".join(["if y >= 0 then y := y + 1 "
                                                      "else y := y - 1 fi"] * n))
        _CountedName.hashes = 0
        p = lower_to_pcfg(ast)
        assert len(p.transitions) == 2 * n + 1
        return _CountedName.hashes

    small, large = hashes(100), hashes(200)
    assert large <= 2.1 * small, (small, large)


def test_distinct_disjuncts_are_found_in_linear_time(monkeypatch):
    # a 500-disjunct guard: its disjuncts are told apart by hashing, with
    # no pairwise comparison of polyhedra
    n = 500
    ast = parse_program("while " + " or ".join(f"x >= {i}" for i in range(n))
                        + " do x := x - 1 od")
    calls = 0
    compare = Polyhedron.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return compare(self, other)

    monkeypatch.setattr(Polyhedron, "__eq__", counted)
    p = lower_to_pcfg(ast)
    assert len(p.transitions) == n + 2
    assert calls <= n
