"""JSON interchange for programs, invariants and certificates.

All rationals travel as "p/q" strings, interval ends as "p/q" or
"-inf"/"inf", distributions as {kind, params, mean, support}. The exact
grammar is documented in docs/formats.md; `x_from_json(x_to_json(x))`
is the identity for every object round-tripped here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .distributions import SCALAR_KINDS, DistKind, DistributionSpec
from .linear import LinConstraint, LinExpr, Polyhedron, Predicate, Rel
from .model import (Certificate, CertificateMode, ExprUpdate, GuardedStep,
                    Invariant, LinExprMap, NoUpdate, NondetUpdate, PCFG,
                    ProbBranch, Transition)
from .rationals import format_bound, parse_bound, rat
from .source import ProgramSyntaxError, parse_constraint_strings


class FormatError(Exception):
    """Malformed interchange document; `path` points at the offender."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


def _get(obj, key, path, expected=None):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"missing key {key!r}", path)
    value = obj[key]
    # JSON `true` loads as a bool, which Python counts as an int
    if expected is not None and (not isinstance(value, expected)
                                 or expected is int and isinstance(value, bool)):
        raise FormatError(f"key {key!r} has wrong type", f"{path}.{key}")
    return value


SHOWN = 40
"""The most characters of a refused value's repr that an error repeats."""


def _brief(value) -> str:
    """The repr of `value`; past `SHOWN` characters, its start and length."""
    text = repr(value)
    return text if len(text) <= SHOWN else f"{text[:SHOWN]}... ({len(text)} characters)"


def _rat(text, path, parse=rat) -> Fraction:
    try:
        return parse(text)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        # `rat` and `Fraction` repeat the value, stripped, in their messages
        value = text.strip() if isinstance(text, str) else text
        raise FormatError(f"bad rational {_brief(text)}: "
                          f"{str(e).replace(repr(value), _brief(value))}", path)


def _support(obj, path) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    ends = _get(obj, "support", path, list)
    if len(ends) != 2:
        raise FormatError("support must list two interval ends", f"{path}.support")
    return tuple(_rat(end, f"{path}.support", lambda text: parse_bound(text, lower=lower))
                 for end, lower in zip(ends, (True, False)))


def _read_json(path: str):
    """The JSON document in the file at `path`. A file that is not UTF-8
    JSON is a FormatError; one that cannot be opened raises OSError."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise FormatError(f"not valid JSON: {e}")


def json_text(doc) -> str:
    """`doc` as the text of a JSON file: indented by two, ending in a newline."""
    return json.dumps(doc, indent=2) + "\n"


# -- linear expressions ------------------------------------------------------


def linexpr_to_json(e: LinExpr, variables: List[str]) -> Dict[str, str]:
    out = {variables[i]: str(c) for i, c in sorted(e.coeffs.items())}
    out["const"] = str(e.constant)
    return out


def linexpr_from_json(obj, variables: List[str], path: str) -> LinExpr:
    if not isinstance(obj, dict):
        raise FormatError("linear expression must be an object", path)
    coeffs = {}
    const = Fraction(0)
    for key, val in obj.items():
        if key == "const":
            const = _rat(val, f"{path}.const")
        else:
            if key not in variables:
                raise FormatError(f"unknown variable {key!r}", f"{path}.{key}")
            coeffs[variables.index(key)] = _rat(val, f"{path}.{key}")
    return LinExpr(coeffs, const)


def constraint_to_json(c: LinConstraint, variables: List[str]):
    return {"expr": linexpr_to_json(c.lhs, variables), "rel": c.rel.value}


def constraint_from_json(obj, variables, path) -> LinConstraint:
    text = _get(obj, "rel", path, str)
    try:
        rel = Rel(text)
    except ValueError:
        raise FormatError(f"bad relation {text!r}", f"{path}.rel")
    return LinConstraint(linexpr_from_json(_get(obj, "expr", path), variables,
                                           f"{path}.expr"),
                         rel)


def predicate_to_json(p: Predicate, variables):
    return [[constraint_to_json(c, variables) for c in poly.constraints]
            for poly in p.disjuncts]


def predicate_from_json(obj, variables, path) -> Predicate:
    if not isinstance(obj, list):
        raise FormatError("predicate must be a list of disjuncts", path)
    disjuncts = []
    for i, disj in enumerate(obj):
        if not isinstance(disj, list):
            raise FormatError("disjunct must be a list of constraints", f"{path}[{i}]")
        disjuncts.append(Polyhedron([constraint_from_json(c, variables, f"{path}[{i}][{j}]")
                                     for j, c in enumerate(disj)]))
    return Predicate(disjuncts)


# -- distributions ------------------------------------------------------------


def dist_to_json(d: DistributionSpec):
    scalar = SCALAR_KINDS.get(d.kind)
    params: Dict[str, object]
    if scalar is not None:
        params = {name: str(d.param(name)) for name in scalar.params}
    elif d.kind is DistKind.DISCRETE:
        params = {"values": [[str(v), str(p)]
                             for v, p in d.param("values")]}
    else:
        params = {"sampler": d.param("sampler")}
    return {"kind": d.kind.value, "params": params,
            "mean": str(d.mean),
            "support": [format_bound(d.support_lo, lower=True),
                        format_bound(d.support_hi, lower=False)]}


def dist_from_json(obj, path) -> DistributionSpec:
    kind = _get(obj, "kind", path, str)
    params = _get(obj, "params", path, dict)
    scalar = next((s for k, s in SCALAR_KINDS.items() if k.value == kind), None)
    try:
        if scalar is not None:
            d = scalar.make(*(_rat(_get(params, name, path), path) for name in scalar.params))
        elif kind == "discrete":
            vals = _get(params, "values", path, list)
            d = DistributionSpec.discrete([(_rat(v, path), _rat(p, path))
                                           for v, p in vals])
        elif kind == "custom":
            d = DistributionSpec.custom(_get(params, "sampler", path, str),
                                        _rat(_get(obj, "mean", path), path),
                                        *_support(obj, path))
        else:
            raise FormatError(f"unknown distribution kind {kind!r}", f"{path}.kind")
    except (ValueError, TypeError) as e:   # TypeError: a `values` entry that is no pair
        raise FormatError(str(e), path)
    # declared mean/support, when present, must agree with the analytic ones
    if "mean" in obj and _rat(obj["mean"], f"{path}.mean") != d.mean:
        raise FormatError(f"declared mean {obj['mean']} differs from analytic mean "
                          f"{d.mean}", f"{path}.mean")
    if "support" in obj and kind != "custom":
        if _support(obj, path) != (d.support_lo, d.support_hi):
            raise FormatError("declared support differs from analytic support",
                              f"{path}.support")
    return d


# -- updates and transitions ---------------------------------------------------


def update_to_json(u, variables):
    if isinstance(u, NoUpdate):
        return {"kind": "none"}
    if isinstance(u, ExprUpdate):
        out = {"kind": "expr", "target": variables[u.target],
               "base": linexpr_to_json(u.base, variables)}
        if u.sample is not None:
            coeff, dist = u.sample
            out["sample"] = {"coeff": str(coeff), "dist": dist_to_json(dist)}
        return out
    return {"kind": "ndet", "target": variables[u.target],
            "lo": str(u.lo), "hi": str(u.hi)}


def update_from_json(obj, variables, path):
    kind = _get(obj, "kind", path, str)
    if kind == "none":
        return NoUpdate()
    target = _get(obj, "target", path, str)
    if target not in variables:
        raise FormatError(f"unknown variable {target!r}", f"{path}.target")
    idx = variables.index(target)
    if kind == "expr":
        base = linexpr_from_json(_get(obj, "base", path), variables, f"{path}.base")
        sample = None
        if "sample" in obj:
            s = obj["sample"]
            sample = (_rat(_get(s, "coeff", f"{path}.sample"), f"{path}.sample.coeff"),
                      dist_from_json(_get(s, "dist", f"{path}.sample"), f"{path}.sample.dist"))
        return ExprUpdate(idx, base, sample)
    if kind == "ndet":
        lo = _rat(_get(obj, "lo", path), f"{path}.lo")
        hi = _rat(_get(obj, "hi", path), f"{path}.hi")
        try:
            return NondetUpdate(idx, lo, hi)
        except ValueError as e:
            raise FormatError(str(e), path)
    raise FormatError(f"unknown update kind {kind!r}", f"{path}.kind")


def pcfg_to_json(p: PCFG) -> dict:
    transitions = []
    for t in p.transitions:
        if isinstance(t.kind, ProbBranch):
            k = t.kind
            transitions.append({"id": t.id, "source": t.source, "kind": "pb",
                                "dest1": k.dest1, "p1": str(k.p1),
                                "dest2": k.dest2, "p2": str(k.p2)})
        else:
            k = t.kind
            transitions.append({"id": t.id, "source": t.source, "kind": "npb",
                                "dest": k.dest,
                                "guard": predicate_to_json(k.guard, p.variables),
                                "update": update_to_json(k.update, p.variables)})
    return {"variables": list(p.variables), "locations": list(p.locations),
            "init": p.init_location, "terminal": p.terminal_location,
            "transitions": transitions}


def pcfg_from_json(doc) -> PCFG:
    variables = _get(doc, "variables", "$", list)
    locations = _get(doc, "locations", "$", list)
    if not all(isinstance(name, str) for name in variables + locations):
        raise FormatError("variables and locations must be strings")
    if "const" in variables:
        raise FormatError("'const' cannot be a variable name", "$.variables")
    init = _get(doc, "init", "$", str)
    terminal = _get(doc, "terminal", "$", str)
    transitions = []
    for i, tj in enumerate(_get(doc, "transitions", "$", list)):
        path = f"$.transitions[{i}]"
        tid = _get(tj, "id", path, str)
        source = _get(tj, "source", path, str)
        kind = _get(tj, "kind", path, str)
        if kind == "pb":
            k = ProbBranch(_get(tj, "dest1", path, str), _rat(_get(tj, "p1", path), f"{path}.p1"),
                           _get(tj, "dest2", path, str), _rat(_get(tj, "p2", path), f"{path}.p2"))
        elif kind == "npb":
            guard = predicate_from_json(_get(tj, "guard", path), variables, f"{path}.guard")
            update = update_from_json(_get(tj, "update", path), variables, f"{path}.update")
            k = GuardedStep(_get(tj, "dest", path, str), guard, update)
        else:
            raise FormatError(f"unknown transition kind {kind!r}", f"{path}.kind")
        transitions.append(Transition(tid, source, k))
    return PCFG(variables, locations, init, terminal, transitions)


def load_pcfg(path: str) -> PCFG:
    return pcfg_from_json(_read_json(path))


# -- invariants ----------------------------------------------------------------


def invariant_from_json(doc, p: PCFG) -> Invariant:
    if not isinstance(doc, dict):
        raise FormatError("invariant file must map locations to constraint lists")
    by_loc = {}
    for loc, items in doc.items():
        if loc not in p.locations:
            raise FormatError(f"unknown location {loc!r}", f"$.{loc}")
        if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
            raise FormatError("expected a list of constraint strings", f"$.{loc}")
        try:
            by_loc[loc] = parse_constraint_strings(items, p.variables)
        except (ProgramSyntaxError, ValueError) as e:
            raise FormatError(str(e), f"$.{loc}")
    return Invariant(by_loc)


def load_invariant(path: str, p: PCFG) -> Invariant:
    return invariant_from_json(_read_json(path), p)


# -- certificates ---------------------------------------------------------------


def certificate_to_json(c: Certificate, p: PCFG) -> dict:
    return {
        "dimension": c.dimension,
        "components": {loc: [linexpr_to_json(e, p.variables) for e in vec]
                       for loc, vec in c.lem.components.items()},
        "levels": {tid: lvl for tid, lvl in sorted(c.levels.items())},
        "shift": str(c.shift),
        "mode": c.mode.value,
    }


def certificate_from_json(doc, p: PCFG) -> Certificate:
    dim = _get(doc, "dimension", "$", int)
    comps_json = _get(doc, "components", "$", dict)
    components = {}
    for loc, vec in comps_json.items():
        if loc not in p.locations:
            raise FormatError(f"unknown location {loc!r}", f"$.components.{loc}")
        if not isinstance(vec, list) or len(vec) != dim:
            raise FormatError(f"expected {dim} expressions", f"$.components.{loc}")
        components[loc] = [linexpr_from_json(e, p.variables, f"$.components.{loc}[{i}]")
                           for i, e in enumerate(vec)]
    levels_json = _get(doc, "levels", "$", dict)
    levels = {tid: _get(levels_json, tid, "$.levels", int) for tid in levels_json}
    mode_str = _get(doc, "mode", "$", str)
    try:
        mode = CertificateMode(mode_str)
    except ValueError:
        raise FormatError(f"unknown mode {mode_str!r}", "$.mode")
    shift = _rat(_get(doc, "shift", "$"), "$.shift")
    try:
        lem = LinExprMap(dim, components)
        return Certificate(lem, levels, shift, mode)
    except ValueError as e:
        raise FormatError(str(e))


def load_certificate(path: str, p: PCFG) -> Certificate:
    return certificate_from_json(_read_json(path), p)


# -- graph description ------------------------------------------------------------


def pcfg_to_dot(p: PCFG) -> str:
    lines = ["digraph pcfg {", "  rankdir=LR;"]
    for loc in p.locations:
        shape = "doublecircle" if loc == p.terminal_location else "circle"
        lines.append(f'  "{loc}" [shape={shape}];')
    for t in p.transitions:
        if isinstance(t.kind, ProbBranch):
            k = t.kind
            mid = f"{t.id}_split"
            lines.append(f'  "{mid}" [shape=point];')
            lines.append(f'  "{t.source}" -> "{mid}" [label="{t.id}"];')
            lines.append(f'  "{mid}" -> "{k.dest1}" [label="{k.p1}"];')
            lines.append(f'  "{mid}" -> "{k.dest2}" [label="{k.p2}"];')
        else:
            k = t.kind
            label = f"{t.id}: {k.guard.pretty(p.variables)}"
            if not isinstance(k.update, NoUpdate):
                label += f" / {k.update.pretty(p.variables)}"
            lines.append(f'  "{t.source}" -> "{k.dest}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
