"""Command-line pipeline: parse -> synthesize -> check -> simulate.

Exit codes are a stable contract:
  0  success / certificate found / certificate accepted
  1  negative verdict (no witness, certificate rejected), or "unknown"
     after a resource limit (the simplex pivot cap, the DNF cap); `parse`
     exits 1 when a guard or its negation outgrows the DNF cap
  2  source syntax error (parse), invalid distribution parameters included
  3  precondition or input failure (unreadable or unwritable files, malformed
     files or arguments, structural mismatch, program class violations);
     `main` turns every OSError, `pcfg_io.FormatError` and
     `checker.StructuralMismatch` into this exit

A command that exits non-zero leaves none of its outputs (`_Outputs`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from . import pcfg_io
from .checker import StructuralMismatch, check_certificate, structural_check
from .distributions import DistKind
from .farkas import dump_lp
from .linear import EncodingBlowup, ResourceLimit
from .lowering import lower_to_pcfg
from .model import Invariant, check_bsp, validate_pcfg
from .simulate import (Adversarial, FixedPriority, TerminationEstimate,
                       UniformRandom, counterexample_process, trajectories,
                       CEX_MAX_RUNS, COUNTEREXAMPLE_ANALYTIC, DEFAULT_ESTIMATE_CAP,
                       MAX_SEED)
from .source import ProgramSyntaxError, parse_program
from .synthesis import (MissingBoundedSupport, NotLinPPStar, synthesize_bsp,
                        synthesize_general)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_SYNTAX = 2
EXIT_PRECONDITION = 3


def _emit(doc: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(human)


def _limit_hit(e: ResourceLimit) -> str:
    """The resource limit that `e` reports, named for the user."""
    if isinstance(e, EncodingBlowup):
        return f"a DNF expansion hit the DNF cap ({e})"
    return f"an LP hit the simplex pivot cap ({e})"


def _custom_note(p) -> str:
    """A sentence naming each custom sampler that a verdict on `p` rests on;
    "" when `p` draws from none."""
    named = dict.fromkeys(repr(d.param("sampler")) for t in p.transitions
                          if (d := t.samples_from()) and d.kind is DistKind.CUSTOM)
    return (f". The verdict rests on the declared mean and support of custom sampler"
            f"{'s' * (len(named) > 1)} {', '.join(named)}, which are not checked"
            if named else "")


class _Outputs(contextlib.ExitStack):
    """The files and directories a command writes: every one is opened or
    made here before any is written. If the `with` block raises, each is
    closed and removed again, so a failing command leaves none of them."""

    def __init__(self):
        super().__init__()
        self.made = []          # paths, in the order they were made

    def makedirs(self, path: str) -> None:
        head, missing = os.path.abspath(path), []
        while not os.path.exists(head):
            missing.append(head)
            head = os.path.dirname(head)
        self.made += reversed(missing)
        os.makedirs(path, exist_ok=True)

    def open(self, path):
        """`path` opened for writing; None for None."""
        if path is None:
            return None
        f = self.enter_context(open(path, "w"))
        self.made.append(path)
        return f

    def __exit__(self, kind, *rest):
        super().__exit__(kind, *rest)
        if kind is not None:
            for path in reversed(self.made):
                with contextlib.suppress(OSError):
                    (os.rmdir if os.path.isdir(path) else os.remove)(path)
        return False


def cmd_parse(args) -> int:
    # a byte that is not UTF-8 reads as U+FFFD, which no token admits
    with open(args.source, encoding="utf-8", errors="replace") as f:
        text = f.read()
    try:
        p = lower_to_pcfg(parse_program(text))
    except ProgramSyntaxError as e:
        _emit({"ok": False, "error": str(e)}, args.json, f"syntax error: {e}")
        return EXIT_SYNTAX
    except ResourceLimit as e:
        error = f"stopped at a resource limit: {_limit_hit(e)}"
        _emit({"ok": False, "error": error}, args.json, error)
        return EXIT_NEGATIVE
    diagnostics = validate_pcfg(p)
    if diagnostics:
        for d in diagnostics:
            print(f"invalid pCFG: {d}", file=sys.stderr)
        return EXIT_PRECONDITION
    with _Outputs() as out:
        pf, df = out.open(args.out), out.open(args.emit_dot)
        pf.write(pcfg_io.json_text(pcfg_io.pcfg_to_json(p)))
        if df:
            df.write(pcfg_io.pcfg_to_dot(p))
    _emit({"ok": True, "out": args.out, "variables": p.variables,
           "locations": len(p.locations), "transitions": len(p.transitions)},
          args.json,
          f"wrote {args.out}: {len(p.locations)} locations, "
          f"{len(p.transitions)} transitions, variables {', '.join(p.variables)}")
    return EXIT_OK


def _load_inputs(args):
    p = pcfg_io.load_pcfg(args.pcfg)
    diagnostics = validate_pcfg(p)
    if diagnostics:
        raise pcfg_io.FormatError("; ".join(str(d) for d in diagnostics))
    inv = Invariant({})
    if getattr(args, "invariant", None):
        inv = pcfg_io.load_invariant(args.invariant, p)
    return p, inv


def cmd_synthesize(args) -> int:
    p, inv = _load_inputs(args)

    mode = args.mode
    if mode == "auto":
        mode = "bsp" if check_bsp(p)[0] else "general"

    progress = None
    if args.progress:
        progress = lambda rec: print(json.dumps(rec), file=sys.stderr)

    try:
        if mode == "bsp":
            result = synthesize_bsp(p, inv, progress=progress)
        else:
            result = synthesize_general(p, inv, progress=progress)
    except (NotLinPPStar, MissingBoundedSupport) as e:
        _emit({"outcome": "error", "mode": mode, "detail": str(e)}, args.json,
              f"precondition failure: {e}")
        return EXIT_PRECONDITION
    except ResourceLimit as e:
        detail = (f"termination UNKNOWN: {_limit_hit(e)}; "
                  "the search stopped at a resource limit, which decides nothing")
        _emit({"outcome": "no-witness", "verdict": "unknown", "mode": mode,
               "detail": detail}, args.json, detail)
        return EXIT_NEGATIVE

    iterations = [rec.as_dict() for rec in result.history]
    if not result.found:
        if mode == "bsp":
            detail = ("no LinGLexRSM map exists for this invariant: " + result.failure)
            verdict = "no-certificate"
        else:
            detail = ("termination UNKNOWN (the method is sound, not complete): "
                      + result.failure)
            verdict = "unknown"
        detail += _custom_note(p)
        _emit({"outcome": "no-witness", "verdict": verdict, "mode": mode,
               "detail": detail, "iterations": iterations},
              args.json, detail)
        return EXIT_NEGATIVE

    cert = result.certificate
    with _Outputs() as out:
        lf = None
        if args.dump_lp:
            # the LP whose optimum gave component 1, for external cross-checking
            out.makedirs(args.dump_lp)
            lf = out.open(os.path.join(args.dump_lp, "iteration1.lp"))
        cf = out.open(args.out)
        if lf:
            try:
                text = dump_lp(result.first_lp)
            except ValueError as e:   # two unknowns under one label
                raise pcfg_io.FormatError(str(e), "--dump-lp") from None
            lf.write(text)
        cf.write(pcfg_io.json_text(pcfg_io.certificate_to_json(cert, p)))
    _emit({"outcome": "certificate", "mode": mode, "dimension": cert.dimension,
           "shift": str(cert.shift), "out": args.out, "iterations": iterations},
          args.json,
          f"certificate of dimension {cert.dimension} written to {args.out} "
          f"(mode {cert.mode.value}, shift {cert.shift})")
    return EXIT_OK


def cmd_check(args) -> int:
    p, inv = _load_inputs(args)
    cert = pcfg_io.load_certificate(args.certificate, p)
    try:
        report = check_certificate(p, inv, cert)
    except StructuralMismatch as e:
        _emit({"verdict": "structural-mismatch", "detail": str(e)}, args.json,
              f"structural mismatch: {e}")
        return EXIT_PRECONDITION
    except ResourceLimit as e:
        detail = (f"UNKNOWN: {_limit_hit(e)}; "
                  "the check stopped at a resource limit, which decides nothing")
        _emit({"verdict": "unknown", "detail": detail}, args.json, detail)
        return EXIT_NEGATIVE
    doc = report.as_dict()
    if report.accepted:
        doc["meaning"] += _custom_note(p)
        _emit(doc, args.json, f"accepted ({report.mode}): {doc['meaning']}")
        return EXIT_OK
    lines = [f"rejected ({report.mode}):"]
    for v in report.violations:
        lines.append(f"  {v.transition}: {v.condition} of component {v.component}"
                     + (f" at {v.counterexample}" if v.counterexample else ""))
    _emit(doc, args.json, "\n".join(lines))
    return EXIT_NEGATIVE


def _write_traces(reports, jf, cf):
    """Pass the runs through, writing a record per run: JSON lines to `jf`
    and/or a (run, terminated, steps) CSV to `cf`."""
    if cf:
        cf.write("run,terminated,steps\n")
    for idx, r in enumerate(reports):
        if jf:
            try:
                rec = {"run": idx, **r.as_dict()}
            except ValueError:  # a final value too long to write in decimal
                raise pcfg_io.FormatError(
                    f"run {idx} ends with a value whose numerator or denominator has "
                    f"more than {sys.get_int_max_str_digits()} digits", "--trace-out") from None
            jf.write(json.dumps(rec) + "\n")
        if cf:
            cf.write(f"{idx},{int(r.terminated)},{r.steps}\n")
        yield r


def _parse_init(text: str, variables) -> list:
    values = {}
    if text:
        for part in text.split(","):
            name, _, val = part.partition("=")
            name = name.strip()
            if name not in variables:
                raise pcfg_io.FormatError(f"unknown variable {name!r}", "--init")
            if name in values:
                raise pcfg_io.FormatError(f"variable {name!r} given twice", "--init")
            values[name] = pcfg_io._rat(val, f"--init {name}")
    return [values.get(name, Fraction(0)) for name in variables]


def cmd_simulate(args) -> int:
    if args.runs < 1:
        raise pcfg_io.FormatError("must be at least 1", "--runs")
    if args.seed < 0:
        raise pcfg_io.FormatError("must not be negative", "--seed")
    if args.seed > MAX_SEED:
        raise pcfg_io.FormatError(f"must be at most {MAX_SEED}", "--seed")
    if args.cap is not None and args.cap < 1:
        raise pcfg_io.FormatError("must be at least 1", "--cap")
    if args.counterexample_builtin:
        # the built-in process reads no program, has no scheduler or step
        # cap, and writes no per-run records
        for name, value in (("pcfg", args.pcfg), ("--init", args.init),
                            ("--scheduler", args.scheduler), ("--ndet", args.ndet),
                            ("--cap", args.cap), ("--certificate", args.certificate),
                            ("--trace-out", args.trace_out), ("--csv", args.csv)):
            if value:
                raise pcfg_io.FormatError("cannot be combined with --counterexample-builtin",
                                          name)
        if args.runs > CEX_MAX_RUNS:
            raise pcfg_io.FormatError(f"must be at most {CEX_MAX_RUNS}", "--runs")
        rep = counterexample_process(args.seed, args.runs)
        doc = rep.as_dict()
        _emit(doc, args.json,
              f"empirical P[stop] = {rep.empirical:.6f} over {rep.runs} runs "
              f"(series value {COUNTEREXAMPLE_ANALYTIC:.10f}, "
              f"truncation residual < {rep.residual_bound:.2e})")
        return EXIT_OK
    if not args.pcfg:
        raise pcfg_io.FormatError("simulate needs a pcfg file (or --counterexample-builtin)",
                                  "pcfg")
    scheduler = args.scheduler or "uniform"
    if args.certificate and scheduler != "adversarial":
        raise pcfg_io.FormatError("needs --scheduler adversarial", "--certificate")
    if args.ndet and scheduler != "fixed":
        raise pcfg_io.FormatError("needs --scheduler fixed", "--ndet")
    p, _ = _load_inputs(args)
    for t in p.transitions:
        d = t.samples_from()
        if d is not None and not d.drawable:
            raise pcfg_io.FormatError(f"transition {t.id} samples from custom sampler "
                                      f"{d.param('sampler')!r}, which is not registered",
                                      args.pcfg)
    init = _parse_init(args.init, p.variables)
    if scheduler == "uniform":
        sched = UniformRandom()
    elif scheduler == "fixed":
        sched = FixedPriority([t.id for t in p.transitions], ndet_mode=args.ndet or "uniform")
    elif args.certificate:
        cert = pcfg_io.load_certificate(args.certificate, p)
        structural_check(p, cert)
        sched = Adversarial(cert)
    else:
        raise pcfg_io.FormatError("the adversarial scheduler needs one", "--certificate")
    cap = DEFAULT_ESTIMATE_CAP if args.cap is None else args.cap
    runs = trajectories(p, init, sched, cap, args.seed, range(args.runs))
    with _Outputs() as out:
        jf, cf = out.open(args.trace_out), out.open(args.csv)
        if jf or cf:
            # one pass: the estimate is built from the traced runs
            runs = _write_traces(runs, jf, cf)
        est = TerminationEstimate.of(runs)
    doc = est.as_dict()
    doc["scheduler"] = scheduler
    doc["seed"] = args.seed
    _emit(doc, args.json,
          f"terminated {est.terminated}/{est.runs} runs "
          f"(fraction {est.fraction:.4f}, 95% Wilson "
          f"[{est.interval[0]:.4f}, {est.interval[1]:.4f}], "
          f"mean steps {est.mean_steps:.1f}, stuck {est.stuck})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="probterm",
        description="Prove almost-sure termination of linear probabilistic "
                    "programs via lexicographic ranking-supermartingale "
                    "certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="compile source to the pCFG format")
    p_parse.add_argument("source")
    p_parse.add_argument("-o", "--out", required=True)
    p_parse.add_argument("--emit-dot", metavar="PATH",
                         help="also write a graph description of the pCFG")
    p_parse.add_argument("--json", action="store_true")
    p_parse.set_defaults(fn=cmd_parse)

    p_syn = sub.add_parser("synthesize", help="search for a termination certificate")
    p_syn.add_argument("pcfg")
    p_syn.add_argument("-i", "--invariant", help="invariant side-car file")
    p_syn.add_argument("-o", "--out", required=True)
    p_syn.add_argument("--mode", choices=["auto", "bsp", "general"], default="auto")
    p_syn.add_argument("--progress", action="store_true",
                       help="emit per-iteration JSON records on stderr")
    p_syn.add_argument("--dump-lp", metavar="DIR",
                       help="write the first iteration's LP in solver-exchange format")
    p_syn.add_argument("--json", action="store_true")
    p_syn.set_defaults(fn=cmd_synthesize)

    p_chk = sub.add_parser("check", help="verify a certificate independently")
    p_chk.add_argument("pcfg")
    p_chk.add_argument("certificate")
    p_chk.add_argument("-i", "--invariant")
    p_chk.add_argument("--json", action="store_true")
    p_chk.set_defaults(fn=cmd_check)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo termination estimate")
    p_sim.add_argument("pcfg", nargs="?")
    p_sim.add_argument("--init", default="", help='e.g. "x=5, y=3" (others 0)')
    p_sim.add_argument("--runs", type=int, default=2000)
    p_sim.add_argument("--cap", type=int,
                       help=f"step cap per run (default: {DEFAULT_ESTIMATE_CAP})")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--scheduler", choices=["uniform", "fixed", "adversarial"],
                       help="default: uniform")
    p_sim.add_argument("--ndet", choices=["uniform", "lo", "hi"],
                       help="for the fixed scheduler (default: uniform)")
    p_sim.add_argument("--certificate", help="for the adversarial scheduler")
    p_sim.add_argument("--trace-out", metavar="PATH",
                       help="write one JSON line per run")
    p_sim.add_argument("--csv", metavar="PATH",
                       help="write a run,terminated,steps table")
    p_sim.add_argument("--counterexample-builtin", action="store_true",
                       help="run the built-in stopping-probability counterexample "
                            "process instead of a program")
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(fn=cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, pcfg_io.FormatError, StructuralMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
