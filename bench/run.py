"""The probterm benchmark: one workload, one process, one caller.

    python3 bench/run.py --workload {corpus,ladder,validate} --seed N \
        --seconds S --trace {0,1}

A run is a closed loop with one caller: it takes one operation at a
time through the library API and repeats whole passes of its workload,
each pass in an order drawn from the seed, until at least S seconds
have passed. Whole passes keep every run's mix of cheap and expensive
programs the same. Every operation ends in a verdict that is checked
against the known answers in `data/expected.json`; an operation fails
if it raises, if the checker rejects a certificate it produced, or if
its verdict differs. Operation times are scaled to a reference machine
speed (see `speed.py`).

Lines before the last give a row per operation, the sample counts and
the failure fraction. The last line is the result object: end-to-end
metrics with `--trace 0`, per-layer metrics from spans with `--trace 1`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import workloads
from speed import REFERENCE_KERNEL_S, Sample, Speedometer, scaled_setup
from tracer import GC, OP, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("corpus", "ladder", "validate")
SETUP_SAMPLES = 5

# validate: size of each simulation part
ESTIMATE_RUNS = 500
ESTIMATE_STEP_CAP = 100_000
CEX_SAMPLES = 10 ** 6
# Wilson interval width for the counterexample estimate. A 95 % interval
# misses the true value for one seed in twenty, which would fail a
# correct program; z = 6 misses it with probability about 2e-9.
CEX_Z = 6.0


def import_probterm() -> None:
    """Import the library from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import probterm
    except ImportError as e:
        sys.exit(f"bench: cannot import probterm from {src}: {e}")
    if Path(probterm.__file__).resolve().parent != src / "probterm":
        sys.exit(f"bench: probterm resolved to {probterm.__file__}, not under {src}")


import_probterm()
from probterm import (checker, lowering, model, pcfg_io, simulate,  # noqa: E402
                      source, synthesis)
from probterm.linear import LinExpr  # noqa: E402


# -- operations -----------------------------------------------------------------


@dataclass
class Tally:
    """What the operations of one run did, beyond their verdicts."""
    checks: int = 0
    check_s: float = 0.0  # wall time, unscaled
    certs: int = 0
    certs_changed: int = 0
    sim_steps: int = 0
    sim_s: float = 0.0
    cex_samples: int = 0
    cex_s: float = 0.0
    verdicts: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[Tally], Optional[str]]  # returns why it failed, or None


def certificate_digest(cert, p) -> str:
    doc = pcfg_io.certificate_to_json(cert, p)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def timed_check(tally: Tally, p, inv, cert):
    t0 = perf_counter()
    report = checker.check_certificate(p, inv, cert)
    tally.check_s += perf_counter() - t0
    tally.checks += 1
    return report


def synthesis_op(name: str, text: str, inv_doc: dict, expect_found: bool,
                 expect_dim, digest) -> Op:
    """Source text to a checked verdict: parse, lower, synthesize in the
    mode `check_bsp` selects, and re-check any certificate found."""

    def run(tally: Tally):
        p = lowering.lower_to_pcfg(source.parse_program(text))
        inv = pcfg_io.invariant_from_json(inv_doc, p)
        bounded, _ = model.check_bsp(p)
        synthesize = synthesis.synthesize_bsp if bounded else synthesis.synthesize_general
        result = synthesize(p, inv)
        tally.verdicts[name] = "found" if result.found else "refused"
        if result.found:
            if not timed_check(tally, p, inv, result.certificate).accepted:
                return "checker rejected the synthesized certificate"
            tally.certs += 1
            tally.certs_changed += certificate_digest(result.certificate, p) != digest
        if result.found != expect_found:
            return f"expected {'found' if expect_found else 'refused'}, got {tally.verdicts[name]}"
        if expect_dim is not None and result.certificate.dimension != expect_dim:
            return f"expected dimension {expect_dim}, got {result.certificate.dimension}"
        return None

    return Op(name, run)


def corpus_ops(expected: dict) -> list[Op]:
    found = set(expected["found"])
    sources = workloads.corpus_sources([i in found for i in range(workloads.CORPUS_SIZE)])
    digest = hashlib.sha256("\n".join(sources).encode()).hexdigest()
    if digest != expected["sources_sha256"]:
        sys.exit("bench: corpus generator no longer reproduces the recorded sources")
    return [synthesis_op(f"c{i:02d}", text, {}, i in found, None,
                         expected["certificates"].get(str(i)))
            for i, text in enumerate(sources)]


def ladder_ops(expected: dict) -> list[Op]:
    return [synthesis_op(name, text, inv_doc, True, k + 1, expected["certificates"][name])
            for name, k, text, inv_doc in workloads.ladder_programs()]


def perturbed(cert, loc: str, component: int, var, delta: Fraction):
    """Copy of `cert` with `delta` added to one coefficient (var None:
    the constant) of one component at one location."""
    comps = {l: list(vec) for l, vec in cert.lem.components.items()}
    e = comps[loc][component - 1]
    if var is None:
        e = LinExpr(e.coeffs, e.constant + delta)
    else:
        coeffs = dict(e.coeffs)
        coeffs[var] = coeffs.get(var, Fraction(0)) + delta
        e = LinExpr(coeffs, e.constant)
    comps[loc][component - 1] = e
    lem = model.LinExprMap(cert.dimension, comps)
    return model.Certificate(lem, dict(cert.levels), cert.shift, cert.mode)


def check_op(label: str, prog: str, cert_name: str, mutation, accepted: bool) -> Op:
    """Check a published certificate, or a mutant of it, on its program."""
    text = workloads.read_text(f"{prog}.prob")
    inv_doc = workloads.read_json(f"{prog}.inv.json")
    cert_doc = workloads.read_json(f"{cert_name}.cert.json")

    def run(tally: Tally):
        p = lowering.lower_to_pcfg(source.parse_program(text))
        inv = pcfg_io.invariant_from_json(inv_doc, p)
        cert = pcfg_io.certificate_from_json(cert_doc, p)
        if mutation is not None:
            loc, comp, var, delta = mutation
            cert = perturbed(cert, loc, comp, None if var is None else p.var_index(var),
                             Fraction(delta))
        got = timed_check(tally, p, inv, cert).accepted
        tally.verdicts[label] = "accepted" if got else "rejected"
        return None if got == accepted else f"expected accepted={accepted}, got {got}"

    return Op(label, run)


def validate_ops(expected: dict, seed: int) -> list[Op]:
    ops = []
    for prog, cert_name, loc, comp, var, delta, accepted in expected["checks"]:
        mutation = None if loc is None else (loc, comp, var, delta)
        label = cert_name if loc is None else f"{cert_name}.{loc}.{comp}.{var or 'const'}{delta:+d}"
        ops.append(check_op(label, prog, cert_name, mutation, accepted))

    def estimate(name: str, prog: str, init, adversary):
        text = workloads.read_text(f"{prog}.prob")
        cert_doc = workloads.read_json(f"{adversary}.cert.json") if adversary else None

        def run(tally: Tally):
            p = lowering.lower_to_pcfg(source.parse_program(text))
            sched = (simulate.Adversarial(pcfg_io.certificate_from_json(cert_doc, p))
                     if adversary else simulate.UniformRandom())
            t0 = perf_counter()
            est = simulate.estimate_termination(p, [Fraction(v) for v in init], sched,
                                                runs=ESTIMATE_RUNS,
                                                step_cap=ESTIMATE_STEP_CAP, seed=seed)
            tally.sim_s += perf_counter() - t0
            tally.sim_steps += round(est.mean_steps * est.runs)
            tally.verdicts[name] = f"{est.terminated}/{est.runs} terminated"
            if est.terminated != est.runs:
                return f"{est.runs - est.terminated} runs did not terminate within the cap"
            return None

        ops.append(Op(name, run))

    estimate("sim.fig1b.uniform", "fig1b", (3, 3), None)
    estimate("sim.fig1b.adversarial", "fig1b", (3, 3), "example3")
    estimate("sim.bern_walk.uniform", "bern_walk", (3,), None)

    def cex(tally: Tally):
        t0 = perf_counter()
        report = simulate.counterexample_process(seed, CEX_SAMPLES)
        tally.cex_s += perf_counter() - t0
        tally.cex_samples += report.runs
        stopped = round(report.empirical * report.runs)
        lo, hi = simulate.wilson_interval(stopped, report.runs, z=CEX_Z)
        tally.verdicts["cex"] = f"stopped {report.empirical:.6f}"
        if not lo <= simulate.COUNTEREXAMPLE_ANALYTIC <= hi:
            return f"interval [{lo:.6f}, {hi:.6f}] misses {simulate.COUNTEREXAMPLE_ANALYTIC}"
        return None

    ops.append(Op("cex", cex))
    return ops


def build_ops(workload: str, seed: int) -> list[Op]:
    expected = workloads.read_json("expected.json")[workload]
    if workload == "corpus":
        return corpus_ops(expected)
    if workload == "ladder":
        return ladder_ops(expected)
    return validate_ops(expected, seed)


# -- measurement ----------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start to first operation, in fresh interpreters: start-up,
    `import probterm` and building the inputs."""

    def once() -> float:
        start = time.time_ns()
        out = subprocess.run([sys.executable, __file__, "--workload", workload,
                              "--seed", str(seed), "--seconds", "0", "--setup-only"],
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            sys.exit(f"bench: set-up run failed: {out.stderr.strip()}")
        return (int(out.stdout.split()[-1]) - start) / 1e9

    return [scaled_setup(once) for _ in range(SETUP_SAMPLES)]


def run_loop(ops: list[Op], seconds: float, seed: int, tracer):
    span = tracer.span if tracer is not None else lambda *_: nullcontext()
    rng = random.Random(seed)
    tally = Tally()
    samples: list[Sample] = []
    failures: dict[str, str] = {}
    failed = passes = 0
    start = perf_counter()
    with Speedometer(tracer) as meter:
        while passes == 0 or perf_counter() - start < seconds:
            order = list(ops)
            rng.shuffle(order)
            for op in order:
                # every operation starts from the same collector state, as
                # it would in a fresh process, whatever ran before it
                with span(GC):
                    gc.collect()
                check_s, paused = tally.check_s, meter.paused
                t0 = perf_counter()
                try:
                    with span(OP, op.name):
                        reason = op.run(tally)
                except Exception:
                    reason = traceback.format_exc().strip().splitlines()[-1]
                samples.append(Sample(op.name, t0, perf_counter(), meter.paused - paused,
                                      tally.check_s - check_s))
                if reason is not None:
                    failed += 1
                    failures.setdefault(op.name, reason)
            passes += 1
    wall = perf_counter() - start
    meter.rescale(samples)
    return wall, passes, samples, meter, tally, failed, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    ops = build_ops(args.workload, args.seed)
    if args.setup_only:
        print(time.time_ns())
        return 0

    setup = measure_setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        wall, passes, samples, meter, tally, failed, failures = run_loop(
            ops, args.seconds, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = len(samples)
    busy = sum(s.seconds for s in samples)
    scaled = [s.seconds * s.scale for s in samples]
    verdicts_per_s = attempted / sum(scaled)
    checks_per_s = tally.checks / sum(s.check_seconds * s.scale for s in samples)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}  "
          f"busy {busy:.3f} s  ({attempted / busy:.4f} verdicts/s unscaled)")
    print(f"machine speed: kernel median {statistics.median(meter.kernel_s):.6f} s over "
          f"{len(meter.kernel_s)} timings, reference {REFERENCE_KERNEL_S} s; "
          f"setup_s samples {', '.join(f'{x:.4f}' for x in setup)}")
    print(f"{'operation':<28} {'verdict':<24} {'scaled_s':>10} {'raw_s':>10} {'n':>4}  failure")
    for op in ops:
        mine = [s for s in samples if s.op == op.name]
        print(f"{op.name:<28} {tally.verdicts.get(op.name, '-'):<24} "
              f"{statistics.median(s.seconds * s.scale for s in mine):>10.4f} "
              f"{statistics.median(s.seconds for s in mine):>10.4f} {len(mine):>4}  "
              f"{failures.get(op.name, '')}")
    p80 = statistics.quantiles(scaled, n=5)[3]
    print(f"verdict_s samples {attempted} ({len(ops)} operations x {passes} passes); "
          f"{sum(t > p80 for t in scaled)} beyond p80")
    print(f"checks_per_s {checks_per_s:.2f} ({tally.checks} checks)")
    if tally.sim_steps:
        print(f"sim_steps_per_s {tally.sim_steps / tally.sim_s:.1f}  "
              f"cex_samples_per_s {tally.cex_samples / tally.cex_s:.1f}  (unscaled)")
    print(f"synthesis.certs_changed {tally.certs_changed} of {tally.certs}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")

    OUT.mkdir(exist_ok=True)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "verdicts_per_s": verdicts_per_s,
            "verdict_s.p50": statistics.median(scaled),
            "verdict_s.p80": p80,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        with open(OUT / f"{args.workload}.untraced.json", "w") as f:
            json.dump({"verdicts_per_s": verdicts_per_s, "checks_per_s": checks_per_s}, f)
    else:
        values = layer_metrics(tracer.spans, wall, passes)
        values["trace.verdicts_per_s"] = verdicts_per_s
        values["trace.checks_per_s"] = checks_per_s
        values["trace.pass_s"] = sum(scaled) / passes
        values["synthesis.certs_changed"] = tally.certs_changed / passes
        spans_file = OUT / f"{args.workload}.seed{args.seed}.spans.jsonl"
        tracer.write(spans_file)
        print(f"spans {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}; "
              f"self times account for {values['trace.accounted_pct']:.2f} % of traced wall")
        untraced = OUT / f"{args.workload}.untraced.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())
            for key in ("verdicts_per_s", "checks_per_s"):
                print(f"tracing overhead {key}: traced {values['trace.' + key]:.4f} - "
                      f"untraced {base[key]:.4f} = {values['trace.' + key] - base[key]:+.4f}")

    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
