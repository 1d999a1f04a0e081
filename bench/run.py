"""defectlab benchmark: drive the CLI verbs in-process and report metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 35 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  One run is one single-threaded process (``--workers 1``)
that repeats passes over the workload's commands (a closed loop) for
``--seconds`` seconds, checks every command's output, and prints a run header
line, a readable summary, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of ten fresh
interpreters importing ``defectlab.cli`` and building the workload's codes,
scaled to the nominal host speed of ``calibrate.NOMINAL_ROUND_S``),
``wall_norm`` (median over passes of the pass time divided by the mean time
of a fixed reference computation sampled every 50 ms during the pass,
``calibrate.py``) and ``peak_rss_mb``.  ``--trace 1`` spends the first half of the
run untraced and the second half with spans around every public call into
the package, and reports the per-layer metrics listed in ``PER_LAYER``; the
spans of the first traced pass are written to
``.bench_out/trace-<workload>-seed<seed>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import NOMINAL_ROUND_S, HostSampler
from checker import check
from tracer import BOUNDARY, RATE_TARGETS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Fresh interpreters per run for setup_s, half before the passes and half
#: after, so that the median spans the run's host conditions.
SETUP_REPEATS = 10
#: Traced passes per run: enough for a median, few enough to keep the spans
#: of a pass of the rewrite workload (~260k) in memory several times over.
TRACED_PASSES = 3
VERBS = ("duality", "bounds", "lwc-audit", "quaternity")
COUNT_UNITS = ("count", "count_computed")

END_TO_END = {"setup_s": "s", "wall_norm": "ratio", "peak_rss_mb": "MB"}

#: Per-layer metrics of a traced run (``--trace 1``), name -> unit.  Counts
#: are per pass; times are medians over passes.
PER_LAYER = {
    "wall_s": "s", "duality_s": "s", "bounds_s": "s", "lwc_audit_s": "s", "quaternity_s": "s",
    "decode_trials_per_s": "trials/s", "mask_trials_per_s": "trials/s",
    "gf2.self_s": "s",
    "gf2.solve_packed.calls": "count", "gf2.solve_packed.rows": "count",
    "gf2.solve_packed.us_per_call": "us",
    "gf2.rank.calls": "count",
    "gf2.boundary.calls": "count", "gf2.boundary.s": "s",
    "codes.self_s": "s",
    "codes.build.calls": "count", "codes.build.s": "s",
    "codes.weight_distribution.s": "s", "codes.embed.calls": "count",
    "bec.self_s": "s",
    "bec.exhaustive.calls": "count", "bec.exhaustive.s": "s",
    "bec.exhaustive.patterns": "count_computed",
    "bec.monte_carlo.s": "s", "bec.monte_carlo.trials": "count",
    "bec.monte_carlo.failures": "count",
    "bec.conditional_failure_exact.calls": "count", "bec.conditional_failure_exact.s": "s",
    "bdc.self_s": "s",
    "bdc.exhaustive.calls": "count", "bdc.exhaustive.s": "s",
    "bdc.exhaustive.patterns": "count_computed",
    "bdc.monte_carlo.s": "s", "bdc.monte_carlo.trials": "count",
    "bdc.monte_carlo.failures": "count",
    "bdc.conditional_encfail_exact.calls": "count", "bdc.conditional_encfail_exact.s": "s",
    "bdc.additive_encode.calls": "count", "bdc.additive_encode.us_per_call": "us",
    "bdc.additive_encode.success_ratio": "ratio",
    "bdc.binning_encode.calls": "count", "bdc.binning_encode.us_per_call": "us",
    "bdc.binning_encode.success_ratio": "ratio",
    "bdc.decode.calls": "count", "bdc.decode.us_per_call": "us",
    "bridge.self_s": "s",
    "bridge.quantize.calls": "count", "bridge.quantize.us_per_call": "us",
    "bridge.wom_write.calls": "count", "bridge.wom_write.us_per_call": "us",
    "bridge.wom_write.success_ratio": "ratio",
    "lwc.self_s": "s",
    "lwc.rewrite_update.calls": "count", "lwc.rewrite_update.us_per_call": "us",
    "lwc.rewrite_update.candidates_per_call": "words/call",
    "lwc.masking_codeword_ints.calls": "count", "lwc.masking_codeword_ints.words": "count",
    "lwc.rewriting_locality.calls": "count", "lwc.rewriting_locality.s": "s",
    "cli.self_s": "s", "cli.parse_code_spec.calls": "count",
    "trace.overhead_ratio": "ratio",
}

SETUP_SNIPPET = """\
import sys
from time import perf_counter
started = perf_counter()
import defectlab.cli
from defectlab import codes
for spec in sys.argv[2:]:
    family, _, params = spec.partition(":")
    codes.build(family, *(int(p) for p in params.split(",")))
took = perf_counter() - started
sys.path.insert(0, sys.argv[1])
from calibrate import reference_round
started = perf_counter()
for _ in range(ROUNDS):
    reference_round()
print(repr(took), repr((perf_counter() - started) / ROUNDS))
""".replace("ROUNDS", "20")


def import_package():
    """Import defectlab from this checkout's src/, or exit without a result."""
    if not (SRC / "defectlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'defectlab'} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import defectlab
    import defectlab.cli
    if Path(defectlab.__file__).resolve().parent != SRC / "defectlab":
        raise SystemExit(f"error: imported defectlab from {defectlab.__file__}, not {SRC}")
    return defectlab


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_header(workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(),
        "commands": [" ".join(cmd.argv(seed)) for cmd in workload.commands],
        "sizes": workload.sizes,
    }


def measure_setup(workload, repeats: int) -> list[tuple[float, float]]:
    """(seconds, reference round seconds) for fresh interpreters that import
    defectlab.cli and build the workload's codes, then time 20 reference
    rounds in the same process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(BENCH), *workload.codes],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
        took, round_seconds = (float(x) for x in proc.stdout.split())
        samples.append((took, round_seconds))
    return samples


def run_cli(cli, argv: list[str]) -> tuple[object, str, str]:
    """Run one CLI command in-process: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a traceback from the program is a failed operation
        status = repr(exc)
    return status, out.getvalue(), err.getvalue()


class Runner:
    """Closed loop over a workload's commands; checks every output."""

    def __init__(self, package, workload, seed: int) -> None:
        self.package = package
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.commands_run = 0
        self.pass_commands: list[list[int]] = []
        self.pass_seconds: list[float] = []
        self.verb_seconds: list[dict[str, float]] = []
        self.reference_seconds: list[float] = []
        self.sampler = HostSampler()

    def run_pass(self, tracer: Tracer) -> float:
        verbs = dict.fromkeys(VERBS, 0.0)
        ids = []
        first_sample = len(self.sampler.samples)
        for cmd in self.workload.commands:
            tracer.current_command = self.commands_run
            ids.append(self.commands_run)
            self.commands_run += 1
            seconds, problems = self.run_command(cmd)
            verbs[cmd.verb] += seconds
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {' '.join(cmd.argv(self.seed))}: {problems[0]}", file=sys.stderr)
        total = sum(verbs.values())
        self.reference_seconds.append(statistics.mean(self.sampler.samples[first_sample:]))
        self.pass_commands.append(ids)
        self.pass_seconds.append(total)
        self.verb_seconds.append(verbs)
        return total

    def run_command(self, cmd) -> tuple[float, list[str]]:
        spent = self.sampler.spent
        started = perf_counter()
        status, out, err = run_cli(self.package.cli, cmd.argv(self.seed))
        seconds = perf_counter() - started - (self.sampler.spent - spent)
        if status != 0:
            return seconds, [f"exit status {status}: {err.strip()[-300:]}"]
        return seconds, check(cmd, self.seed, out)

    def normalized(self, passes: list[int]) -> list[float]:
        """Pass times in units of the host samples taken during each pass."""
        return [self.pass_seconds[p] / self.reference_seconds[p] for p in passes]

    def run_for(self, seconds: float, tracer: Tracer, max_passes: int | None = None) -> list[int]:
        """Passes for about ``seconds`` (at least one, at most ``max_passes``):
        another pass starts only if it would end less than half a pass after
        the deadline.  Returns the indices of the passes."""
        first = len(self.pass_seconds)
        deadline = perf_counter() + seconds
        with tracer, self.sampler:
            while True:
                last = self.run_pass(tracer)
                if (perf_counter() + last / 2 >= deadline
                        or len(self.pass_seconds) - first == max_passes):
                    break
        return list(range(first, len(self.pass_seconds)))


def untraced_metrics(runner: Runner, rates: Tracer, passes: list[int]) -> dict[str, float]:
    """Verb seconds per pass and Monte Carlo trial rates of the untraced passes."""
    out = {"wall_s": statistics.median(runner.pass_seconds[p] for p in passes)}
    for verb in VERBS:
        out[verb.replace("-", "_") + "_s"] = statistics.median(runner.verb_seconds[p][verb] for p in passes)
    agg = rates.aggregate(c for p in passes for c in runner.pass_commands[p])
    for metric, name in (("decode_trials_per_s", "bec.monte_carlo"),
                         ("mask_trials_per_s", "bdc.monte_carlo")):
        seconds = agg.seconds[name]
        out[metric] = agg.count[name] / seconds if seconds else 0.0
    return out


def layer_metrics(agg) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    m = {}
    for module in ("gf2", "codes", "bec", "bdc", "bridge", "lwc", "cli"):
        m[f"{module}.self_s"] = agg.module_self(module)
    boundary = [f"gf2.{name}" for name in BOUNDARY]
    m["gf2.solve_packed.calls"] = agg.calls["gf2.solve_packed"]
    m["gf2.solve_packed.rows"] = agg.count["gf2.solve_packed"]
    m["gf2.solve_packed.us_per_call"] = agg.us_per_call("gf2.solve_packed")
    m["gf2.rank.calls"] = agg.calls["gf2.rank"]
    m["gf2.boundary.calls"] = sum(agg.calls[name] for name in boundary)
    # Boundary helpers call only each other, so their self times add up to
    # the time spent inside the outermost boundary calls.
    m["gf2.boundary.s"] = sum(agg.self_seconds[name] for name in boundary)
    m["codes.build.calls"] = agg.calls["codes.build"]
    m["codes.build.s"] = agg.seconds["codes.build"]
    m["codes.weight_distribution.s"] = agg.seconds["codes.weight_distribution"]
    m["codes.embed.calls"] = agg.calls["codes.embed"]
    for side, conditional in (("bec", "conditional_failure_exact"), ("bdc", "conditional_encfail_exact")):
        m[f"{side}.exhaustive.calls"] = agg.calls[f"{side}.exhaustive"]
        m[f"{side}.exhaustive.s"] = agg.seconds[f"{side}.exhaustive"]
        m[f"{side}.exhaustive.patterns"] = agg.count[f"{side}.exhaustive"]
        m[f"{side}.monte_carlo.s"] = agg.seconds[f"{side}.monte_carlo"]
        m[f"{side}.monte_carlo.trials"] = agg.count[f"{side}.monte_carlo"]
        m[f"{side}.monte_carlo.failures"] = agg.extra[f"{side}.monte_carlo"]
        m[f"{side}.{conditional}.calls"] = agg.calls[f"{side}.{conditional}"]
        m[f"{side}.{conditional}.s"] = agg.seconds[f"{side}.{conditional}"]
    for name in ("bdc.additive_encode", "bdc.binning_encode", "bdc.decode",
                 "bridge.quantize", "bridge.wom_write", "lwc.rewrite_update"):
        m[f"{name}.calls"] = agg.calls[name]
        m[f"{name}.us_per_call"] = agg.us_per_call(name)
    for name in ("bdc.additive_encode", "bdc.binning_encode", "bridge.wom_write"):
        m[f"{name}.success_ratio"] = agg.ratio(name)
    updates = agg.calls["lwc.rewrite_update"]
    scanned = agg.count_under_rewrite["lwc.masking_codeword_ints"]
    m["lwc.rewrite_update.candidates_per_call"] = scanned / updates if updates else 0.0
    m["lwc.masking_codeword_ints.calls"] = agg.calls["lwc.masking_codeword_ints"]
    m["lwc.masking_codeword_ints.words"] = agg.count["lwc.masking_codeword_ints"]
    m["lwc.rewriting_locality.calls"] = agg.calls["lwc.rewriting_locality"]
    m["lwc.rewriting_locality.s"] = agg.seconds["lwc.rewriting_locality"]
    m["cli.parse_code_spec.calls"] = agg.calls["cli.parse_code_spec"]
    return m


def traced_metrics(runner: Runner, tracer: Tracer, passes: list[int]) -> dict[str, float]:
    """Counts from the first traced pass (every pass repeats them); times as
    medians over the traced passes."""
    per_pass = [layer_metrics(tracer.aggregate(runner.pass_commands[p])) for p in passes]
    first = per_pass[0]
    for other in per_pass[1:]:
        for name, value in first.items():
            if PER_LAYER[name] in COUNT_UNITS and other[name] != value:
                print(f"warning: {name} differs between traced passes", file=sys.stderr)
    return {name: (first[name] if PER_LAYER[name] in COUNT_UNITS
                   else statistics.median(m[name] for m in per_pass))
            for name in first}


def trace_run(package, workload, seed: int, seconds: float) -> tuple[Runner, dict[str, float]]:
    runner = Runner(package, workload, seed)
    rates = Tracer(package, RATE_TARGETS)
    untraced = runner.run_for(seconds / 2, rates)
    metrics = untraced_metrics(runner, rates, untraced)
    tracer = Tracer(package)
    origin = perf_counter()
    traced = runner.run_for(seconds / 2, tracer, TRACED_PASSES)
    metrics.update(traced_metrics(runner, tracer, traced))
    metrics["trace.overhead_ratio"] = (statistics.median(runner.normalized(traced))
                                       / statistics.median(runner.normalized(untraced)))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{workload.name}-seed{seed}.csv", origin,
                 runner.pass_commands[traced[0]])
    return runner, metrics


def timed_run(package, workload, seed: int, seconds: float) -> tuple[Runner, dict[str, float]]:
    setup = measure_setup(workload, SETUP_REPEATS // 2)
    runner = Runner(package, workload, seed)
    rates = Tracer(package, RATE_TARGETS)
    passes = runner.run_for(seconds, rates)
    setup += measure_setup(workload, SETUP_REPEATS - SETUP_REPEATS // 2)
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setup) * NOMINAL_ROUND_S
                    / statistics.median(r for _, r in setup)),
        "wall_norm": statistics.median(runner.normalized(passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary = untraced_metrics(runner, rates, passes)
    q = statistics.quantiles(runner.pass_seconds, n=4) if len(passes) > 1 else runner.pass_seconds * 3
    print(f"# passes={len(passes)} wall_s quartiles={q[0]:.4f}/{q[1]:.4f}/{q[2]:.4f} "
          f"reference_s median={statistics.median(runner.reference_seconds):.5f} "
          f"setup raw_s={' '.join(f'{t:.4f}' for t, _ in setup)} "
          f"round_ms={' '.join(f'{1e3 * r:.3f}' for _, r in setup)}")
    for name, value in summary.items():
        unit = "trials/s" if name.endswith("per_s") else "s"
        print(f"# {name} {value!r} {unit} (median of {len(passes)} passes; not gated)")
    return runner, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    package = import_package()
    workload = WORKLOADS[args.workload]
    print(json.dumps({"header": run_header(workload, args.seed, args.seconds, args.trace)}))
    run = trace_run if args.trace else timed_run
    runner, values = run(package, workload, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in values.items():
        print(f"# {name} {value!r} {units[name]}")
    print(f"# error_rate {runner.failed / runner.attempted!r} ratio "
          f"({runner.failed} of {runner.attempted} commands)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
