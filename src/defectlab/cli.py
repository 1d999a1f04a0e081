"""Command-line experiment runner.

Verbs: duality, bounds, lwc-audit, quaternity, code-info.  Results are rows
of a fixed schema written as CSV or JSON lines; reruns with the same config
and seed are byte-identical (timings go to stderr only).  Exit codes: 0 on
success, 2 on a configuration error, 3 when a self-audit or built-in
consistency assertion fails or a masking request cannot be met.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import bdc, bec, bridge, codes, gf2, lwc
from .errors import CapacityError, InvariantViolation, MaskingError
from .stats import FailureEstimate, as_fraction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AUDIT = 3

AUDIT_CAP = 10  # blocklength of --self-audit in duality
LWC_AUDIT_CAP = 1 << 24  # message pairs x patterns of an exhaustive lwc-audit
BATCH = 1 << 10  # trials per batch call of lwc-audit and quaternity


class ConfigError(ValueError):
    pass


@dataclass
class ResultRow:
    experiment: str
    code: str
    side: str
    param: float
    estimate: float
    ci_low: float
    ci_high: float
    exact: str
    bound: str
    regime: str
    trials: int
    seed: int


CSV_HEADER = ",".join(f.name for f in ResultRow.__dataclass_fields__.values())


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _row(opts: argparse.Namespace, side: str, param, estimate, exact: str = "", bound: str = "",
         regime: str = "", trials: int = 0, ci: tuple[float, float] | None = None) -> ResultRow:
    """A row stamped with the run's verb, code and seed.  Without `ci` the
    estimate is exact: its interval is the point itself."""
    estimate = float(estimate)
    ci_low, ci_high = ci or (estimate, estimate)
    return ResultRow(opts.command, opts.code.name, side, float(param), estimate, ci_low, ci_high,
                     exact, bound, regime, trials, opts.seed)


def write_rows(rows: list[ResultRow], fmt: str, stream) -> None:
    if fmt == "csv":
        stream.write(CSV_HEADER + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in asdict(row).values()) + "\n")
    else:
        for row in rows:
            stream.write(json.dumps(asdict(row), sort_keys=True) + "\n")


# -- option parsing -------------------------------------------------------------

def parse_code_spec(spec: str) -> codes.LinearCode:
    if not spec:
        raise ConfigError("a code spec is required (--code or config file)")
    head, _, tail = spec.partition(":")
    if head == "file":
        try:
            return codes.load_code(tail, name=spec)
        except OSError as exc:
            raise ConfigError(f"cannot read code file {tail!r}: {exc}") from None
    try:
        params = [int(tok, 0) for tok in tail.split(",") if tok] if tail else []
        return codes.build(head, *params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad code spec {spec!r}: {exc}") from None


def parse_grid(text: str) -> list[float]:
    """Grid syntax: single value, comma list, or lo:hi:step (inclusive)."""
    if ":" in text:
        try:
            lo, hi, step = (float(t) for t in text.split(":"))
        except ValueError:
            raise ConfigError(f"bad grid {text!r}; expected lo:hi:step") from None
        if step <= 0 or hi < lo:
            raise ConfigError(f"bad grid {text!r}")
        out = []
        i = 0
        while True:
            v = round(lo + i * step, 12)
            if v > hi + 1e-12:
                break
            out.append(v)
            i += 1
        return out
    try:
        values = [float(t) for t in text.split(",") if t]
    except ValueError:
        raise ConfigError(f"bad parameter list {text!r}") from None
    if not values:
        raise ConfigError(f"empty parameter grid {text!r}")
    return values


def _probabilities(text: str) -> list[float]:
    grid = parse_grid(text)
    if any(not 0 <= v <= 1 for v in grid):
        raise ValueError(f"values must lie in [0, 1], got {text!r}")
    return grid


def _at_least(least: int, wording: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"must be {wording}, got {value}")
        return value
    return parse


def _one_of(*allowed: str):
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"expected {' or '.join(allowed)}, got {text!r}")
        return text
    return parse


# Every option, as a flag and as a config-file key: help, default text, and the
# parser that both the flag's and the file's text go through.
OPTIONS = {
    "code": ("family:params (e.g. bch:4,2) or file:PATH", "",
             lambda text: parse_code_spec(text)),
    "alpha": ("erasure probability grid (lo:hi:step, list, or value)", "0.1", _probabilities),
    "beta": ("defect probability grid; defaults to alpha", None, _probabilities),
    "trials": ("Monte Carlo trials per point", "10000", _at_least(1, "positive")),
    "seed": ("base seed; fully determines Monte Carlo output", "0",
             _at_least(0, "non-negative")),
    "mode": ("exhaustive or monte_carlo", "exhaustive", _one_of("exhaustive", "monte_carlo")),
    "format": ("csv or jsonl", "csv", _one_of("csv", "jsonl")),
    "out": ("output path (default stdout)", None, str),
    "workers": ("process pool size for Monte Carlo points", "1", _at_least(1, "positive")),
    "self_audit": ("check exact values through independent routes", "false",
                   lambda text: _one_of("true", "false")(text) == "true"),
}


def read_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments are ignored."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key = key.strip().replace("-", "_")
                if key not in OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectlab",
        description="Erasure/defect channel-coding experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in [
        ("duality", "paired decoding/masking failure probabilities, same code, alpha = beta"),
        ("bounds", "failure-probability regimes swept over the pattern size"),
        ("lwc-audit", "rewrite/write cost audit and locality profile"),
        ("quaternity", "fuzz the quantization and write-once reductions"),
        ("code-info", "dimensions, distance, and weight distribution of a code"),
    ]:
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", help="flat key = value config file (flags win)")
        for key, (help_text, _, _) in OPTIONS.items():
            switch = {"action": "store_const", "const": "true"} if key == "self_audit" else {}
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **switch)
    return parser


def resolve_options(args: argparse.Namespace) -> argparse.Namespace:
    """Each option's text comes from its flag, else the config file, else its
    default, and goes through its parser; `beta` falls back to `alpha`."""
    file_cfg = read_config_file(args.config) if args.config else {}
    opts = argparse.Namespace(command=args.command)
    for key, (_, default, parse) in OPTIONS.items():
        text = getattr(args, key)
        if text is None:
            text = file_cfg.get(key, default)
        try:
            setattr(opts, key, None if text is None else parse(text))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    opts.beta = opts.beta or opts.alpha
    if opts.self_audit and not (opts.command == "bounds"
                                or (opts.command == "duality" and opts.mode == "exhaustive")):
        raise ConfigError("self_audit: applies only to bounds and to duality in exhaustive mode")
    return opts


# -- independent audit routes -----------------------------------------------------

def _route_profiles(code: codes.LinearCode) -> dict[str, list[list[int]]]:
    """Rebuild the nullity profile N[e][j] one location set E at a time,
    through two routes that walk no subsets:

    * generator: j = k - rank of G's rows outside E, the message bits that
      erasing E leaves free;
    * masking: the coset encoder runs on all 2^|E| stuck assignments of E,
      and exactly 2^(|E| - j) of them mask.  A count that is not a power of
      two gives no nullity; its set is left out, so its row comes up short.
    """
    if code.n > AUDIT_CAP:
        raise ConfigError(f"--self-audit is capped at n <= AUDIT_CAP = {AUDIT_CAP}")
    n, k = code.n, code.k
    g_rows = code.g_rows_packed
    tables = {route: [[0] * (n + 1) for _ in range(n + 1)] for route in ("generator", "masking")}
    for e in range(n + 1):
        messages = np.zeros((1 << e, k), dtype=np.uint8)
        values = (np.arange(1 << e)[:, None] >> np.arange(e)) & 1  # row: one stuck assignment
        for locs in itertools.combinations(range(n), e):
            kept = [g_rows[i] for i in range(n) if i not in locs]
            tables["generator"][e][k - gf2.rank_packed(kept)] += 1
            states = np.full((1 << e, n), bdc.NORMAL, dtype=np.int8)
            states[:, list(locs)] = values
            masked = int(np.count_nonzero(bdc.binning_encode_batch(code, messages, states).success))
            if masked and not masked & (masked - 1):
                tables["masking"][e][e + 1 - masked.bit_length()] += 1
    return tables


def _self_audit(code: codes.LinearCode) -> None:
    """Check the nullity profile entry by entry against both routes.  Every
    exhaustive value on both channels is read off the profile, so this covers
    every alpha and beta at once."""
    for route, table in _route_profiles(code).items():
        for e, (got, want) in enumerate(zip(table, code.h_nullity_profile)):
            for j, (ours, theirs) in enumerate(zip(got, want)):
                if ours != theirs:
                    raise InvariantViolation(
                        f"self-audit mismatch: the {route} route counts {ours} sets of size "
                        f"e={e} with nullity j={j}, the nullity profile {theirs}")


# -- commands ----------------------------------------------------------------------

def _mc_duality_point(code: codes.LinearCode, side: str, prob: float, trials: int,
                      seed: int, index: int) -> FailureEstimate:
    stream = np.random.SeedSequence(seed, spawn_key=(index,))
    if side == "bec":
        return bec.failure_prob(code, prob, "monte_carlo", trials=trials, seed=stream)
    return bdc.enc_failure_prob(code, prob, "monte_carlo", trials=trials, seed=stream)


def cmd_duality(opts: argparse.Namespace) -> list[ResultRow]:
    code = opts.code
    if len(opts.beta) != len(opts.alpha):
        raise ConfigError("alpha and beta grids must have the same length")
    rows: list[ResultRow] = []
    if opts.mode == "exhaustive":
        if opts.self_audit:
            _self_audit(code)
        for alpha, beta in zip(opts.alpha, opts.beta):
            for side, prob, failure_prob in (("bec", alpha, bec.failure_prob),
                                             ("bdc", beta, bdc.enc_failure_prob)):
                exact = failure_prob(code, as_fraction(prob), "exhaustive").exact
                rows.append(_row(opts, side, prob, exact, str(exact), regime="exact"))
        return rows

    tasks = []
    for i, (alpha, beta) in enumerate(zip(opts.alpha, opts.beta)):
        tasks.append((code, "bec", alpha, opts.trials, opts.seed, 2 * i))
        tasks.append((code, "bdc", beta, opts.trials, opts.seed, 2 * i + 1))
    if opts.workers > 1:
        # Each worker is forked at the first submit, so start no more than there are points.
        with concurrent.futures.ProcessPoolExecutor(min(opts.workers, len(tasks))) as pool:
            results = list(pool.map(_mc_duality_point, *zip(*tasks)))
    else:
        results = [_mc_duality_point(*task) for task in tasks]
    for est, (_, side, prob, *_) in zip(results, tasks):
        rows.append(_row(opts, side, prob, est.value, regime="monte_carlo", trials=opts.trials,
                         ci=(est.ci_low, est.ci_high)))
    return rows


def cmd_bounds(opts: argparse.Namespace) -> list[ResultRow]:
    code = opts.code
    wd = code.weight_distribution()
    d = code.min_distance()
    # The oracle is the per-size average of H's nullity profile, the same
    # table on both sides; --self-audit checks it against the weight enumerator.
    try:
        numerators = bec.failure_numerators(code)
    except CapacityError as exc:
        if opts.self_audit:
            raise ConfigError(f"self_audit: no exact oracle to audit against: {exc}") from None
        numerators = None
    rows = []
    for side, failure_bound in (("bec", bec.failure_bound), ("bdc", bdc.enc_failure_bound)):
        for e in range(code.n + 1):
            piece = failure_bound(code.n, e, d, wd)
            oracle = Fraction(numerators[e], comb(code.n, e) << code.n) if numerators else None
            estimate = float(oracle) if oracle is not None else float(piece.value)
            if opts.self_audit:
                if piece.regime in ("zero", "exact") and piece.value != oracle:
                    raise InvariantViolation(
                        f"bound value {piece.value} disagrees with the pattern oracle {oracle} at e={e}")
                if piece.regime == "upper" and piece.value < oracle:
                    raise InvariantViolation(f"upper bound fails to dominate the oracle at e={e}")
            rows.append(_row(opts, side, e, estimate, str(oracle) if oracle is not None else "",
                             str(piece.value), piece.regime))
    return rows


def _batches(trials: int):
    """Row counts of the batch calls that make up `trials` trials."""
    for lo in range(0, trials, BATCH):
        yield min(BATCH, trials - lo)


def _lwc_workload(opts: argparse.Namespace):
    """(messages, new messages, states) batches of (message, new_message,
    pattern) triples, exhaustive or sampled: one row per triple."""
    n, k = opts.code.n, opts.code.k
    # all cells normal, then cell i stuck at 0 and at 1 for each i
    patterns = np.full((2 * n + 1, n), bdc.NORMAL, dtype=np.int8)
    cells = np.arange(n)
    patterns[1 + 2 * cells, cells] = 0
    patterns[2 + 2 * cells, cells] = 1
    if opts.mode == "exhaustive":
        total = (1 << (2 * k)) * len(patterns)
        if total > LWC_AUDIT_CAP:
            raise ConfigError(
                f"exhaustive audit of 2^{2 * k} message pairs x {len(patterns)} patterns exceeds "
                f"LWC_AUDIT_CAP = {LWC_AUDIT_CAP}; use --mode monte_carlo")
        messages = np.array(list(itertools.product([0, 1], repeat=k)), dtype=np.uint8)
        for lo in range(0, total, BATCH):
            pair, pattern = np.divmod(np.arange(lo, min(lo + BATCH, total)), len(patterns))
            old, new = np.divmod(pair, len(messages))
            yield messages[old], messages[new], patterns[pattern]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(opts.seed, spawn_key=(0,)))
        for size in _batches(opts.trials):
            old, new = rng.integers(0, 2, (2, size, k), dtype=np.uint8)
            yield old, new, patterns[rng.integers(0, len(patterns), size)]


def cmd_lwc_audit(opts: argparse.Namespace) -> list[ResultRow]:
    code = opts.code
    profile = lwc.rewriting_locality(code)
    bound = lwc.singleton_like_bound(profile.n, profile.k, profile.r_star)
    rows = [_row(opts, "profile", profile.r_star, profile.d_star, "", str(bound),
                 "optimal" if profile.is_optimal else "suboptimal")]
    for i, r in enumerate(profile.per_coordinate):
        rows.append(_row(opts, "locality", i, r))

    # Rewrite costs by message distance, first-write costs by message weight.
    stats: dict[str, dict[int, list[int]]] = {"rewrite": {}, "write": {}}
    for old, new, states in _lwc_workload(opts):
        stored = bdc.additive_encode_batch(code, old, states)
        if not stored.success.all():
            # the localities cover every coordinate, so one stuck cell is always maskable
            raise InvariantViolation("a first write failed with at most one stuck cell")
        _, initial, rewrite = lwc.rewrite_update_batch(code, stored.codewords, old, new, states)
        for side, keys, costs in (("rewrite", (old ^ new).sum(axis=1), rewrite),
                                  ("write", old.sum(axis=1), initial)):
            for key, cost in zip(keys.tolist(), costs.tolist()):
                stats[side].setdefault(key, []).append(cost)
    for side, slack in (("rewrite", profile.r_star - 1), ("write", profile.r_star)):
        for key, costs in sorted(stats[side].items()):
            cap = key + slack
            worst = max(costs)
            rows.append(_row(opts, side, key, worst, str(Fraction(sum(costs), len(costs))),
                             str(cap), "ok" if worst <= cap else "violation", len(costs)))
    violations = [f"{row.side} key {row.param:g}: worst cost {row.estimate:g} > cap {row.bound}"
                  for row in rows if row.regime == "violation"]
    if violations:
        raise InvariantViolation("a cost bound was violated during the audit: "
                                 + "; ".join(violations))
    return rows


def cmd_quaternity(opts: argparse.Namespace) -> list[ResultRow]:
    code = opts.code
    n, k = code.n, code.k
    rows = []
    for point, alpha in enumerate(opts.alpha):
        rng = np.random.default_rng(np.random.SeedSequence(opts.seed, spawn_key=(point,)))
        beq_violations = 0
        for size in _batches(opts.trials):
            samples = bridge.sample_source(size * n, alpha, rng).samples.reshape(size, n)
            _, distortion = bridge.quantize_batch(code, samples)
            zeros = np.zeros((size, k), dtype=np.uint8)
            maskable = bdc.binning_encode_batch(code, zeros, samples).success  # beq_to_bdc rows
            beq_violations += int(((distortion == 0) != maskable).sum())
        wom_violations = 0
        one_density = 1 - alpha
        for size in _batches(opts.trials):
            cells = rng.random((size, n)) < one_density
            messages = rng.integers(0, 2, (size, k), dtype=np.uint8)
            new_cells, ok = bridge.wom_write_batch(code, cells, messages)
            lowered = (new_cells < cells).any(axis=1)
            misread = (bdc.decode_batch(code, new_cells) != messages).any(axis=1)
            changed = (new_cells != cells).any(axis=1)  # a failed write must keep the state
            wom_violations += int(np.where(ok, lowered | misread, changed).sum())
        for side, violations in (("beq", beq_violations), ("wom", wom_violations)):
            rows.append(_row(opts, side, alpha, violations,
                             regime="ok" if not violations else "violation", trials=opts.trials))
    violations = [f"{row.side} at alpha={row.param!r}: {row.estimate:g} of {row.trials} trials"
                  for row in rows if row.regime == "violation"]
    if violations:
        raise InvariantViolation("reduction fuzzing found violations: " + "; ".join(violations))
    return rows


def cmd_code_info(opts: argparse.Namespace) -> list[ResultRow]:
    code = opts.code
    rows = [_row(opts, "n", 0, code.n), _row(opts, "k", 0, code.k),
            _row(opts, "rate", 0, code.rate, str(Fraction(code.k, code.n))),
            _row(opts, "cyclic", 0, code.cyclic)]
    if not code.k:
        print("note: d and weight rows omitted: the zero code has no nonzero codewords",
              file=sys.stderr)
        return rows
    try:
        d = code.min_distance()
        wd = code.weight_distribution()
    except CapacityError as exc:
        print(f"note: d and weight rows omitted: {exc}", file=sys.stderr)
        return rows
    rows.insert(2, _row(opts, "d", 0, d))
    rows += [_row(opts, "weight", w, count, str(count)) for w, count in enumerate(wd) if count]
    return rows


COMMANDS = {
    "duality": cmd_duality,
    "bounds": cmd_bounds,
    "lwc-audit": cmd_lwc_audit,
    "quaternity": cmd_quaternity,
    "code-info": cmd_code_info,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        opts = resolve_options(args)
        rows = COMMANDS[args.command](opts)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except MaskingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    try:
        if opts.out:
            with open(opts.out, "w", encoding="utf-8", newline="") as fh:
                write_rows(rows, opts.format, fh)
        else:
            write_rows(rows, opts.format, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if not opts.out:  # the interpreter flushes stdout again at exit: point it at devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elapsed = time.perf_counter() - started
    print(f"# {args.command} rows={len(rows)} wall_time_s={elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
