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

AUDIT_CAP = 12


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


def _point(experiment: str, code: str, side: str, param: float, value, exact: str = "",
           bound: str = "", regime: str = "", trials: int = 0, *, seed: int) -> ResultRow:
    """A row whose estimate is exact: its interval is the point itself."""
    value = float(value)
    return ResultRow(experiment, code, side, param, value, value, value, exact, bound, regime,
                     trials, seed)


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
        raise ConfigError("--code is required")
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
    if text is None:
        raise ConfigError("missing parameter grid")
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
                if key not in _DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return out


_DEFAULTS = {  # every config file key, with its default
    "code": None,
    "alpha": "0.1",
    "beta": None,
    "trials": "10000",
    "seed": "0",
    "mode": "exhaustive",
    "format": "csv",
    "out": None,
    "workers": "1",
    "self_audit": None,
}


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
        cmd.add_argument("--code", help="family:params (e.g. bch:4,2) or file:PATH")
        cmd.add_argument("--alpha", help="erasure probability grid (lo:hi:step, list, or value)")
        cmd.add_argument("--beta", help="defect probability grid; defaults to alpha")
        cmd.add_argument("--trials", help="Monte Carlo trials per point")
        cmd.add_argument("--seed", help="base seed; fully determines Monte Carlo output")
        cmd.add_argument("--mode", choices=["exhaustive", "monte_carlo"], help="computation mode")
        cmd.add_argument("--config", help="flat key = value config file (flags win)")
        cmd.add_argument("--out", help="output path (default stdout)")
        cmd.add_argument("--format", choices=["csv", "jsonl"], help="output format")
        cmd.add_argument("--workers", help="process pool size for Monte Carlo points")
        cmd.add_argument("--self-audit", action="store_true", dest="self_audit",
                         help="recompute exact values through an independent route")
    return parser


@dataclass
class Options:
    command: str
    code_spec: str
    alpha: list[float]
    beta: list[float]
    trials: int
    seed: int
    mode: str
    fmt: str
    out: str | None
    workers: int
    self_audit: bool


def resolve_options(args: argparse.Namespace) -> Options:
    file_cfg = read_config_file(args.config) if args.config else {}

    def pick(key):
        cli = getattr(args, key, None)
        if cli is not None:
            return cli
        if key in file_cfg:
            return file_cfg[key]
        return _DEFAULTS.get(key)

    code_spec = pick("code")
    if not code_spec:
        raise ConfigError("--code is required (flag or config file)")
    alpha = parse_grid(pick("alpha"))
    beta_raw = pick("beta")
    beta = parse_grid(beta_raw) if beta_raw else list(alpha)
    try:
        trials = int(pick("trials"))
        seed = int(pick("seed"))
        workers = int(pick("workers"))
    except ValueError as exc:
        raise ConfigError(f"bad integer option: {exc}") from None
    if trials <= 0 or workers <= 0:
        raise ConfigError("trials and workers must be positive")
    for grid, label in ((alpha, "alpha"), (beta, "beta")):
        if any(not 0 <= v <= 1 for v in grid):
            raise ConfigError(f"{label} values must lie in [0, 1]")
    mode = pick("mode")
    if mode not in ("exhaustive", "monte_carlo"):
        raise ConfigError(f"mode must be exhaustive or monte_carlo, got {mode!r}")
    fmt = pick("format")
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"format must be csv or jsonl, got {fmt!r}")
    return Options(
        command=args.command,
        code_spec=code_spec,
        alpha=alpha,
        beta=beta,
        trials=trials,
        seed=seed,
        mode=mode,
        fmt=fmt,
        out=pick("out"),
        workers=workers,
        self_audit=bool(args.self_audit or file_cfg.get("self_audit") == "true"),
    )


# -- independent audit oracles ----------------------------------------------------

def _audit_decode_failure(code: codes.LinearCode, alpha: Fraction) -> Fraction:
    """Recompute P(decoding failure) through the generator-side rank route."""
    if code.n > AUDIT_CAP:
        raise ConfigError(f"--self-audit is capped at n <= {AUDIT_CAP}")
    n = code.n
    g_rows = code.g_rows_packed
    total = Fraction(0)
    for e in range(n + 1):
        weight = alpha ** e * (1 - alpha) ** (n - e)
        if weight == 0:
            continue
        for pattern in itertools.combinations(range(n), e):
            erased = set(pattern)
            j = code.k - gf2.rank_packed(g_rows[i] for i in range(n) if i not in erased)
            if j:
                total += weight * Fraction((1 << j) - 1, 1 << j)
    return total


def _audit_masking_failure(code: codes.LinearCode, beta: Fraction) -> Fraction:
    """Recompute P(masking failure) by running the coset encoder on every
    pattern and stuck assignment."""
    if code.n > 10:
        raise ConfigError("--self-audit on the defect side is capped at n <= 10")
    n = code.n
    message = np.zeros(code.k, dtype=np.uint8)
    total = Fraction(0)
    for u in range(n + 1):
        weight = beta ** u * (1 - beta) ** (n - u)
        if weight == 0:
            continue
        for locs in itertools.combinations(range(n), u):
            fails = 0
            for vals in itertools.product([0, 1], repeat=u):
                pattern = bdc.DefectPattern.from_stuck(n, dict(zip(locs, vals)))
                if not bdc.binning_encode(code, message, pattern).success:
                    fails += 1
            if fails:
                total += weight * Fraction(fails, 1 << u)
    return total


# -- commands ----------------------------------------------------------------------

def _mc_duality_point(code: codes.LinearCode, side: str, prob: float, trials: int,
                      seed: int, index: int) -> FailureEstimate:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    if side == "bec":
        return bec.failure_prob(code, prob, "monte_carlo", trials=trials, rng=rng)
    return bdc.enc_failure_prob(code, prob, "monte_carlo", trials=trials, rng=rng)


def cmd_duality(opts: Options) -> list[ResultRow]:
    code = parse_code_spec(opts.code_spec)
    if len(opts.beta) != len(opts.alpha):
        raise ConfigError("alpha and beta grids must have the same length")
    rows: list[ResultRow] = []
    if opts.mode == "exhaustive":
        generator_route = None
        for alpha, beta in zip(opts.alpha, opts.beta):
            p_dec = bec.failure_prob(code, as_fraction(alpha), "exhaustive").exact
            p_enc = bdc.enc_failure_prob(code, as_fraction(beta), "exhaustive").exact
            if alpha == beta:
                # Both sides read H's nullity profile; check them against G's.
                if generator_route is None:
                    generator_route = bec.generator_failure_numerators(code)
                expected = bec.pattern_polynomial(generator_route, as_fraction(alpha))
                if p_dec != expected or p_enc != expected:
                    raise InvariantViolation(
                        f"failure probabilities at alpha=beta={alpha} disagree with the "
                        f"generator-side route: decoding {p_dec}, masking {p_enc}, "
                        f"generator ranks {expected}")
            if opts.self_audit:
                audit_dec = _audit_decode_failure(code, as_fraction(alpha))
                audit_enc = _audit_masking_failure(code, as_fraction(beta))
                if audit_dec != p_dec or audit_enc != p_enc:
                    raise InvariantViolation("self-audit mismatch in exhaustive duality values")
            for side, prob, exact in (("bec", alpha, p_dec), ("bdc", beta, p_enc)):
                rows.append(_point("duality", code.name, side, prob, exact, str(exact),
                                   regime="exact", seed=opts.seed))
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
        rows.append(ResultRow("duality", code.name, side, prob, est.value, est.ci_low, est.ci_high,
                              "", "", "monte_carlo", opts.trials, opts.seed))
    return rows


def cmd_bounds(opts: Options) -> list[ResultRow]:
    code = parse_code_spec(opts.code_spec)
    wd = code.weight_distribution()
    d = code.min_distance()
    # The oracle is the per-size average of H's nullity profile, the same
    # table on both sides; --self-audit checks it against the weight enumerator.
    numerators = bec.failure_numerators(code) if code.n <= bec.EXHAUSTIVE_CAP else None
    rows = []
    for side in ("bec", "bdc"):
        for e in range(code.n + 1):
            if side == "bec":
                piece = bec.failure_bound(code.n, e, d, wd)
            else:
                piece = bdc.enc_failure_bound(code.n, e, d, wd)
            oracle = None
            if numerators is not None:
                oracle = Fraction(numerators[e], comb(code.n, e) << code.n)
            estimate = float(oracle) if oracle is not None else float(piece.value)
            if opts.self_audit and oracle is not None:
                if piece.regime in ("zero", "exact") and piece.value != oracle:
                    raise InvariantViolation(
                        f"bound value {piece.value} disagrees with the pattern oracle {oracle} at e={e}")
                if piece.regime == "upper" and piece.value < oracle:
                    raise InvariantViolation(f"upper bound fails to dominate the oracle at e={e}")
            rows.append(_point("bounds", code.name, side, float(e), estimate,
                               str(oracle) if oracle is not None else "",
                               str(piece.value), piece.regime, seed=opts.seed))
    return rows


def _lwc_workload(code, opts):
    """(message, new_message, pattern) triples, exhaustive or sampled."""
    n, k = code.n, code.k
    patterns = [bdc.DefectPattern.all_normal(n)] + [
        bdc.DefectPattern.from_stuck(n, {i: v}) for i in range(n) for v in (0, 1)
    ]
    if opts.mode == "exhaustive":
        if (1 << (2 * k)) * len(patterns) > 1 << 24:
            raise ConfigError(
                f"exhaustive audit of 2^{2 * k} message pairs is too large; use --mode monte_carlo")
        for old_bits in itertools.product([0, 1], repeat=k):
            old = np.array(old_bits, dtype=np.uint8)
            for new_bits in itertools.product([0, 1], repeat=k):
                new = np.array(new_bits, dtype=np.uint8)
                for pattern in patterns:
                    yield old, new, pattern
    else:
        rng = np.random.default_rng(np.random.SeedSequence(opts.seed, spawn_key=(0,)))
        for _ in range(opts.trials):
            old = rng.integers(0, 2, k, dtype=np.uint8)
            new = rng.integers(0, 2, k, dtype=np.uint8)
            pattern = patterns[int(rng.integers(0, len(patterns)))]
            yield old, new, pattern


def cmd_lwc_audit(opts: Options) -> list[ResultRow]:
    code = parse_code_spec(opts.code_spec)
    profile = lwc.rewriting_locality(code)
    bound = lwc.singleton_like_bound(profile.n, profile.k, profile.r_star)
    rows = [_point("lwc-audit", code.name, "profile", float(profile.r_star), profile.d_star,
                   "", str(bound), "optimal" if profile.is_optimal else "suboptimal",
                   seed=opts.seed)]
    for i, r in enumerate(profile.per_coordinate):
        rows.append(_point("lwc-audit", code.name, "locality", float(i), r, seed=opts.seed))

    # Rewrite costs by message distance, first-write costs by message weight.
    stats: dict[str, dict[int, list[int]]] = {"rewrite": {}, "write": {}}
    for old, new, pattern in _lwc_workload(code, opts):
        stored = bdc.additive_encode(code, old, pattern)
        if not stored.success:
            continue
        _, report = lwc.rewrite_update(code, stored.codeword, old, new, pattern)
        stats["rewrite"].setdefault(int((old ^ new).sum()), []).append(report.rewrite_cost)
        stats["write"].setdefault(int(old.sum()), []).append(report.initial_cost)
    for side, slack in (("rewrite", profile.r_star - 1), ("write", profile.r_star)):
        for key, costs in sorted(stats[side].items()):
            cap = key + slack
            worst = max(costs)
            rows.append(_point("lwc-audit", code.name, side, float(key), worst,
                               str(Fraction(sum(costs), len(costs))), str(cap),
                               "ok" if worst <= cap else "violation", len(costs),
                               seed=opts.seed))
    if any(row.regime == "violation" for row in rows):
        raise InvariantViolation("a cost bound was violated during the audit")
    return rows


def cmd_quaternity(opts: Options) -> list[ResultRow]:
    code = parse_code_spec(opts.code_spec)
    rows = []
    for point, alpha in enumerate(opts.alpha):
        rng = np.random.default_rng(np.random.SeedSequence(opts.seed, spawn_key=(point,)))
        beq_violations = 0
        for _ in range(opts.trials):
            src = bridge.sample_source(code.n, alpha, rng)
            _, distortion = bridge.quantize(code, src)
            maskable = bdc.binning_encode(
                code, np.zeros(code.k, dtype=np.uint8), bridge.beq_to_bdc(src)).success
            if (distortion == 0) != maskable:
                beq_violations += 1
        wom_violations = 0
        one_density = 1 - alpha
        for _ in range(opts.trials):
            cells = (rng.random(code.n) < one_density).astype(np.uint8)
            state = bridge.WomState(cells)
            message = rng.integers(0, 2, code.k, dtype=np.uint8)
            new_state, ok = bridge.wom_write(code, state, message)
            if ok:
                if np.any(new_state.cells < cells):
                    wom_violations += 1
                elif not np.array_equal(bdc.decode(code, new_state.cells), message):
                    wom_violations += 1
            elif new_state is not state:
                wom_violations += 1
        for side, violations in (("beq", beq_violations), ("wom", wom_violations)):
            rows.append(ResultRow("quaternity", code.name, side, alpha, float(violations),
                                  0.0, 0.0, "", "", "ok" if not violations else "violation",
                                  opts.trials, opts.seed))
    if any(row.regime == "violation" for row in rows):
        raise InvariantViolation("reduction fuzzing found violations")
    return rows


def cmd_code_info(opts: Options) -> list[ResultRow]:
    code = parse_code_spec(opts.code_spec)
    rows = [
        _point("code-info", code.name, "n", 0.0, code.n, seed=opts.seed),
        _point("code-info", code.name, "k", 0.0, code.k, seed=opts.seed),
        _point("code-info", code.name, "rate", 0.0, code.rate, str(Fraction(code.k, code.n)),
               seed=opts.seed),
        _point("code-info", code.name, "cyclic", 0.0, code.cyclic, seed=opts.seed),
    ]
    try:
        d = code.min_distance()
        wd = code.weight_distribution()
    except CapacityError as exc:
        print(f"note: d and weight rows omitted: {exc}", file=sys.stderr)
        return rows
    rows.insert(2, _point("code-info", code.name, "d", 0.0, d, seed=opts.seed))
    for w, count in enumerate(wd):
        if count:
            rows.append(_point("code-info", code.name, "weight", float(w), count, str(count),
                               seed=opts.seed))
    return rows


COMMANDS = {
    "duality": cmd_duality,
    "bounds": cmd_bounds,
    "lwc-audit": cmd_lwc_audit,
    "quaternity": cmd_quaternity,
    "code-info": cmd_code_info,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    if opts.out:
        try:
            with open(opts.out, "w", encoding="utf-8", newline="") as fh:
                write_rows(rows, opts.fmt, fh)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        write_rows(rows, opts.fmt, sys.stdout)
    elapsed = time.perf_counter() - started
    print(f"# {args.command} rows={len(rows)} wall_time_s={elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
