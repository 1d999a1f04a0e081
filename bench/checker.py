"""Output checks for the benchmark's CLI commands.

Exact outputs are compared byte for byte with references generated at the
seed commit (``make_references.py``), with only the trailing seed column
substituted.  Monte Carlo outputs are checked statistically: a failure count
must not sit in a binomial tail of probability below ``TAIL`` (about five
standard errors, two-sided) under the exact value, and the paired read-side
and write-side counts of one code must not differ by more than the same
two-sample bound.  Every check returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references"

HEADER = "experiment,code,side,param,estimate,ci_low,ci_high,exact,bound,regime,trials,seed"
FIELDS = HEADER.split(",")

#: Two-sided tail probability of a five-standard-error normal deviation.
TAIL = math.erfc(5 / math.sqrt(2))

#: Rounding allowed when an estimate is compared with its interval.
CI_SLACK = 1e-12


def reference_text(name: str, seed: int) -> str:
    """A reference output with its seed column set to ``seed``."""
    lines = (REFERENCES / name).read_text(encoding="utf-8").splitlines()
    out = [lines[0]] + [line.rsplit(",", 1)[0] + f",{seed}" for line in lines[1:]]
    return "\n".join(out) + "\n"


def parse_rows(text: str) -> list[dict[str, str]]:
    """Rows of the CLI's CSV output.

    The CLI does not quote fields, and code names such as ``bch(4,2)``
    contain commas, so the code column is whatever lies between the first
    field and the last ten.
    """
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing or wrong CSV header")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) < len(FIELDS):
            raise ValueError(f"malformed row {line!r}")
        values = [fields[0], ",".join(fields[1:-10]), *fields[-10:]]
        rows.append(dict(zip(FIELDS, values)))
    return rows


def binomial_tail(k: int, trials: int, p: float) -> float:
    """min(P[K <= k], P[K >= k]) for K ~ Binomial(trials, p)."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == trials else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    lg = math.lgamma

    def pmf(i: int) -> float:
        return math.exp(lg(trials + 1) - lg(i + 1) - lg(trials - i + 1) + i * log_p + (trials - i) * log_q)

    low = sum(pmf(i) for i in range(0, k + 1))
    high = sum(pmf(i) for i in range(k, trials + 1))
    return min(low, high)


def _failures(row: dict[str, str]) -> int:
    trials = int(row["trials"])
    count = round(float(row["estimate"]) * trials)
    if count / trials != float(row["estimate"]):
        raise ValueError(f"estimate {row['estimate']} is not a count over {trials} trials")
    return count


def _mc_rows(cmd, seed: int, text: str) -> tuple[list[dict[str, str]], list[str]]:
    """Parse Monte Carlo duality rows and check their bookkeeping columns."""
    rows = parse_rows(text)
    problems = []
    alphas = _grid(cmd.option("--alpha"))
    expect_sides = ["bec", "bdc"] * len(alphas)
    if [r["side"] for r in rows] != expect_sides:
        return rows, [f"sides {[r['side'] for r in rows]} != {expect_sides}"]
    trials = cmd.option("--trials")
    for i, row in enumerate(rows):
        where = f"row {i + 1}"
        if row["experiment"] != "duality" or row["regime"] != "monte_carlo":
            problems.append(f"{where}: not a Monte Carlo duality row")
        if float(row["param"]) != alphas[i // 2]:
            problems.append(f"{where}: param {row['param']} != {alphas[i // 2]}")
        if row["trials"] != trials or row["seed"] != str(seed):
            problems.append(f"{where}: trials/seed {row['trials']}/{row['seed']} != {trials}/{seed}")
        # The CLI's Wilson bound at zero failures rounds to a few 1e-20.
        low, high = float(row["ci_low"]), float(row["ci_high"])
        if not low - CI_SLACK <= float(row["estimate"]) <= high + CI_SLACK:
            problems.append(f"{where}: estimate outside its interval")
        try:
            _failures(row)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    return rows, problems


def _grid(text: str) -> list[float]:
    if ":" not in text:
        return [float(t) for t in text.split(",")]
    lo, hi, step = (float(t) for t in text.split(":"))
    out, i = [], 0
    while round(lo + i * step, 12) <= hi + 1e-12:
        out.append(round(lo + i * step, 12))
        i += 1
    return out


def check_exact(cmd, seed: int, text: str) -> list[str]:
    expected = reference_text(cmd.reference, seed)
    if text == expected:
        return []
    got, want = text.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"line {i + 1} differs from the reference: {a!r} != {b!r}"]
    return [f"{len(got)} lines, reference has {len(want)}"]


def check_mc_vs_exact(cmd, seed: int, text: str) -> list[str]:
    """Each estimate is consistent with the exact value of the same point."""
    rows, problems = _mc_rows(cmd, seed, text)
    if problems:
        return problems
    exact = {(r["side"], float(r["param"])): Fraction(r["exact"])
             for r in parse_rows(reference_text(cmd.reference, seed))}
    for i, row in enumerate(rows):
        key = (row["side"], float(row["param"]))
        if key not in exact:
            problems.append(f"row {i + 1}: no exact reference for {key}")
            continue
        tail = binomial_tail(_failures(row), int(row["trials"]), float(exact[key]))
        if tail < TAIL / 2:
            problems.append(f"row {i + 1}: estimate {row['estimate']} is inconsistent with "
                            f"the exact value {exact[key]} (tail {tail:.3g})")
    return problems


def check_mc_paired(cmd, seed: int, text: str) -> list[str]:
    """The read-side and write-side estimates of each point agree."""
    rows, problems = _mc_rows(cmd, seed, text)
    if problems:
        return problems
    for i in range(0, len(rows), 2):
        k_dec, k_enc = _failures(rows[i]), _failures(rows[i + 1])
        # Given the total, the read-side share is Binomial(total, 1/2) when
        # both sides fail with the same probability (equal trial counts).
        tail = binomial_tail(k_dec, k_dec + k_enc, 0.5)
        if tail < TAIL / 2:
            problems.append(f"rows {i + 1}-{i + 2}: {k_dec} vs {k_enc} failures differ "
                            f"beyond the two-sample bound (tail {tail:.3g})")
    return problems


def check_lwc_sampled(cmd, seed: int, text: str) -> list[str]:
    """Profile and locality rows are exact; sampled cost rows respect the
    cost bounds, account for every trial, and never exceed the worst case
    of an exhaustive reference audit when one is committed."""
    rows = parse_rows(text)
    ref = parse_rows(reference_text(cmd.reference, seed))
    problems = []
    exact_sides = ("profile", "locality")
    got_exact = [r for r in rows if r["side"] in exact_sides]
    if got_exact != [r for r in ref if r["side"] in exact_sides]:
        problems.append("profile or locality rows differ from the reference")
    ref_worst = {(r["side"], r["param"]): float(r["estimate"])
                 for r in ref if r["side"] in ("rewrite", "write")}
    trials = int(cmd.option("--trials"))
    for side in ("rewrite", "write"):
        side_rows = [r for r in rows if r["side"] == side]
        if sum(int(r["trials"]) for r in side_rows) != trials:
            problems.append(f"{side} rows account for "
                            f"{sum(int(r['trials']) for r in side_rows)} of {trials} trials")
        for r in side_rows:
            worst, cap = float(r["estimate"]), float(r["bound"])
            if r["regime"] != "ok" or worst > cap or r["seed"] != str(seed):
                problems.append(f"{side} row {r['param']}: worst {worst} against cap {cap}, "
                                f"regime {r['regime']}, seed {r['seed']}")
            if not Fraction(r["exact"]) <= worst:
                problems.append(f"{side} row {r['param']}: mean {r['exact']} above worst {worst}")
            if ref_worst and worst > ref_worst.get((side, r["param"]), -1.0):
                problems.append(f"{side} row {r['param']}: worst {worst} exceeds the "
                                f"exhaustive worst case")
    if len(rows) != len(got_exact) + sum(r["side"] in ("rewrite", "write") for r in rows):
        problems.append("unexpected row sides")
    return problems


def check_quaternity(cmd, seed: int, text: str) -> list[str]:
    """Both reductions report zero violations at every alpha; any other row
    (the rate bookkeeping) is ``ok``."""
    rows = parse_rows(text)
    trials = cmd.option("--trials")
    fuzz = [r for r in rows if r["side"] in ("beq", "wom")]
    expected = [(side, a) for a in _grid(cmd.option("--alpha")) for side in ("beq", "wom")]
    if [(r["side"], float(r["param"])) for r in fuzz] != expected:
        return [f"reduction rows {[(r['side'], r['param']) for r in fuzz]} != {expected}"]
    problems = [f"{r['side']} row at {r['param']}: regime {r['regime']}, seed {r['seed']}"
                for r in rows if r["regime"] != "ok" or r["seed"] != str(seed)]
    problems += [f"{r['estimate']} {r['side']} violations in {r['trials']} trials at {r['param']}"
                 for r in fuzz if float(r["estimate"]) != 0.0 or r["trials"] != trials]
    return problems


CHECKS = {
    "exact": check_exact,
    "mc_vs_exact": check_mc_vs_exact,
    "mc_paired": check_mc_paired,
    "lwc_sampled": check_lwc_sampled,
    "quaternity": check_quaternity,
}


def check(cmd, seed: int, text: str) -> list[str]:
    """Problems with one command's output; parse errors count as problems."""
    try:
        return CHECKS[cmd.check](cmd, seed, text)
    except (ValueError, KeyError, IndexError, ArithmeticError) as exc:
        return [f"unreadable output: {exc!r}"]
