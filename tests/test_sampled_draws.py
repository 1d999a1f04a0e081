"""The sampled `lwc-audit` and `quaternity` draws follow their laws.

Both verbs draw each batch of trials with one call per array.  The seeded
goldens pin the stream but not its law, and `quaternity` prints only
violation counts, so a draw that lost a message bit, a pattern or the
erasure rate would pass them.  These tests check the law twice: the sampled
audit against the exhaustive one, and the arrays that reach the kernels.
Every band sits at a five-standard-error tail.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from defectlab import bdc, bridge, cli

#: Two-sided tail probability of a five-standard-error normal deviation.
TAIL = math.erfc(5 / math.sqrt(2))


def within_5_sigma(hits: int, trials: int, p: float) -> bool:
    """`hits` lies in the 5-sigma band of a Binomial(trials, p) count."""
    return abs(hits - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))


def audit_rows(argv, capsys) -> dict[tuple[str, float], dict[str, str]]:
    """The `write` and `rewrite` rows of an `lwc-audit` run, by (side, key)."""
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return {(r["side"], float(r["param"])): r for r in rows if r["side"] in ("write", "rewrite")}


def test_sampled_audit_is_a_fair_sample_of_the_exhaustive_one(capsys):
    # two_block(8): 2^6 x 2^6 message pairs x 17 patterns = 69,632 triples
    n, trials = 8, 20_000
    exhaustive = audit_rows(["lwc-audit", "--code", "two_block:8", "--mode", "exhaustive"], capsys)
    sampled = audit_rows(["lwc-audit", "--code", "two_block:8", "--mode", "monte_carlo",
                          "--trials", str(trials), "--seed", "1"], capsys)
    total = sum(int(r["trials"]) for (side, _), r in exhaustive.items() if side == "write")
    assert total == 69_632
    assert set(sampled) <= set(exhaustive)
    # Hoeffding: a mean of c costs in [0, n] strays t from its own mean with
    # probability at most 2 exp(-2 c t^2 / n^2); t puts that at TAIL.
    hoeffding = n * math.sqrt(math.log(2 / TAIL) / 2)
    for key, want in exhaustive.items():
        got = sampled.get(key)
        count = int(got["trials"]) if got else 0
        assert within_5_sigma(count, trials, int(want["trials"]) / total), (key, count)
        mean, exact = Fraction(got["exact"]), Fraction(want["exact"])
        assert abs(mean - exact) <= hoeffding / math.sqrt(count), (key, mean, exact)


def spy(monkeypatch, module, name) -> list[tuple]:
    """Record the arguments of every call to `module.name`, then make it."""
    calls = []
    real = getattr(module, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, record)
    return calls


def argument(calls, i) -> np.ndarray:
    """Argument i of every recorded call, its batches stacked."""
    return np.concatenate([np.asarray(args[i]) for args in calls])


def assert_bits_uniform(bits: np.ndarray, p: float = 0.5):
    assert within_5_sigma(int(np.count_nonzero(bits == 1)), bits.size, p), (bits.mean(), p)


def test_lwc_audit_draws_reach_the_kernels(capsys, monkeypatch):
    n, trials = 8, 20_000
    encoded = spy(monkeypatch, bdc, "additive_encode_batch")
    updated = spy(monkeypatch, cli.lwc, "rewrite_update_batch")
    assert cli.main(["lwc-audit", "--code", "two_block:8", "--mode", "monte_carlo",
                     "--trials", str(trials), "--seed", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    old, states = argument(encoded, 1), argument(encoded, 2)
    assert old.shape[0] == trials
    np.testing.assert_array_equal(argument(updated, 2), old)
    np.testing.assert_array_equal(argument(updated, 4), states)
    new = argument(updated, 3)
    for bits in (old, new, old ^ new):  # each uniform, and new independent of old
        assert_bits_uniform(bits)
    # pattern 0 leaves every cell normal; 1 + 2i + v sticks cell i at v
    stuck = states != bdc.NORMAL
    assert (stuck.sum(axis=1) <= 1).all()
    cell = stuck.argmax(axis=1)
    picks = np.where(stuck.any(axis=1), 1 + 2 * cell + states[np.arange(trials), cell], 0)
    counts = np.bincount(picks, minlength=2 * n + 1)
    assert counts.size == 2 * n + 1
    for count in counts:
        assert within_5_sigma(int(count), trials, 1 / (2 * n + 1)), counts


@pytest.mark.parametrize("alpha", [0.2, 0.7])
def test_quaternity_draws_reach_the_kernels(alpha, capsys, monkeypatch):
    trials = 4000
    quantized = spy(monkeypatch, cli.bridge, "quantize_batch")
    written = spy(monkeypatch, cli.bridge, "wom_write_batch")
    assert cli.main(["quaternity", "--code", "two_block:10", "--alpha", str(alpha),
                     "--trials", str(trials), "--seed", "3"]) == cli.EXIT_OK
    capsys.readouterr()
    samples = argument(quantized, 1)
    assert samples.shape == (trials, 10)
    assert_bits_uniform(samples == bridge.FREE, alpha)
    assert_bits_uniform(samples[samples != bridge.FREE])  # stuck values balanced
    cells, messages = argument(written, 1), argument(written, 2)
    assert cells.shape == (trials, 10)
    assert_bits_uniform(cells, 1 - alpha)
    assert_bits_uniform(messages)
