import importlib
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from defectlab import cli, codes, gf2
from defectlab.errors import InvariantViolation


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_grid_parsing():
    assert cli.parse_grid("0.1") == [0.1]
    assert cli.parse_grid("0.05,0.2") == [0.05, 0.2]
    assert cli.parse_grid("0.05:0.2:0.05") == [0.05, 0.1, 0.15, 0.2]
    with pytest.raises(cli.ConfigError):
        cli.parse_grid("0.2:0.1:0.05")
    with pytest.raises(cli.ConfigError):
        cli.parse_grid("a:b:c")


def test_code_spec_parsing():
    assert cli.parse_code_spec("hamming:3").name == "hamming(3)"
    assert cli.parse_code_spec("bch:4,2").k == 7
    assert cli.parse_code_spec("rm:1,3").n == 8
    with pytest.raises(cli.ConfigError):
        cli.parse_code_spec("hamming:99")
    with pytest.raises(cli.ConfigError):
        cli.parse_code_spec("martian:1")


def test_code_info_runs(capsys):
    rc, out = run_cli(["code-info", "--code", "hamming:3"], capsys)
    assert rc == 0
    rows = parse_csv(out)
    values = {r["side"]: r["estimate"] for r in rows}
    assert values["n"] == "7.0"
    assert values["k"] == "4.0"
    assert values["d"] == "3.0"


def test_duality_exhaustive_rows_are_equal(capsys):
    rc, out = run_cli(["duality", "--code", "hamming:3", "--alpha", "0.1",
                       "--mode", "exhaustive"], capsys)
    assert rc == 0
    rows = parse_csv(out)
    assert [r["side"] for r in rows] == ["bec", "bdc"]
    assert rows[0]["exact"] == rows[1]["exact"]
    assert Fraction(rows[0]["exact"]) == Fraction(118569, 32000000)


def test_duality_with_self_audit(capsys):
    rc, out = run_cli(["duality", "--code", "two_block:8", "--alpha", "0.1",
                       "--mode", "exhaustive", "--self-audit"], capsys)
    assert rc == 0


def test_bounds_rows_hamming(capsys):
    rc, out = run_cli(["bounds", "--code", "hamming:3", "--self-audit"], capsys)
    assert rc == 0
    rows = [r for r in parse_csv(out) if r["side"] == "bec"]
    by_e = {float(r["param"]): r for r in rows}
    assert by_e[2.0]["regime"] == "zero" and Fraction(by_e[2.0]["bound"]) == 0
    assert by_e[3.0]["regime"] == "exact" and Fraction(by_e[3.0]["bound"]) == Fraction(1, 10)
    assert by_e[4.0]["regime"] == "exact" and Fraction(by_e[4.0]["bound"]) == Fraction(1, 2)
    # the defect side mirrors the erasure side exactly
    bdc_rows = [r for r in parse_csv(out) if r["side"] == "bdc"]
    assert [r["bound"] for r in bdc_rows] == [r["bound"] for r in rows]


def test_lwc_audit_two_block(capsys):
    rc, out = run_cli(["lwc-audit", "--code", "two_block:8", "--mode", "exhaustive"], capsys)
    assert rc == 0
    rows = parse_csv(out)
    profile = next(r for r in rows if r["side"] == "profile")
    assert profile["regime"] == "optimal"
    assert float(profile["estimate"]) == 2.0  # masking distance
    assert float(profile["param"]) == 3.0     # locality
    rewrite = {float(r["param"]): r for r in rows if r["side"] == "rewrite"}
    assert float(rewrite[1.0]["estimate"]) == 3.0  # worst single-bit update cost
    assert all(r["regime"] == "ok" for r in rows if r["side"] in ("rewrite", "write"))


def test_lwc_audit_single_parity_worst_cost(capsys):
    rc, out = run_cli(["lwc-audit", "--code", "single_parity:8", "--mode", "monte_carlo",
                       "--trials", "4000", "--seed", "5"], capsys)
    assert rc == 0
    rows = parse_csv(out)
    rewrite = {float(r["param"]): r for r in rows if r["side"] == "rewrite"}
    assert float(rewrite[1.0]["estimate"]) == 7.0  # all-ones masking word drags 7 cells


def test_quaternity_zero_violations(capsys):
    rc, out = run_cli(["quaternity", "--code", "two_block:8", "--alpha", "0.5",
                       "--trials", "500", "--seed", "2"], capsys)
    assert rc == 0
    rows = parse_csv(out)
    assert all(r["regime"] == "ok" for r in rows)
    beq = next(r for r in rows if r["side"] == "beq")
    assert float(beq["estimate"]) == 0.0


def test_unknown_code_gives_config_exit(capsys):
    assert cli.main(["duality", "--code", "martian:1", "--alpha", "0.1"]) == cli.EXIT_CONFIG


def test_missing_code_gives_config_exit(capsys):
    assert cli.main(["duality", "--alpha", "0.1"]) == cli.EXIT_CONFIG


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("code = hamming:3\nalpha = 0.1\nmode = exhaustive\n")
    rc, out = run_cli(["duality", "--config", str(cfg)], capsys)
    assert rc == 0
    assert parse_csv(out)[0]["code"] == "hamming(3)"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("code = hamming:3\nalpha = 0.1\nmode = exhaustive\n")
    rc, out = run_cli(["duality", "--config", str(cfg), "--code", "two_block:8"], capsys)
    assert rc == 0
    assert parse_csv(out)[0]["code"] == "two_block(8)"


@pytest.mark.parametrize("verb", ["code-info", "duality", "bounds", "lwc-audit", "quaternity"])
def test_zero_length_file_code_exits_2(verb, tmp_path, capsys):
    path = tmp_path / "empty.code"
    path.write_text("0 0\n")
    rc = cli.main([verb, "--code", f"file:{path}"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG
    assert "error: code: a code needs blocklength n >= 1" in err and "Traceback" not in err


def test_jsonl_format(capsys):
    import json

    rc, out = run_cli(["code-info", "--code", "repetition:3", "--format", "jsonl"], capsys)
    assert rc == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["side"] for r in rows} >= {"n", "k", "d"}


def test_file_code_spec(tmp_path, capsys):
    path = tmp_path / "ham.code"
    codes.save_code(codes.hamming(3), path)
    rc, out = run_cli(["code-info", "--code", f"file:{path}"], capsys)
    assert rc == 0
    rows = parse_csv(out)
    assert next(r for r in rows if r["side"] == "d")["estimate"] == "3.0"


def test_output_file_and_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = [sys.executable, "-m", "defectlab", "duality", "--code", "hamming:3",
            "--alpha", "0.05:0.15:0.05", "--mode", "monte_carlo",
            "--trials", "2000", "--seed", "9"]
    for out in (out_a, out_b):
        proc = subprocess.run(base + ["--out", str(out)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
    assert out_a.read_bytes() == out_b.read_bytes()


def test_stdout_determinism_across_processes():
    base = [sys.executable, "-m", "defectlab", "quaternity", "--code", "two_block:8",
            "--alpha", "0.4", "--trials", "200", "--seed", "4", "--format", "jsonl"]
    first = subprocess.run(base, capture_output=True)
    second = subprocess.run(base, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_workers_do_not_change_results(capsys):
    args = ["duality", "--code", "hamming:3", "--alpha", "0.1,0.2",
            "--mode", "monte_carlo", "--trials", "1000", "--seed", "3"]
    rc1, out1 = run_cli(args, capsys)
    rc2, out2 = run_cli(args + ["--workers", "2"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_code_info_names_the_cap_when_rows_are_omitted(capsys):
    import json

    rc = cli.main(["code-info", "--code", "bch:8,20", "--format", "jsonl"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["side"] for r in rows] == ["n", "k", "rate", "cyclic"]
    notes = [line for line in captured.err.splitlines() if not line.startswith("#")]
    assert len(notes) == 1
    assert "d and weight rows omitted" in notes[0] and "ENUM_CAP = 24" in notes[0]


def test_code_info_describes_a_zero_code(tmp_path, capsys):
    import json

    path = tmp_path / "zero.code"
    codes.save_code(codes.reed_muller(3, 3).dual(), path)
    rc = cli.main(["code-info", "--code", f"file:{path}", "--format", "jsonl"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    rows = {r["side"]: r for r in map(json.loads, captured.out.splitlines())}
    assert list(rows) == ["n", "k", "rate", "cyclic"]
    assert (rows["n"]["estimate"], rows["k"]["estimate"], rows["rate"]["exact"]) == (8, 0, "0")
    notes = [line for line in captured.err.splitlines() if not line.startswith("#")]
    assert notes == ["note: d and weight rows omitted: the zero code has no nonzero codewords"]


def test_code_info_keeps_weight_rows(capsys):
    rc, out = run_cli(["code-info", "--code", "hamming:3"], capsys)
    assert rc == 0
    weights = {float(r["param"]): r["exact"] for r in parse_csv(out) if r["side"] == "weight"}
    assert weights == {0.0: "1", 3.0: "7", 4.0: "7", 7.0: "1"}


def shift_profile_row(monkeypatch, e, shift):
    """Add `shift` entrywise to row e of every table the subset walk returns,
    so the check made when a code's profile is built is what sees it."""
    walk = gf2.nullity_profile

    def corrupted(rows, width):
        profile = [list(row) for row in walk(rows, width)]
        for j, delta in enumerate(shift):
            profile[e][j] += delta
        return tuple(map(tuple, profile))

    monkeypatch.setattr(gf2, "nullity_profile", corrupted)


def test_duality_checks_against_the_generator_route(capsys, monkeypatch):
    """A corrupted H-side profile moves both channels alike; the weight
    distribution, which enumerates codewords rather than subsets, catches it."""
    shift_profile_row(monkeypatch, 3, (-1, 1))  # one independent triple recounted as dependent
    code = codes.hamming(3)
    with pytest.raises(InvariantViolation):
        cli.bec.failure_prob(code, "0.1")
    with pytest.raises(InvariantViolation):
        cli.bdc.enc_failure_prob(code, "0.1")
    rc = cli.main(["duality", "--code", "hamming:3", "--alpha", "0.1", "--mode", "exhaustive"])
    assert rc == cli.EXIT_AUDIT
    assert "disagrees with the weight distribution at e=3" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["duality", "--alpha", "0.1", "--beta", "0.2"], ["bounds"]])
def test_every_exhaustive_value_checks_the_profile(capsys, monkeypatch, args):
    shift_profile_row(monkeypatch, 3, (-1, 1))
    rc = cli.main([*args, "--code", "hamming:3"])
    assert rc == cli.EXIT_AUDIT
    assert "disagrees with the weight distribution at e=3" in capsys.readouterr().err


@pytest.mark.parametrize("w", [0, 1, 4, 7])
def test_weight_distribution_off_by_one_exits_3(capsys, monkeypatch, w):
    real = codes.LinearCode.weight_distribution

    def off_by_one(self):
        wd = list(real(self))
        wd[w] += 1
        return tuple(wd)

    monkeypatch.setattr(codes.LinearCode, "weight_distribution", off_by_one)
    rc = cli.main(["duality", "--code", "hamming:3", "--alpha", "0.1"])
    assert rc == cli.EXIT_AUDIT
    assert f"disagrees with the weight distribution at e={w}" in capsys.readouterr().err


def test_self_audit_sees_what_the_profile_check_cannot(capsys, monkeypatch):
    """Moving hamming(3)'s N[3] from (28, 7, 0, 0) to (30, 4, 1, 0) keeps both
    sums the weight distribution fixes: 35 patterns, and 28 + 7*2 = 30 + 4*2
    + 1*4 = 42 codewords supported inside them.  It still changes the failure
    numerator, 7*1*2^6 against 4*1*2^6 + 1*3*2^5, so the profile check passes
    it and only the per-pattern routes of --self-audit see it."""
    shift_profile_row(monkeypatch, 3, (2, -3, 1))
    args = ["duality", "--code", "hamming:3", "--alpha", "0.1"]
    assert cli.main(args) == cli.EXIT_OK
    assert cli.main(args + ["--self-audit"]) == cli.EXIT_AUDIT
    assert "self-audit mismatch" in capsys.readouterr().err


def test_self_audit_sees_a_shift_that_keeps_every_value(capsys, monkeypatch):
    """lrc_pyramid(10,5)'s N[4] is (80, 120, 10, 0); the shift (-2, 7, -7, 2)
    keeps its pattern count, its supported codewords (-2 + 14 - 28 + 16 = 0)
    and its failure numerator (7*4 - 21*2 + 14 = 0, in units of 2^(n-3)), so
    every value at every alpha is unchanged.  Only the entries move."""
    shift_profile_row(monkeypatch, 4, (-2, 7, -7, 2))
    args = ["duality", "--code", "lrc_pyramid:10,5", "--alpha", "0:1:0.25"]
    assert cli.main(args) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(args + ["--self-audit"]) == cli.EXIT_AUDIT
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: self-audit mismatch: the generator route")
    assert "e=4 with nullity j=0" in err


@pytest.mark.parametrize("spec", ["hamming:3", "two_block:8", "two_block:10",
                                  "lrc_pyramid:10,5", "lrc_pyramid:9,3", "rm:0,3", "rm:1,3",
                                  "rm:3,3", "repetition:5", "single_parity:6"])
def test_both_routes_rebuild_the_nullity_profile(spec):
    code = cli.parse_code_spec(spec)
    profile = [list(row) for row in code.h_nullity_profile]
    assert cli._route_profiles(code) == {"generator": profile, "masking": profile}


@pytest.mark.parametrize("alpha", ["0.1", "0.1:0.4:0.1"])
def test_self_audit_encodes_each_location_set_once(capsys, monkeypatch, alpha):
    calls = []
    encode = cli.bdc.binning_encode_batch
    monkeypatch.setattr(cli.bdc, "binning_encode_batch",
                        lambda *args: calls.append(1) or encode(*args))
    rc, _ = run_cli(["duality", "--code", "hamming:3", "--alpha", alpha, "--self-audit"], capsys)
    assert rc == cli.EXIT_OK
    assert len(calls) == 1 << 7  # one call per location set, whatever the grid


def test_exhaustive_duality_walks_one_profile(capsys, monkeypatch):
    widths = []
    walk = gf2.nullity_profile
    monkeypatch.setattr(gf2, "nullity_profile",
                        lambda rows, width: widths.append(width) or walk(rows, width))
    rc, _ = run_cli(["duality", "--code", "hamming:3", "--alpha", "0.1:0.4:0.1"], capsys)
    assert rc == 0
    assert widths == [3]  # H's n - k columns, once for the four points and both sides


def test_exhaustive_duality_checks_the_profile_once(capsys, monkeypatch):
    checks = []
    check = codes._check_profile
    monkeypatch.setattr(codes, "_check_profile",
                        lambda profile, wd: checks.append(1) or check(profile, wd))
    rc, _ = run_cli(["duality", "--code", "bch:4,2", "--alpha", "0.05:0.2:0.05"], capsys)
    assert rc == cli.EXIT_OK
    assert len(checks) == 1  # when the profile is built, not at each of the 8 reads


@pytest.mark.parametrize("args", [
    ["duality", "--code", "hamming:3", "--mode", "monte_carlo", "--trials", "10"],
    ["lwc-audit", "--code", "two_block:8", "--mode", "monte_carlo", "--trials", "5"],
    ["quaternity", "--code", "two_block:10", "--alpha", "0.5", "--trials", "5"],
    ["code-info", "--code", "hamming:3"],
])
def test_self_audit_is_rejected_where_nothing_is_audited(capsys, args):
    assert cli.main(args) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(args + ["--self-audit"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: self_audit: applies only to bounds and to duality "
                                   "in exhaustive mode")


def test_self_audit_key_is_rejected_where_nothing_is_audited(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("code = hamming:3\nself_audit = true\n")
    assert cli.main(["code-info", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: self_audit: ")


def test_bounds_self_audit_beyond_the_exhaustive_cap_exits_2(capsys):
    rc, out = run_cli(["bounds", "--code", "hamming:5"], capsys)
    assert rc == cli.EXIT_OK and {row["exact"] for row in parse_csv(out)} == {""}
    assert cli.main(["bounds", "--code", "hamming:5", "--self-audit"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: self_audit: ") and "EXHAUSTIVE_CAP = 20, got n=31" in err
    rc, out = run_cli(["bounds", "--code", "bch:4,2", "--self-audit"], capsys)
    assert rc == cli.EXIT_OK and "" not in {row["exact"] for row in parse_csv(out)}


def test_mde_invariant_exits_3(capsys, monkeypatch):
    from defectlab import bdc

    def mde_rows(code, messages, states):  # the first writes, one exhaustive encode per row
        for message, state in zip(messages, states):
            bdc.mde_encode(code, message, bdc.DefectPattern(state))

    monkeypatch.setattr(cli.bdc, "additive_encode_batch", mde_rows)
    monkeypatch.setattr(bdc, "error_count", lambda x, pattern: -1)
    rc = cli.main(["lwc-audit", "--code", "two_block:8", "--mode", "monte_carlo",
                   "--trials", "5"])
    assert rc == cli.EXIT_AUDIT
    assert capsys.readouterr().err.startswith("invariant violation: encoded word")


def test_rewriting_locality_invariant_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli.lwc, "singleton_like_bound", lambda n, k, r: 0)
    rc = cli.main(["lwc-audit", "--code", "two_block:8", "--mode", "monte_carlo",
                   "--trials", "5"])
    assert rc == cli.EXIT_AUDIT
    assert "violates the distance bound" in capsys.readouterr().err


def test_wom_write_invariant_exits_3(capsys, monkeypatch):
    from defectlab import bdc

    # a reduction that forgets the stored ones lets the encoder lower a cell
    monkeypatch.setattr(cli.bridge, "wom_states",
                        lambda cells: np.full(np.shape(cells), bdc.NORMAL, dtype=np.int8))
    rc = cli.main(["quaternity", "--code", "two_block:8", "--alpha", "0.5",
                   "--trials", "50", "--seed", "2"])
    assert rc == cli.EXIT_AUDIT
    assert "lowered a cell" in capsys.readouterr().err


def test_masking_error_exits_3(capsys, monkeypatch):
    from defectlab.errors import MaskingError

    def no_coset_word(*args, **kwargs):
        raise MaskingError("no word of the new message's coset matches the stuck cell")

    monkeypatch.setattr(cli.lwc, "rewrite_update_batch", no_coset_word)
    rc = cli.main(["lwc-audit", "--code", "two_block:8", "--mode", "monte_carlo",
                   "--trials", "5"])
    assert rc == cli.EXIT_AUDIT
    assert capsys.readouterr().err.startswith("error: no word")


def test_failed_first_write_exits_3(capsys, monkeypatch):
    encode = cli.bdc.additive_encode_batch

    def last_row_fails(code, messages, states):
        out = encode(code, messages, states)
        out.residual_errors[-1] = 1
        return out

    monkeypatch.setattr(cli.bdc, "additive_encode_batch", last_row_fails)
    rc = cli.main(["lwc-audit", "--code", "two_block:8", "--mode", "monte_carlo",
                   "--trials", "5"])
    assert rc == cli.EXIT_AUDIT
    assert capsys.readouterr().err.startswith("invariant violation: a first write failed")


def test_failed_masking_audit_row_exits_3(capsys, monkeypatch):
    encode = cli.bdc.binning_encode_batch
    calls = []

    def first_row_fails_once(code, messages, states):
        out = encode(code, messages, states)
        if not calls:  # the defect-free pattern, which always masks
            out.residual_errors[0] = 1
        calls.append(len(messages))
        return out

    monkeypatch.setattr(cli.bdc, "binning_encode_batch", first_row_fails_once)
    rc = cli.main(["duality", "--code", "two_block:8", "--alpha", "0.1", "--mode", "exhaustive",
                   "--self-audit"])
    assert rc == cli.EXIT_AUDIT
    assert "self-audit mismatch" in capsys.readouterr().err
    assert calls == [1 << u for u in range(9) for _ in range(math.comb(8, u))]


def test_cost_violation_names_its_row(capsys, monkeypatch):
    update = cli.lwc.rewrite_update_batch

    def expensive_rewrites(*args):
        words, initial, rewrite = update(*args)
        return words, initial, np.full_like(rewrite, 99)

    monkeypatch.setattr(cli.lwc, "rewrite_update_batch", expensive_rewrites)
    rc = cli.main(["lwc-audit", "--code", "two_block:8", "--mode", "monte_carlo",
                   "--trials", "5"])
    assert rc == cli.EXIT_AUDIT
    row = r"rewrite key \d+: worst cost 99 > cap \d+"
    assert re.fullmatch(f"invariant violation: a cost bound was violated during the audit: "
                        f"{row}(; {row})*\n", capsys.readouterr().err)


def test_reduction_violation_names_its_row(capsys, monkeypatch):
    quantize = cli.bridge.quantize_batch

    def inverted_distortion(code, samples):  # zero exactly where the real one is not
        words, distortion = quantize(code, samples)
        return words, (distortion == 0).astype(distortion.dtype)

    monkeypatch.setattr(cli.bridge, "quantize_batch", inverted_distortion)
    rc = cli.main(["quaternity", "--code", "two_block:8", "--alpha", "0.3,0.6",
                   "--trials", "50", "--seed", "2"])
    assert rc == cli.EXIT_AUDIT
    assert capsys.readouterr().err == (
        "invariant violation: reduction fuzzing found violations: "
        "beq at alpha=0.3: 50 of 50 trials; beq at alpha=0.6: 50 of 50 trials\n")


def test_quaternity_rows_are_the_two_audits(capsys):
    rc, out = run_cli(["quaternity", "--code", "two_block:8", "--alpha", "0.3,0.6",
                       "--trials", "50", "--seed", "2"], capsys)
    assert rc == 0
    assert [r["side"] for r in parse_csv(out)] == ["beq", "wom", "beq", "wom"]


def test_monte_carlo_duality_parses_the_code_once(capsys, monkeypatch):
    calls = []
    parse = cli.parse_code_spec
    monkeypatch.setattr(cli, "parse_code_spec", lambda spec: calls.append(spec) or parse(spec))
    rc, _ = run_cli(["duality", "--code", "hamming:3", "--alpha", "0.1,0.2,0.3",
                     "--mode", "monte_carlo", "--trials", "100"], capsys)
    assert rc == 0
    assert calls == ["hamming:3"]


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing_dir" / "x.csv"
    rc = cli.main(["code-info", "--code", "hamming:3", "--out", str(missing)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG
    assert err.startswith("error: ") and "x.csv" in err and "Traceback" not in err


def test_empty_grid_is_rejected(capsys):
    rc, out = run_cli(["duality", "--code", "hamming:3", "--alpha", ""], capsys)
    assert rc == cli.EXIT_CONFIG and out == ""
    with pytest.raises(cli.ConfigError, match="empty"):
        cli.parse_grid(",")


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("code = hamming:3\ntrails = 5\n")
    rc = cli.main(["duality", "--config", str(cfg), "--mode", "monte_carlo"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err.startswith("error: ") and "'trails'" in captured.err


def test_pool_never_exceeds_the_points(capsys, monkeypatch):
    sizes = []

    class InlinePool:
        """Records the pool size and runs the points in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    args = ["duality", "--code", "hamming:3", "--alpha", "0.1", "--mode", "monte_carlo",
            "--trials", "500", "--seed", "2"]
    rc1, serial = run_cli(args, capsys)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    rc2, pooled = run_cli(args + ["--workers", "64"], capsys)
    assert rc1 == rc2 == 0 and pooled == serial
    assert sizes == [2]  # one bec and one bdc point


def test_closed_stdout_exits_2_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run([sys.executable, "-m", "defectlab", "bounds", "--code", "hamming:3"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == cli.EXIT_CONFIG
    assert err.startswith("error: cannot write output: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_audit_cap_is_read_on_every_call(monkeypatch):
    code = codes.hamming(3)
    assert cli._route_profiles(code)["masking"] == [list(row) for row in code.h_nullity_profile]
    monkeypatch.setattr(cli, "AUDIT_CAP", 6)
    with pytest.raises(cli.ConfigError, match="AUDIT_CAP = 6"):
        cli._route_profiles(code)


def test_self_audit_beyond_the_cap_exits_2_at_once(capsys, monkeypatch):
    monkeypatch.setattr(codes.LinearCode, "h_nullity_profile",
                        property(lambda self: pytest.fail("the profile was walked")))
    rc = cli.main(["duality", "--code", "two_block:12", "--alpha", "0.1", "--self-audit"])
    assert rc == cli.EXIT_CONFIG
    assert "AUDIT_CAP = 10" in capsys.readouterr().err


def test_lwc_audit_cap_is_named(capsys, monkeypatch):
    monkeypatch.setattr(cli, "LWC_AUDIT_CAP", 1000)
    rc = cli.main(["lwc-audit", "--code", "two_block:8", "--mode", "exhaustive"])
    assert rc == cli.EXIT_CONFIG
    assert "LWC_AUDIT_CAP = 1000" in capsys.readouterr().err


@pytest.mark.parametrize("key, args, cfg", [
    ("beta", ["--beta", ""], ""),
    ("beta", [], "beta =\n"),
    ("self_audit", [], "self_audit = yes\n"),
    ("mode", [], "mode = bogus\n"),
    ("mode", ["--mode", "bogus"], ""),
    ("seed", ["--seed", "-1"], ""),
    ("seed", [], "seed = -1\n"),
])
def test_bad_option_value_is_named(tmp_path, capsys, key, args, cfg):
    path = tmp_path / "run.cfg"
    path.write_text("code = hamming:3\nalpha = 0.1\n" + cfg)
    rc = cli.main(["duality", "--config", str(path), *args])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err.startswith(f"error: {key}: ")


@pytest.mark.parametrize("value, audits", [("true", 1), ("false", 0)])
def test_self_audit_in_a_config_file(tmp_path, capsys, monkeypatch, value, audits):
    calls = []
    audit = cli._route_profiles
    monkeypatch.setattr(cli, "_route_profiles", lambda code: calls.append(code) or audit(code))
    path = tmp_path / "run.cfg"
    path.write_text(f"code = hamming:3\nalpha = 0.1\nself_audit = {value}\n")
    rc, _ = run_cli(["duality", "--config", str(path)], capsys)
    assert rc == cli.EXIT_OK
    assert len(calls) == audits


# Per option: the config-file text, the flag arguments that must win over it,
# and the value they resolve to.
FLAG_OVER_FILE = {
    "code": ("hamming:3", ["--code", "two_block:8"], "two_block(8)"),
    "alpha": ("0.1", ["--alpha", "0.2,0.3"], [0.2, 0.3]),
    "beta": ("0.1", ["--beta", "0.05:0.1:0.05"], [0.05, 0.1]),
    "trials": ("10", ["--trials", "20"], 20),
    "seed": ("1", ["--seed", "2"], 2),
    "mode": ("exhaustive", ["--mode", "monte_carlo"], "monte_carlo"),
    "format": ("csv", ["--format", "jsonl"], "jsonl"),
    "out": ("file.csv", ["--out", "flag.csv"], "flag.csv"),
    "workers": ("1", ["--workers", "2"], 2),
    "self_audit": ("false", ["--self-audit"], True),
}


@pytest.mark.parametrize("key", sorted(cli.OPTIONS))
def test_flag_wins_over_the_config_file(tmp_path, key):
    file_text, flag_args, expected = FLAG_OVER_FILE[key]
    path = tmp_path / "run.cfg"
    path.write_text(("" if key == "code" else "code = hamming:3\n") + f"{key} = {file_text}\n")
    from_file = cli.resolve_options(cli.build_parser().parse_args(
        ["duality", "--config", str(path)]))
    from_flag = cli.resolve_options(cli.build_parser().parse_args(
        ["duality", "--config", str(path), *flag_args]))
    resolved = [getattr(opts, key) for opts in (from_file, from_flag)]
    if key == "code":
        resolved = [code.name for code in resolved]
    assert resolved[0] != expected and resolved[1] == expected


def test_readme_caps_exist_with_their_stated_values():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Enumeration caps", 1)[1].split("\n### ", 1)[0]
    named = re.findall(r"`(\w+)\.([A-Z_]+)` \((\d+)(?:\^(\d+))?\)", section)
    defined = {(path.stem, name) for path in Path(cli.__file__).parent.glob("*.py")
               for name in re.findall(r"^(\w+_CAP) = ", path.read_text(encoding="utf-8"), re.M)}
    assert ("codes", "EXHAUSTIVE_CAP") in defined
    assert {(module, name) for module, name, *_ in named} >= defined
    for module, name, base, power in named:
        stated = int(base) ** int(power or 1)
        assert getattr(importlib.import_module(f"defectlab.{module}"), name) == stated, name
