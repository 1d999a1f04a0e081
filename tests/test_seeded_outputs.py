"""Seeded `lwc-audit`, `quaternity` and Monte Carlo `duality` outputs stay
byte-identical.

The digests are sha256 of the CSV each command prints.  The `lwc-audit` and
`quaternity` ones were recorded from the single-instance encoders before the
verbs called the batch entry points; the `duality` ones from the per-trial
solve loops, before the simulators shared one batched pivot kernel.  A change
to the random stream, to a cost, or to the row layout shows here.
"""

import hashlib

import pytest

from defectlab import cli

REWRITE_WORKLOAD = {
    "lwc-audit two_block:8": ["lwc-audit", "--code", "two_block:8", "--mode", "monte_carlo",
                              "--trials", "4000"],
    "lwc-audit bch:4,2": ["lwc-audit", "--code", "bch:4,2", "--mode", "monte_carlo",
                          "--trials", "1000"],
    "quaternity two_block:10": ["quaternity", "--code", "two_block:10", "--alpha", "0.5",
                                "--trials", "2000"],
}

SEEDED = {
    ("lwc-audit two_block:8", 0): "3d9a2fc90d90dd725a89db2db72199a8c88f22fe096fecf2d223dcf1d22f6b27",
    ("lwc-audit bch:4,2", 0): "5aae158b0b2387e3d5a12a21a027728edf676babc949e8fa0af7930630a26cd5",
    ("quaternity two_block:10", 0): "0155c12945bc4ee52d865dc8cbafffd37b4e3f4e39165cb8607f8119517b65a0",
    ("lwc-audit two_block:8", 1): "75249359c8d16fec0154a70a35f0b2a9e5d2bc229ced50f816512101a290e98b",
    ("lwc-audit bch:4,2", 1): "db3afcc9827b26c931d70f122eba1eb1e48344024d1358d75e5c28a46386eecb",
    ("quaternity two_block:10", 1): "3ffcb51d3735a625b8622ec6f345d8ad73527fe3207f10e6872108714a9be518",
    ("lwc-audit two_block:8", 7): "7f3c99cf6889430f000f4b8c84283ea20844e7343492da7a906585e28b6b9d70",
    ("lwc-audit bch:4,2", 7): "d5b28a03bd9fb9c78111175cff863fa3a0ba7e7e6e4e49844d68e8f1787bfbd3",
    ("quaternity two_block:10", 7): "e78a2007b6ad03ca2ec5068ebf82e6d11fc605aefe6d16ddc7aae93efc79cd1d",
}

EXHAUSTIVE = {
    "two_block:8": "faf5238b495b9e2ea816965c8006b65e9276cd4ca4052681aad8412fc26607ee",
    "bch:4,2": "e89aa09cd4162e807343377e44a205f132e1d919e2e68a6d8e38716e4e3c9748",
}

#: Codes whose packed rows need two uint64 words: the G side of
#: single_parity(70) has 69 columns and hamming(7) 120, the H side of
#: repetition(70) 69; each adds the right-hand side's bit.
WIDE_MONTE_CARLO = {
    "single_parity:70": (1200, "737e98f3de85fe9d55a9996bd333f3c208af3c5ccf56913931791e832f465750"),
    "repetition:70": (2000, "13b539a880748fcb022fc848f4295dbd1ceede7d204fdcae9847231c55480f7a"),
    "hamming:7": (500, "6f9ff54c8cdcfdae0b23683ecee3c45a86cc6dc34eebf60442e56ee87dba58ea"),
}


def digest(argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name,seed", sorted(SEEDED))
def test_rewrite_workload_output_is_unchanged(name, seed, capsys):
    argv = REWRITE_WORKLOAD[name] + ["--seed", str(seed), "--workers", "1"]
    assert digest(argv, capsys) == SEEDED[name, seed]


@pytest.mark.parametrize("spec", sorted(EXHAUSTIVE))
def test_exhaustive_lwc_audit_output_is_unchanged(spec, capsys):
    assert digest(["lwc-audit", "--code", spec, "--mode", "exhaustive"], capsys) == EXHAUSTIVE[spec]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("spec", sorted(WIDE_MONTE_CARLO))
def test_wide_row_monte_carlo_output_is_unchanged(spec, workers, capsys):
    trials, expected = WIDE_MONTE_CARLO[spec]
    argv = ["duality", "--code", spec, "--mode", "monte_carlo", "--trials", str(trials),
            "--seed", "3", "--workers", workers]
    assert digest(argv, capsys) == expected
