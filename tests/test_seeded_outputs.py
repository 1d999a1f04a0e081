"""Seeded `lwc-audit`, `quaternity` and Monte Carlo `duality` outputs stay
byte-identical.

The digests are sha256 of the CSV each command prints.  The sampled
`lwc-audit` ones were recorded once its triples were drawn a batch at a time,
one call per array, so they depend on `cli.BATCH`.  The `quaternity` ones come
from the single-instance encoders before the verbs called the batch entry
points, and bulk draws left them in place: its rows carry only violation
counts.  The `duality` ones come from the per-trial solve loops, before the
simulators shared one batched pivot kernel.  A change to the random stream,
to a cost, or to the row layout shows here.
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
    ("lwc-audit two_block:8", 0): "2e5940ec9317767449f2388fcd14c6663e08f484e7ee6a955c8eb5e7e1065e13",
    ("lwc-audit bch:4,2", 0): "1dcd90f6bed65dd1d874bc1ebadebdc5efa403d5d6156f1fa8597d4ff8e6fec2",
    ("quaternity two_block:10", 0): "0155c12945bc4ee52d865dc8cbafffd37b4e3f4e39165cb8607f8119517b65a0",
    ("lwc-audit two_block:8", 1): "4f3da3ee11187e848fb00b350387df3dedd44f4262b338cf3cd1edfea8f0c18a",
    ("lwc-audit bch:4,2", 1): "098a30060522f352f1e3ef95e6c9298188f053703754d9b10432d9789694c547",
    ("quaternity two_block:10", 1): "3ffcb51d3735a625b8622ec6f345d8ad73527fe3207f10e6872108714a9be518",
    ("lwc-audit two_block:8", 7): "3e247242287c0ef690d1a036646e52916f3f106cc1533d8f7839db3ac5543cf9",
    ("lwc-audit bch:4,2", 7): "da115eaf5689daf4ababe95978600078cdcd23808ed37decfdbaa361b41426f9",
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
