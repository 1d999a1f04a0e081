"""Regenerate the committed reference outputs under ``references/``.

Run from the repository root at the commit whose outputs are the reference
(outputs are generated with ``--seed 0``; the checker substitutes the seed
column):

    python3 bench/make_references.py

Only exact outputs are stored: the exhaustive duality and bounds rows, the
exhaustive ``two_block:8`` audit, and the ``bch:4,2`` locality profile.
"""

from __future__ import annotations

import sys

from run import import_package, run_cli
from workloads import WORKLOADS
from checker import REFERENCES, parse_rows

EXTRA = {
    # The rewrite workload samples this audit; the exhaustive audit bounds
    # its worst cases and fixes its profile rows.
    "lwc-audit-two_block-8-exhaustive.csv":
        ["lwc-audit", "--code", "two_block:8", "--mode", "exhaustive", "--seed", "0"],
}
PROFILE_ONLY = ("profile", "locality")


def reference_output(cli, argv: list[str]) -> str:
    status, out, err = run_cli(cli, argv)
    if status != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {status}: {err}")
    return out


def main() -> None:
    cli = import_package().cli
    wanted = dict(EXTRA)
    for workload in WORKLOADS.values():
        for cmd in workload.commands:
            if cmd.reference and cmd.reference not in wanted:
                wanted[cmd.reference] = cmd.argv(0)
    REFERENCES.mkdir(exist_ok=True)
    for name, argv in sorted(wanted.items()):
        text = reference_output(cli, argv)
        if argv[0] == "lwc-audit" and "exhaustive" not in argv:
            lines = text.splitlines()
            keep = [r["side"] in PROFILE_ONLY for r in parse_rows(text)]
            text = "\n".join([lines[0]] + [ln for ln, k in zip(lines[1:], keep) if k]) + "\n"
        (REFERENCES / name).write_text(text, encoding="utf-8")
        print(f"wrote {name} ({text.count(chr(10)) - 1} rows)")


if __name__ == "__main__":
    sys.exit(main())
