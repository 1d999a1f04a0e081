"""The benchmark's workloads: CLI command lines, the codes they name, and how
each command's output is checked.

Every command runs in-process through ``defectlab.cli.main`` with the
workload seed appended as ``--seed`` and ``--workers 1``, so a run is one
single-threaded process.  The sizes are chosen so that one pass over a
workload takes a few seconds on a 2-core host: enough passes fit into one
run for a median, and a traced pass stays well inside the run limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its output must pass.

    ``check`` names a function in ``checker.CHECKS``; ``reference`` names a
    file under ``references/`` generated from the seed commit.
    """

    verb: str
    args: tuple[str, ...]
    check: str
    reference: str = ""

    def argv(self, seed: int) -> list[str]:
        return [self.verb, *self.args, "--seed", str(seed), "--workers", "1"]

    def option(self, name: str) -> str:
        return self.args[self.args.index(name) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    codes: tuple[str, ...]
    commands: tuple[Command, ...]
    sizes: dict = field(default_factory=dict)


MC_GRID = "0.05:0.2:0.05"
MC_TRIALS = 10_000
HAMMING_TRIALS = 2_000
LWC_TWO_BLOCK_TRIALS = 4_000
LWC_BCH_TRIALS = 1_000
QUATERNITY_TRIALS = 2_000

WORKLOADS = {
    "exact": Workload(
        name="exact",
        why="exhaustive rank-per-pattern duality and bounds sweeps; "
            "no Monte Carlo and almost no numpy-boundary work",
        codes=("bch:4,2", "rm:2,4"),
        commands=(
            Command("duality", ("--code", "bch:4,2", "--alpha", MC_GRID, "--mode", "exhaustive"),
                    "exact", "duality-bch-4-2.csv"),
            Command("duality", ("--code", "rm:2,4", "--alpha", "0.1", "--mode", "exhaustive"),
                    "exact", "duality-rm-2-4.csv"),
            Command("bounds", ("--code", "bch:4,2", "--self-audit"),
                    "exact", "bounds-bch-4-2.csv"),
        ),
        sizes={"patterns_per_alpha_per_side": {"bch:4,2": 2 ** 15, "rm:2,4": 2 ** 16},
               "alphas": {"bch:4,2": 4, "rm:2,4": 1},
               "bounds_oracle_patterns_per_side": 2 ** 15},
    ),
    "monte_carlo": Workload(
        name="monte_carlo",
        why="per-trial elimination of both channel simulators; hamming:6 is "
            "decode-heavy and rm:1,5 mask-heavy, so a read/write trade-off shows",
        codes=("bch:4,2", "hamming:6", "rm:1,5"),
        commands=(
            Command("duality", ("--code", "bch:4,2", "--alpha", MC_GRID, "--mode", "monte_carlo",
                                "--trials", str(MC_TRIALS)),
                    "mc_vs_exact", "duality-bch-4-2.csv"),
            Command("duality", ("--code", "hamming:6", "--alpha", "0.1", "--mode", "monte_carlo",
                                "--trials", str(HAMMING_TRIALS)),
                    "mc_paired"),
            Command("duality", ("--code", "rm:1,5", "--alpha", "0.6", "--mode", "monte_carlo",
                                "--trials", str(MC_TRIALS)),
                    "mc_paired"),
        ),
        sizes={"trials_per_point": {"bch:4,2": MC_TRIALS, "hamming:6": HAMMING_TRIALS,
                                    "rm:1,5": MC_TRIALS},
               "points_per_side": {"bch:4,2": 4, "hamming:6": 1, "rm:1,5": 1}},
    ),
    "rewrite": Workload(
        name="rewrite",
        why="single-call encode, rewrite and decode, where numpy conversion and "
            "validation dominate; exhaustive and Monte Carlo kernels barely run",
        codes=("two_block:8", "bch:4,2", "two_block:10"),
        commands=(
            Command("lwc-audit", ("--code", "two_block:8", "--mode", "monte_carlo",
                                  "--trials", str(LWC_TWO_BLOCK_TRIALS)),
                    "lwc_sampled", "lwc-audit-two_block-8-exhaustive.csv"),
            Command("lwc-audit", ("--code", "bch:4,2", "--mode", "monte_carlo",
                                  "--trials", str(LWC_BCH_TRIALS)),
                    "lwc_sampled", "lwc-audit-bch-4-2-profile.csv"),
            Command("quaternity", ("--code", "two_block:10", "--alpha", "0.5",
                                   "--trials", str(QUATERNITY_TRIALS)),
                    "quaternity"),
        ),
        sizes={"message_pairs": {"two_block:8": LWC_TWO_BLOCK_TRIALS, "bch:4,2": LWC_BCH_TRIALS},
               "masking_words_per_update": {"two_block:8": 2 ** 2, "bch:4,2": 2 ** 8},
               "quaternity_trials_per_reduction": QUATERNITY_TRIALS},
    ),
}
