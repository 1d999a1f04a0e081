"""Spans around calls into defectlab's modules, recorded from outside the package.

``Tracer.install`` replaces module attributes (and ``LinearCode`` methods)
with wrappers that record one span per call: name, start, end, parent span
and the command it belongs to, plus up to two counts taken from the call's
arguments or result.  Calls made inside the package go through the same
module attributes, so nested calls nest their spans.  Private helpers are not
wrapped: their time shows up as the self time of the public caller.

Spans stay in memory in flat arrays and are aggregated (and optionally
written out) after the run.  A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

BOUNDARY = ("as_bit_vector", "as_bit_matrix", "pack_vector", "pack_rows",
            "unpack_vector", "mat_mul")


def _mode(args, kwargs) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "exhaustive")


def _side_name(module: str):
    def name_for(args, kwargs) -> str:
        return f"{module}.exhaustive" if _mode(args, kwargs) == "exhaustive" else f"{module}.monte_carlo"
    return name_for


def _failure_counts(args, kwargs, result) -> tuple[int, int]:
    """Exhaustive calls count 2^n patterns (computed, not observed); Monte
    Carlo calls count trials and failures."""
    if _mode(args, kwargs) == "exhaustive":
        return 1 << args[0].n, 0
    return result.trials, result.failures


def _rows(args, kwargs, result) -> tuple[int, int]:
    return len(args[0] if args else kwargs["rows"]), 0


def _success(args, kwargs, result) -> tuple[int, int]:
    return 1, int(result.success)


def _wom_success(args, kwargs, result) -> tuple[int, int]:
    return 1, int(result[1])


def _length(args, kwargs, result) -> tuple[int, int]:
    return len(result), 0


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner`` is a module name or ``"LinearCode"``."""

    owner: str
    attr: str
    name_for: object = None
    counts: object = None

    @property
    def span_name(self) -> str:
        module = "codes" if self.owner == "LinearCode" else self.owner
        return f"{module}.{self.attr}"


def _targets(module: str, *attrs: str) -> list[Target]:
    return [Target(module, a) for a in attrs]


#: Every wrapped attribute: the public functions of each module.
ALL_TARGETS = (
    _targets("gf2", *BOUNDARY, "rank", "solve", "nullspace", "rref_with_pivots", "invert")
    + [Target("gf2", "solve_packed", counts=_rows)]
    + _targets("codes", "build", "macwilliams_transform")
    + _targets("LinearCode", "embed", "weight_distribution", "min_distance", "dual",
               "closed_under_shift", "same_codewords")
    + [Target("bec", "failure_prob", _side_name("bec"), _failure_counts)]
    + _targets("bec", "conditional_failure_exact", "failure_bound", "erase", "sample_erasures",
               "map_decode_generator", "map_decode_parity")
    + [Target("bdc", "enc_failure_prob", _side_name("bdc"), _failure_counts),
       Target("bdc", "additive_encode", counts=_success),
       Target("bdc", "binning_encode", counts=_success)]
    + _targets("bdc", "conditional_encfail_exact", "enc_failure_bound", "mde_encode", "decode",
               "apply_channel", "error_count", "sample_defects")
    + [Target("bridge", "wom_write", counts=_wom_success)]
    + _targets("bridge", "quantize", "sample_source", "beq_to_bdc", "wom_to_defects")
    + [Target("lwc", "masking_codeword_ints", counts=_length)]
    + _targets("lwc", "rewrite_update", "rewriting_locality", "singleton_like_bound",
               "initial_writing_cost", "info_locality", "parity_locality", "cyclic_locality")
    + _targets("cli", "main", "parse_code_spec")
)

#: The two calls made once per grid point; cheap enough to time untraced.
RATE_TARGETS = tuple(t for t in ALL_TARGETS if t.attr in ("failure_prob", "enc_failure_prob"))


class Tracer:
    """Records spans for the calls named by ``targets`` while installed."""

    def __init__(self, package, targets=ALL_TARGETS) -> None:
        self.package = package
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.extra = array("q")
        self.current_command = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _owner(self, target: Target):
        if target.owner == "LinearCode":
            return self.package.codes.LinearCode
        return getattr(self.package, target.owner)

    def install(self) -> None:
        for target in self.targets:
            owner = self._owner(target)
            original = getattr(owner, target.attr)
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, original, target: Target):
        fixed = self._id(target.span_name)
        name_for = target.name_for
        counts = target.counts
        ids = self._id
        name, parent, command = self.name, self.parent, self.command
        start, end, count, extra = self.start, self.end, self.count, self.extra
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            span = len(start)
            name.append(ids(name_for(args, kwargs)) if name_for else fixed)
            parent.append(stack[-1])
            command.append(tracer.current_command)
            end.append(0.0)
            count.append(0)
            extra.append(0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if counts is not None:
                count[span], extra[span] = counts(args, kwargs, result)
            return result

        return traced

    def aggregate(self, commands) -> "Aggregate":
        """Totals over the spans whose command is in ``commands``."""
        wanted = set(commands)
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += duration[i]
        agg = Aggregate()
        for i in range(n):
            if self.command[i] not in wanted:
                continue
            name = self.names[self.name[i]]
            agg.calls[name] += 1
            agg.seconds[name] += duration[i]
            agg.self_seconds[name] += duration[i] - children[i]
            agg.count[name] += self.count[i]
            agg.extra[name] += self.extra[i]
            if 0 <= self.parent[i] and self.names[self.name[self.parent[i]]] == "lwc.rewrite_update":
                agg.count_under_rewrite[name] += self.count[i]
        return agg

    def write(self, path, origin: float, commands) -> None:
        """Write the spans of ``commands`` as CSV, times in seconds from ``origin``."""
        wanted = set(commands)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,command,start_s,end_s,count,extra\n")
            for i in range(len(self.start)):
                if self.command[i] not in wanted:
                    continue
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.command[i]},"
                         f"{self.start[i] - origin!r},{self.end[i] - origin!r},"
                         f"{self.count[i]},{self.extra[i]}\n")


class Aggregate:
    """Per-span-name totals: calls, inclusive and self seconds, counts."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.count = defaultdict(int)
        self.extra = defaultdict(int)
        self.count_under_rewrite = defaultdict(int)

    def module_self(self, module: str) -> float:
        return sum((s for name, s in self.self_seconds.items() if name.split(".")[0] == module), 0.0)

    def us_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return 1e6 * self.seconds[name] / calls if calls else 0.0

    def ratio(self, name: str) -> float:
        calls = self.calls[name]
        return self.extra[name] / calls if calls else 0.0
