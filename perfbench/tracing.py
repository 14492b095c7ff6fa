"""In-process layer trace, recorded from outside the program.

Wraps every public function of sdpi's library modules, each dataclass
``__post_init__`` and ``numpy.random.default_rng`` at every name they are
bound to, records one span (name, start, end, parent) per call in
memory, and counts work at the same boundaries from argument and result
shapes.  Nothing under ``src/`` changes; uninstalling restores every
binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LIBRARY_MODULES = ("info", "contraction", "network", "memory", "verify")
# Metrics that add up several traced names.
GROUPS = {"info.constructors": ("info.Channel.__post_init__", "info.Distribution.__post_init__",
                                "info.JointDistribution.__post_init__")}
SUITES = ("sdpi_fuzz", "appendix_identity", "layer_equality", "memory_sandwich")
IMPORT_GROUPS = ("numpy", "scipy", "click", "sdpi")


def class_sum_terms(n: int) -> int:
    """Inner-loop terms of the distance-class scan at width n (computed)."""
    d1, i = np.arange(n + 1)[:, None], np.arange(n + 1)[None, :]
    total = 0
    for e in range(n + 1):
        d2 = e + d1 - 2 * i
        total += int(((i <= e) & (i <= d1) & (d1 - i <= n - e) & (d2 >= 0) & (d2 <= n)).sum())
    return total


def _joint_bytes(a) -> int:
    net = a["net"]
    return 8 << (net.input_width + net.widths[-1])


# Work counted per call, from the bound arguments and the result.
COUNTERS = {
    "info.compose": lambda a, res: {"bytes": res.matrix.nbytes},
    "contraction.contraction_bound": lambda a, res: {
        "pairs": a["c"].n_inputs * (a["c"].n_inputs - 1) // 2},
    "contraction.independent_layer_channel": lambda a, res: {"bytes": res.matrix.nbytes},
    "contraction.correlated_layer_bound_exact": lambda a, res: {
        "terms": class_sum_terms(a["spec"].n)},
    "network.layer_channel": lambda a, res: {"bytes": res.matrix.nbytes},
    "network.network_channel": lambda a, res: {"bytes": res.matrix.nbytes},
    "network.exact_io_mutual_information": lambda a, res: {"bytes": _joint_bytes(a)},
    "memory.simulate_memory": lambda a, res: {
        "trials": a["trials"], "uniforms": a["trials"] * a["spec"].intervals * a["spec"].n},
    **{f"verify.{s}": (lambda a, res: {"checks": res.checks}) for s in SUITES},
}


class Tracer:
    """Spans and counters of one traced pass; install() and uninstall()
    swap the wrappers in and out of every binding."""

    def __init__(self):
        # Span i is (names[i], starts[i], ends[i], parents[i]), times in ns
        # and parent -1 at top level.  Flat arrays instead of one object
        # per span keep the garbage collector from rescanning the trace.
        self.names: list[str] = []
        self.starts, self.ends, self.parents = array("q"), array("q"), array("q")
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        self.traced: set[str] = set()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        self.traced.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[name].update(counter(bound.arguments, result))
            return result

        return traced

    @staticmethod
    def _put(owner, attr, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _set(self, owner, attr, value) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        self._put(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for short in LIBRARY_MODULES:
            mod = importlib.import_module(f"sdpi.{short}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._set(obj, "__post_init__",
                              self.wrap(f"{short}.{name}.__post_init__", obj.__post_init__))
        sdpi_modules = [m for n, m in sys.modules.items() if n == "sdpi" or n.startswith("sdpi.")]
        for mod in sdpi_modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, name, wrappers[id(obj)])
        suites = importlib.import_module("sdpi.verify").SUITES
        for name, fn in list(suites.items()):
            if id(fn) in wrappers:
                self._set(suites, name, wrappers[id(fn)])
        self._set(np.random, "default_rng", self.wrap("rng.default_rng", np.random.default_rng))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            self._put(owner, attr, original)
        self._patches.clear()

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Calls, inclusive seconds and self seconds per span name.  Self
        time is a span's duration minus the time its children cover."""
        calls, inclusive, child_ns = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans():
            calls[name] += 1
            inclusive[name] += (end - start) / 1e9
            if parent >= 0:
                child_ns[parent] += end - start
        own = Counter()
        for i, (name, start, end, _) in enumerate(self.spans()):
            own[name] += (end - start - child_ns[i]) / 1e9
        return calls, inclusive, own

    def layer_metrics(self, metrics) -> dict[str, float]:
        """Each ``<function>.<stat>`` metric: calls, inclusive seconds (s),
        or work counted at that boundary (any other stat)."""
        calls, inclusive, _ = self.totals()
        out = {}
        for metric in metrics:
            fn, stat = metric.rsplit(".", 1)
            members = GROUPS.get(fn, (fn,))
            if not set(members) <= self.traced or (stat not in ("calls", "s")
                                                   and fn not in COUNTERS):
                raise ValueError(f"no traced boundary measures {metric}")
            table = {"calls": calls, "s": inclusive}.get(stat)
            out[metric] = sum(table[m] if table is not None else self.counts[m][stat]
                              for m in members)
        return out

    def spans(self):
        return zip(self.names, self.starts, self.ends, self.parents)

    def dump(self) -> dict:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "columns": ["name", "start_ns", "end_ns", "parent"],
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans()]}


def import_times(python: str, env: dict, cwd, repeats: int = 3) -> dict[str, float]:
    """Self time of each top-level package's modules from ``-X importtime``
    while importing sdpi.cli; median over `repeats` fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(repeats):
        err = subprocess.run([python, "-X", "importtime", "-c", "import sdpi.cli"], env=env,
                             cwd=cwd, capture_output=True, text=True, check=True).stderr
        totals = Counter()
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                totals[fields[2].strip().split(".")[0]] += int(fields[0]) / 1e6
        for group in IMPORT_GROUPS:
            samples[group].append(totals[group])
    return {f"import.{g}_s": statistics.median(samples[g]) for g in IMPORT_GROUPS}
