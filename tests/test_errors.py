"""The shared input checks and the parameter domains they guard."""

import ast
import importlib.util
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import sdpi

from sdpi import (
    Channel,
    CorrelatedNoiseSpec,
    Distribution,
    LayerNoiseSpec,
    MemorySpec,
    ThresholdNeuron,
    ValidationError,
    catastrophic_prob_exact,
    delta_capacity,
    evans_schulman_raw,
    independent_layer_bound,
    information_decay_bound,
    min_neurons_lower_bound,
    optimal_depth_tradeoff,
    overhead_lower_bound,
    parity_size_complexity,
    relaxation_upper_bound,
    shared_noise_slope,
    simulate_memory,
)
from sdpi import info
from sdpi.cli import main
from sdpi.errors import count, interval
from sdpi.network import monte_carlo_io_mi, random_network
from sdpi.verify import run_suite

NAN, INF = math.nan, math.inf


class TestInterval:
    def test_returns_a_float(self):
        got = interval(1, "x", "[0, 1]")
        assert got == 1.0 and type(got) is float

    def test_message_quotes_the_domain(self):
        with pytest.raises(ValidationError, match=r"^flip probability must be in \[0, 0.5\), got 0.5$"):
            interval(0.5, "flip probability", "[0, 0.5)")

    @pytest.mark.parametrize("domain,inside,outside", [
        ("[0, 0.5)", [0.0, 0.49], [0.5, -1e-300]),
        ("(0, 0.5)", [1e-300, 0.25], [0.0, 0.5]),
        ("[0, 1]", [0.0, 1.0], [1.0000001, -0.1]),
    ])
    def test_brackets_close_and_parentheses_open(self, domain, inside, outside):
        for x in inside:
            assert interval(x, "x", domain) == x
        for x in outside:
            with pytest.raises(ValidationError):
                interval(x, "x", domain)

    @pytest.mark.parametrize("x", [NAN, INF, -INF])
    def test_non_finite_values_are_outside_every_domain(self, x):
        with pytest.raises(ValidationError):
            interval(x, "x", "(-inf, inf)")


class TestCount:
    def test_whole_floats_become_ints(self):
        got = count(5e8, "n", 2)
        assert got == 500_000_000 and type(got) is int

    @pytest.mark.parametrize("value", [NAN, INF, -INF, 2.5, "3", None, 0, -1])
    def test_rejects_non_integers_and_values_below_the_minimum(self, value):
        with pytest.raises(ValidationError, match="must be an integer of at least 1"):
            count(value, "n")

    def test_maximum_is_inclusive(self):
        assert count(4, "n", 2, 4) == 4
        with pytest.raises(ValidationError, match=r"must be an integer in \[2, 4\], got 5"):
            count(5, "n", 2, 4)

    def test_integers_past_the_float_range_are_refused(self):
        # Every count is used in float arithmetic, where such an int
        # raises OverflowError.
        assert count(10**308, "n") == 10**308
        with pytest.raises(ValidationError, match=r"^n must be at most 1\.79769313e\+308, the "
                           r"float range, got about 10\^400$"):
            count(10**400, "n")


def _spec(**kw):
    return MemorySpec(**{"n": 5, "xi": 0.1, "delta": 0.3, "intervals": 5, **kw})


@pytest.mark.parametrize("call", [
    lambda: parity_size_complexity(NAN, 3),
    lambda: parity_size_complexity(INF, 3),
    lambda: evans_schulman_raw(0.5, NAN),
    lambda: shared_noise_slope(0.3, NAN),
    lambda: LayerNoiseSpec(0.1, INF),
    lambda: LayerNoiseSpec(NAN, 3),
    lambda: CorrelatedNoiseSpec(0.01, 0.3, INF),
    lambda: MemorySpec(INF, 0.1, 0.3, 5),
    lambda: _spec(intervals=INF),
    lambda: _spec(xi=NAN),
    lambda: simulate_memory(_spec(), trials=INF, seed=0),
    lambda: catastrophic_prob_exact(INF, 0.1),
    lambda: overhead_lower_bound(0.3, INF, 0.1),
    lambda: relaxation_upper_bound(INF, 0.1, 0.3),
    lambda: delta_capacity(NAN),
    lambda: information_decay_bound([3, INF], 0.1, 1.0),
    lambda: min_neurons_lower_bound(0.1, 0.3, INF),
    lambda: optimal_depth_tradeoff(INF, 0.37, 0.4, 6),
    lambda: optimal_depth_tradeoff(5e8, 0.37, 0.4, INF),
    lambda: Channel.bsc(NAN),
    lambda: Distribution.uniform(INF),
    lambda: ThresholdNeuron([1.0], INF),
], ids=[
    "parity-nan-n", "parity-inf-n", "evans-schulman-nan-n", "slope-nan-n",
    "layer-spec-inf-n", "layer-spec-nan-xi", "correlated-spec-inf-n",
    "memory-spec-inf-n", "memory-spec-inf-intervals", "memory-spec-nan-xi", "simulate-inf-trials",
    "tail-inf-n", "overhead-inf-intervals", "relax-inf-n", "capacity-nan-delta",
    "decay-inf-width", "min-neurons-inf-layers", "tradeoff-inf-n", "tradeoff-inf-depth",
    "bsc-nan", "uniform-inf", "neuron-inf-bias",
])
def test_non_finite_inputs_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("make, fields", [
    (lambda v: LayerNoiseSpec(xi=v, n=3), ["xi"]),
    (lambda v: CorrelatedNoiseSpec(xi1=v, xi2=v, n=3), ["xi1", "xi2"]),
    (lambda v: MemorySpec(n=3, xi=v, delta=v, intervals=2), ["xi", "delta"]),
], ids=["layer", "correlated", "memory"])
def test_specs_keep_the_floats_they_checked(make, fields):
    # A spec built from text or a numpy scalar used to keep it, so that
    # LayerNoiseSpec(xi="0.25") passed its check and then failed in
    # independent_layer_bound with a TypeError.
    for value in ("0.25", np.float32(0.25)):
        spec = make(value)
        assert all(type(getattr(spec, f)) is float and getattr(spec, f) == 0.25 for f in fields)
    assert independent_layer_bound(LayerNoiseSpec(xi="0.25", n=3)) == 1.0 - 0.75**3


class TestSimulationByteCap:
    """The simulator holds at most 18 bytes per interval of one trial
    (uniforms, two chunks' events, counts); that is checked against the
    byte cap before anything is allocated."""

    def test_intervals_past_the_cap_are_refused(self):
        # 1.8e13 bytes: an input error, never numpy's MemoryError.
        with pytest.raises(ValidationError, match=r"^a trial of 1000000000000 intervals needs "
                           r"18000000000000 bytes, above the cap of 536870912 bytes \(512 MiB\)$"):
            simulate_memory(_spec(intervals=10**12), trials=1, seed=0)

    def test_the_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(info, "MAX_LAYER_BYTES", 18 * 10)
        assert len(simulate_memory(_spec(intervals=10), trials=3, seed=0)) == 10
        with pytest.raises(ValidationError, match=r"^a trial of 11 intervals needs 198 bytes, "):
            simulate_memory(_spec(intervals=11), trials=3, seed=0)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_the_peak_is_what_the_cap_counts(self, trials):
        # 10^6 intervals take one trial a chunk; 3 trials also hold the
        # previous chunk's events while the next are drawn.
        steps = 10**6
        spec = _spec(xi=0.3, intervals=steps)
        tracemalloc.start()
        try:
            simulate_memory(spec, trials=trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 17 * steps < peak <= 18 * steps + (64 << 10)

    def test_cli_exits_2_with_one_error_line(self):
        res = CliRunner().invoke(main, ["mem", "simulate", "--n", "5", "--xi", "0.1", "--delta",
                                        "0.3", "--intervals", "1000000000000", "--trials", "1"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: a trial of 1000000000000 intervals needs 18000000000000 bytes")
        assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("seed", [-1, 2.5, NAN, "3"])
@pytest.mark.parametrize("call", [
    lambda seed: simulate_memory(_spec(), trials=10, seed=seed),
    lambda seed: monte_carlo_io_mi(random_network(2, [2], 0.1), trials=10, seed=seed),
    lambda seed: run_suite("sdpi-fuzz", seed=seed, budget=5),
], ids=["simulate-memory", "monte-carlo-mi", "run-suite"])
def test_seed_must_be_a_non_negative_integer(call, seed):
    with pytest.raises(ValidationError, match=r"^seed must be an integer of at least 0, got "):
        call(seed)


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so a check made with one is no check.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(sdpi.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Functions that may build an RNG themselves.  Monte Carlo trials draw from
# the block streams of ``info.trial_blocks``; one generator per trial costs
# about 20 us, more than the draws it serves.
RNG_CONSTRUCTION_ALLOWED = {"info.trial_blocks", "network.random_network"}


def test_rng_streams_come_from_the_block_helper():
    found = set()
    for path in sorted(Path(sdpi.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if "default_rng" in (getattr(node, "attr", None), getattr(node, "id", None)):
                    found.add(owner)
    assert found <= RNG_CONSTRUCTION_ALLOWED
    assert "info.trial_blocks" in found


# Underscore names that one module may import from another: the row
# validator behind every constructor, which the verify suites apply to whole
# stacks, and the nats-to-bits conversion.  Any other helper two modules
# share is either public or belongs in the one module that uses it.
PRIVATE_IMPORTS_ALLOWED = {"verify <- info._validated_rows", "network <- info._as_base"}


def test_no_module_imports_a_private_name_of_another():
    found = set()
    for path in sorted(Path(sdpi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "sdpi":
                continue
            source = module.removeprefix("sdpi").lstrip(".") or "sdpi"
            found |= {f"{path.stem} <- {source}.{alias.name}"
                      for alias in node.names if alias.name.startswith("_")}
    assert found <= PRIVATE_IMPORTS_ALLOWED
    assert "verify <- info._validated_rows" in found


# Module-level MAX_* constants.  ``info.MAX_LAYER_BYTES`` is the one cap on
# what a computation materializes, stated in bytes; the class-scan cap
# bounds the O(n^3) work of a scan that holds O(n^2) floats.
CAP_CONSTANTS_ALLOWED = {"info.MAX_LAYER_BYTES", "contraction.MAX_CLASS_SCAN_WIDTH"}


def test_one_byte_cap_and_no_per_call_width_knobs():
    caps, knobs = set(), set()
    for path in sorted(Path(sdpi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                knobs |= {f"{path.stem}.{node.name}({n})" for n in names & {"max_width", "max_neurons"}}
        for top in ast.parse(path.read_text()).body:
            targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
            caps |= {f"{path.stem}.{t.id}" for t in targets
                     if isinstance(t, ast.Name) and t.id.startswith("MAX_")}
    assert knobs == set()
    assert caps == CAP_CONSTANTS_ALLOWED


def test_the_memory_policy_is_stated_only_in_info():
    # Every refusal goes through ``info.check_bytes``, the one comparison
    # with the cap, and every byte budget is a constant of ``info``.
    found = set()
    for path in sorted(Path(sdpi.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Compare) and any(
                        "MAX_LAYER_BYTES" in (getattr(n, "id", None), getattr(n, "attr", None))
                        for side in (node.left, *node.comparators) for n in ast.walk(side)):
                    found.add(f"{owner} compares with MAX_LAYER_BYTES")
            targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
            found |= {f"{path.stem}.{t.id}" for t in targets
                      if isinstance(t, ast.Name) and t.id.endswith("_BYTES") and path.stem != "info"}
    assert found == {"info.check_bytes compares with MAX_LAYER_BYTES"}


def test_only_records_that_hold_arrays_are_dataclasses():
    # A record that holds numpy arrays is a frozen dataclass compared by
    # identity, since tuple equality would compare arrays; every other
    # record is a named tuple, so no other module loads ``dataclasses``.
    importers, records = set(), {}
    for path in sorted(Path(sdpi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                    or isinstance(node, ast.Import) and "dataclasses" in {a.name for a in node.names}):
                importers.add(path.stem)
            if isinstance(node, ast.ClassDef):
                records |= {f"{path.stem}.{node.name}": ast.unparse(d) for d in node.decorator_list
                            if "dataclass" in ast.unparse(d)}
    assert importers == {"info", "network"}
    assert records == dict.fromkeys(
        ["info.Channel", "info.Distribution", "info.JointDistribution",
         "network.ThresholdNeuron", "network.NoisyNetwork"], "dataclass(frozen=True, eq=False)")


REPO = Path(__file__).resolve().parent.parent


def _references(tree: ast.Module) -> set[str]:
    """Every name and attribute a module reads, except where a top-level
    definition reads its own name."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name != getattr(top, "name", None):
                found.add(name)
    return found


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    # A public name that only its own tests call is code to delete.  It is
    # in use when the package reads it (strings such as the ``_EXPORTS``
    # table do not count), README.md shows it, the acceptance tests import
    # it, or a per-layer benchmark metric times it; such a metric's
    # <module>.<function> must still resolve, or the traced run stops.
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    metrics = [m["name"].split(".") for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]]
    package = Path(sdpi.__file__).parent
    timed = {f"{parts[0]}.{parts[1]}" for parts in metrics
             if len(parts) == 3 and (package / f"{parts[0]}.py").exists()} - set(tracing.GROUPS)
    for name in sorted(timed):
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"sdpi.{module}"), function, None)), name
    used = set().union(*(_references(ast.parse(p.read_text())) for p in package.glob("*.py")))
    used |= set(re.findall(r"\w+", (REPO / "README.md").read_text()))
    used |= {alias.name for node in ast.walk(ast.parse((REPO / "tests" / "test_acceptance.py").read_text()))
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = [name for name in sdpi.__all__
              if name not in used and f"{sdpi._MODULE_OF[name]}.{name}" not in timed]
    assert unused == []
