"""The four workloads: seeded inputs, the argument lists, and their checks.

``build(name, seed, inputs)`` writes every input file into ``inputs`` and
returns one pass of the workload: a list of invocations, each an sdpi
argument list with the check its output must pass.  The seed picks every
parameter, channel file and network file; sizes are fixed, so the work
per pass does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from oracle import (
    all_of,
    check_network_mi,
    check_simulation,
    check_verify,
    correlated_class_sums,
    correlated_leading,
    corrupt,
    decay_bound,
    expect_json,
    expect_text,
    fmt,
    layer_retention,
    min_neurons,
    overhead,
    pair_bound,
    relaxation,
    reptime,
    simulation_corruptions,
    tradeoff,
    verify_corruptions,
)

# verify all at its default budgets: the randomized suites run their
# sample budget, the two grids have fixed sizes (8 widths x 5 noise
# levels; 11 odd n x 4 xi x 2 delta).
VERIFY_CHECKS = {"sdpi-fuzz": 10000, "appendix-identity": 1000, "layer-equality": 40,
                 "memory-sandwich": 88}
# Reference point of the depth-width trade-off (paper, Fig. 6).
TRADEOFF_REFERENCE = (500_000_000, 0.37, 0.4)
TRADEOFF_BEST = (4, 61.22)
# nn mi networks: (input width, layer widths).  The last is two layers
# of 12, whose 2^12 x 2^12 noise matrix is the largest one built.
NETWORKS = ((6, (6, 6)), (8, (9, 9)), (8, (12, 12)))
CORRELATED_WIDTHS = (100, 200)


@dataclass(frozen=True)
class Invocation:
    args: list[str]
    check: Callable[[int, bytes], str | None]
    # Deliberately wrong versions of a right output; the check must reject each.
    corruptions: tuple[Callable[[bytes], bytes], ...] = (corrupt,)


def _num(x: float) -> str:
    return repr(float(x))


def _header(*parts) -> str:
    return "# sdpi " + " ".join(str(p) for p in parts)


def _csv(header: str, columns: str, rows, footer: str | None = None) -> str:
    lines = [header, columns, *(",".join(fmt(v) for v in row) for row in rows)]
    return "\n".join(lines + ([footer] if footer else [])) + "\n"


def _u(r: random.Random, lo: float, hi: float) -> float:
    return round(r.uniform(lo, hi), 4)


def _feasible(r: random.Random, xi_range, delta_range, layers: int):
    """Noise and reliability levels at which `layers` layers can be delta-reliable."""
    while True:
        xi, delta = _u(r, *xi_range), _u(r, *delta_range)
        if math.isfinite(min_neurons(xi, delta, layers)):
            return xi, delta


def cli_closed_form(r: random.Random, inputs: Path) -> list[Invocation]:
    invs = []

    n, xi = r.randint(1, 60), _u(r, 0.01, 0.49)
    invs.append(Invocation(["bound", "layer", "--n", str(n), "--xi", _num(xi)], expect_text(
        f"eta: {fmt(1.0 - layer_retention(xi, n))}\nmethod: closed-form\n")))

    p = _u(r, 0.01, 0.49)
    bsc = inputs / "bsc.csv"
    bsc.write_text(f"{_num(1 - p)},{_num(p)}\n{_num(p)},{_num(1 - p)}\n")
    invs.append(Invocation(["bound", "channel", str(bsc)], expect_text(
        f"eta: {fmt((1 - 2 * p) ** 2)}\nwitness: (0, 1)\nmethod: pair-scan\n")))

    k, m = r.randint(3, 6), r.randint(2, 6)
    rows = []
    for _ in range(k):
        row = [r.expovariate(1.0) for _ in range(m)]
        rows.append([v / sum(row) for v in row])
    chan = inputs / "channel.json"
    chan.write_text(json.dumps({"rows": rows}))
    eta, witness = pair_bound(rows)
    invs.append(Invocation(["bound", "channel", str(chan), "--format", "json"], expect_json(
        {"eta": eta, "witness": list(witness), "method": "pair-scan"})))

    widths = [r.randint(1, 12) for _ in range(r.randint(1, 5))]
    xi, h_x = _u(r, 0.01, 0.49), _u(r, 0.5, 8.0)
    invs.append(Invocation(
        ["nn", "bound", "--widths", ",".join(map(str, widths)), "--xi", _num(xi), "--hx",
         _num(h_x), "--format", "json"],
        expect_json({"bound": decay_bound(widths, xi, h_x)})))

    layers = r.randint(2, 8)
    xi, delta = _feasible(r, (0.01, 0.3), (0.05, 0.45), layers)
    invs.append(Invocation(
        ["nn", "min-neurons", "--xi", _num(xi), "--delta", _num(delta), "--layers", str(layers)],
        expect_text(f"minimum hidden neurons: {fmt(min_neurons(xi, delta, layers))}\n")))

    depth = r.randint(4, 8)
    per_depth, best = tradeoff(*TRADEOFF_REFERENCE, depth)
    if best[0] != TRADEOFF_BEST[0] or abs(max(best[1], best[2]) - TRADEOFF_BEST[1]) > 0.01:
        raise RuntimeError(f"trade-off oracle misses the reference point: {best}")
    n_ref, xi_ref, delta_ref = TRADEOFF_REFERENCE
    invs.append(Invocation(
        ["nn", "tradeoff", "--n", str(n_ref), "--xi", _num(xi_ref), "--delta", _num(delta_ref),
         "--max-depth", str(depth), "--format", "json"],
        expect_json({
            "per_depth": [{"depth": d, "expressibility": om,
                           "noise": nz if math.isfinite(nz) else None, "binding": bind}
                          for d, om, nz, bind in per_depth],
            "best": {"depth": best[0], "minimum_neurons": max(best[1], best[2])},
        })))

    delta, t, xi = _u(r, 0.05, 0.45), r.randint(1, 1000), _u(r, 0.01, 0.45)
    invs.append(Invocation(
        ["mem", "overhead", "--delta", _num(delta), "--intervals", str(t), "--xi", _num(xi),
         "--format", "json"],
        expect_json({"n_lower": overhead(delta, t, xi)})))

    n, xi, delta = r.randint(1, 30), _u(r, 0.1, 0.45), _u(r, 0.05, 0.45)
    steps, asym = relaxation(n, xi, delta)
    invs.append(Invocation(
        ["mem", "relax", "--n", str(n), "--xi", _num(xi), "--delta", _num(delta)],
        expect_text(f"relaxation upper bound: {fmt(steps)} intervals (asymptotic {fmt(asym)})\n")))

    n, xi, delta = 2 * r.randint(0, 12) + 1, _u(r, 0.01, 0.45), _u(r, 0.05, 0.45)
    steps, chernoff = reptime(n, xi, delta)
    invs.append(Invocation(
        ["mem", "reptime", "--n", str(n), "--xi", _num(xi), "--delta", _num(delta),
         "--format", "json"],
        expect_json({"time": steps, "chernoff_lower": chernoff})))

    n, points = r.randint(1, 8), r.randint(20, 60)
    rows = []
    for xi in np.linspace(0.0, 0.5, points):
        eta1 = 1.0 - layer_retention(float(xi), 1)
        rows.append((float(xi), n * eta1, 1.0 - (1.0 - eta1) ** n))
    invs.append(Invocation(["fig", "2", "--n", str(n), "--points", str(points)], expect_text(_csv(
        _header("fig 2", "--n", n, "--xi-min", 0, "--xi-max", 0.5, "--points", points,
                "--seed", 0),
        "xi,evans_schulman,ours", rows))))

    xi2, n, points = _u(r, 0.2, 0.45), r.randint(3, 6), r.randint(8, 16)
    rows = []
    for xi1 in np.linspace(0.0, 0.07, points):
        xi1 = float(xi1)
        matched = xi1 * (1.0 - xi2) + (1.0 - xi1) * xi2
        rows.append((xi1, 1.0 - layer_retention(matched, n), correlated_leading(xi1, xi2, n),
                     1.0 - correlated_class_sums(xi1, xi2, n)[1:].min() ** 2))
    invs.append(Invocation(
        ["fig", "3", "--xi2", _num(xi2), "--n", str(n), "--points", str(points)],
        expect_text(_csv(
            _header("fig 3", "--xi2", xi2, "--n", n, "--xi1-min", 0, "--xi1-max", 0.07,
                    "--points", points, "--seed", 0),
            "xi1,eta_ind,eta_wc_leading,eta_wc_exact", rows))))

    points = r.randint(20, 60)
    rows = [(float(xi), delta, depth, min_neurons(float(xi), delta, depth))
            for delta in (0.3, 0.4) for depth in (2, 4, 6)
            for xi in np.linspace(0.01, 0.49, points)]
    invs.append(Invocation(["fig", "5", "--points", str(points)], expect_text(_csv(
        _header("fig 5", "--xi-min", 0.01, "--xi-max", 0.49, "--points", points,
                "--delta 0.3", "--delta 0.4", "--layers 2", "--layers 4", "--layers 6",
                "--seed", 0),
        "xi,delta,L,n_s", rows))))

    n, depth = r.choice((10**6, 10**7, 10**8, 5 * 10**8, 10**9)), r.randint(3, 8)
    xi, delta = _feasible(r, (0.2, 0.4), (0.3, 0.45), 2)
    per_depth, best = tradeoff(n, xi, delta, depth)
    invs.append(Invocation(
        ["fig", "6", "--n", str(n), "--xi", _num(xi), "--delta", _num(delta),
         "--max-depth", str(depth)],
        expect_text(_csv(
            _header("fig 6", "--n", n, "--xi", xi, "--delta", delta, "--max-depth", depth,
                    "--seed", 0),
            "d,omega,ns_plus_1,max",
            [(d, om, nz, max(om, nz)) for d, om, nz, _ in per_depth],
            f"# optimal depth {best[0]}: minimum neurons {fmt(max(best[1], best[2]))}"))))

    t_max = r.randint(50, 200)
    pairs = [(_u(r, 0.05, 0.45), _u(r, 0.01, 0.45)) for _ in range(2)]
    args = ["fig", "8", "--t-max", str(t_max)]
    for delta, xi in pairs:
        args += ["--pair", f"{_num(delta)},{_num(xi)}"]
    invs.append(Invocation(args, expect_text(_csv(
        _header("fig 8", "--t-max", t_max, *(f"--pair {d},{x}" for d, x in pairs), "--seed", 0),
        "T,delta,xi,n_lower",
        [(t, d, x, overhead(d, t, x)) for d, x in pairs for t in range(1, t_max + 1)]))))
    return invs


def verify_all(r: random.Random, inputs: Path) -> list[Invocation]:
    seed = r.randrange(2**31)
    return [Invocation(["verify", "all", "--seed", str(seed), "--format", "json"],
                       check_verify(VERIFY_CHECKS), verify_corruptions())]


def mem_simulate(r: random.Random, inputs: Path) -> list[Invocation]:
    invs = []
    for n, intervals, trials in ((9, 20, 100_000), (25, 200, 10_000)):
        seed = r.randrange(2**31)
        invs.append(Invocation(
            ["mem", "simulate", "--n", str(n), "--xi", "0.3", "--delta", "0.4",
             "--intervals", str(intervals), "--trials", str(trials), "--seed", str(seed)],
            check_simulation(n, 0.3, 0.4, intervals, trials, seed),
            simulation_corruptions(trials)))
    return invs


def _network(r: random.Random, input_width: int, widths, xi: float) -> dict:
    """Weights uniform in [-1, 1], biases uniform in [-fan_in/2, fan_in/2]."""
    layers, fan_in = [], input_width
    for width in widths:
        layers.append({"neurons": [
            {"weights": [r.uniform(-1.0, 1.0) for _ in range(fan_in)],
             "bias": r.uniform(-fan_in / 2.0, fan_in / 2.0)}
            for _ in range(width)]})
        fan_in = width
    return {"xi": xi, "input_width": input_width, "layers": layers}


def wide_layers(r: random.Random, inputs: Path) -> list[Invocation]:
    invs = []
    for i, (input_width, widths) in enumerate(NETWORKS):
        net = _network(r, input_width, widths, _u(r, 0.05, 0.2))
        path = inputs / f"net{i}.json"
        path.write_text(json.dumps(net))
        fmt_name = "json" if i % 2 else "text"
        invs.append(Invocation(["nn", "mi", str(path), "--format", fmt_name],
                               check_network_mi(net, fmt_name)))
    for n in CORRELATED_WIDTHS:
        xi1, xi2 = _u(r, 0.001, 0.05), _u(r, 0.4, 0.48)
        sums = correlated_class_sums(xi1, xi2, n)
        e = int(np.argmin(sums[1:])) + 1
        retention = float(sums[e]) ** 2

        def retained(rc, out, retention=retention):
            got = 1.0 - json.loads(out)["eta"]
            if abs(got - retention) > 1e-6 * retention + 1e-15:
                return f"retention 1 - eta = {got!r}, oracle {retention!r}"
            return None

        invs.append(Invocation(
            ["bound", "layer", "--n", str(n), "--xi1", _num(xi1), "--xi2", _num(xi2),
             "--format", "json"],
            all_of(expect_json({"eta": 1.0 - retention, "witness": [0, (1 << e) - 1],
                                "method": "distance-classes",
                                "eta_leading": correlated_leading(xi1, xi2, n)}),
                   retained)))
    return invs


WORKLOADS = {
    "cli-closed-form": cli_closed_form,
    "verify-all": verify_all,
    "mem-simulate": mem_simulate,
    "wide-layers": wide_layers,
}


def build(name: str, seed: int, inputs: Path) -> list[Invocation]:
    # A string seed hashes the same way in every process.
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), inputs)
