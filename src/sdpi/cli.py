"""Command-line front end.

Every command is registered with ``_command``: the text/JSON commands
share --format text|json and --out, and the CSV commands (the figure
datasets and the simulation) share --out and ``_write_csv``.
Every CSV starts with a comment line carrying the canonical invocation
and the seed, numbers are printed with 9 significant digits, and output
bytes depend only on the command, flags, and seed.  Exit codes: 0 on
success, 1 on domain infeasibility, 2 on input error, 3 on an internal
error (one ``error: internal:`` line on stderr, no traceback).

The closed forms come from ``closed_form``, which needs no numpy; the
modules that do (``contraction``, ``info``, ``memory``, ``network``,
``verify``) are imported inside the commands that use them, so a
closed-form command never loads numpy.  Before numpy can load, the
CLI sets ``OPENBLAS_NUM_THREADS`` to 1 unless the environment sets it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import numbers
import os
import sys
from pathlib import Path

import click

from . import closed_form as cf
from .errors import InfeasibleError, ValidationError, count, interval

# After a batched matmul, numpy's bundled OpenBLAS keeps a second thread
# spin-waiting for the rest of the process, which nearly doubles the CPU
# time of ``verify all`` and gains no wall time at this package's sizes.
# None of the imports above loads numpy, so this is read when it loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The names of ``verify.SUITES``, sorted, so that the command's choices
# need no import of ``verify``.
VERIFY_SUITES = ("appendix-identity", "layer-equality", "memory-sandwich", "sdpi-fuzz")

# Largest shared flip probability xi1 for which the weight ordering that
# the leading-order correlated bound rests on was checked numerically.
VERIFIED_XI1 = 0.07


def _num(x) -> str:
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return f"{float(x):.9g}"


def _row_format(row) -> str:
    """The format that renders ``row`` as its numbers' ``_num``, comma-joined."""
    return ",".join("{:d}" if isinstance(x, numbers.Integral) else "{:.9g}" for x in row)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` as floats, with its arithmetic:
    point i is i * step + start, or (i / div) * delta + start when the
    step underflows to 0, and the last point is ``stop`` itself."""
    div, delta = num - 1, stop - start
    if div > 0 and delta / div == 0.0:
        points = [(i / div) * delta for i in range(num)]
    else:
        step = delta / div if div > 0 else delta
        points = [i * step for i in range(num)]
    points = [p + start for p in points]
    if num > 1:
        points[-1] = stop
    return points


def _grid(lo: float, hi: float, points: int, name: str, top: str) -> list[float]:
    """``_linspace(lo, hi, points)`` once --{name}-min ``lo`` is in [0, ``top``,
    --{name}-max ``hi`` in [lo, ``top`` and --points at least 1."""
    lo = interval(lo, f"{name}-min", f"[0, {top}")
    interval(hi, f"{name}-max", f"[{lo}, {top}")
    return _linspace(lo, hi, count(points, "points"))


def _warn_if_unverified(xi1: float) -> None:
    if xi1 > VERIFIED_XI1:
        click.echo(
            f"warning: xi1 above {VERIFIED_XI1:g} leaves the numerically verified ordering range",
            err=True,
        )


def _emit(lines, out: str | None) -> None:
    """Write ``lines``, each ending in its newline, to stdout or to the
    file ``out``, 4096 at a time, so that no more than one chunk of
    rendered text is held at once."""
    lines = iter(lines)
    with (contextlib.nullcontext() if out is None else open(out, "w")) as f:
        write = f.write if f else functools.partial(click.echo, nl=False)
        while chunk := "".join(itertools.islice(lines, 4096)):
            write(chunk)


def _command(group: click.Group, name: str, csv: bool = False, plot: bool = False):
    """Register a command under ``group``.

    A text/JSON command returns (JSON payload, text, exit code) and gains
    --format and --out as its last options: it writes the chosen rendering
    to stdout or --out and exits with the code.  A ``csv`` command writes
    its table with ``_write_csv`` and gains --out, and --gnuplot when
    ``plot``, as its last options.  A --seed is checked here, as a
    non-negative integer of any size.  Errors exit with the module's exit codes.
    """

    def decorate(f):
        @functools.wraps(f)
        def run(out, fmt="text", gnuplot=False, **params):
            try:
                if gnuplot and out is None:
                    raise ValidationError("--gnuplot requires --out (the script references the CSV)")
                if "seed" in params:
                    count(params["seed"], "seed", minimum=0, float_range=False)
                if csv:
                    return f(**params)
                payload, text, code = f(**params)
                _emit([json.dumps(payload, sort_keys=True) + "\n" if fmt == "json" else text], out)
                if code:
                    sys.exit(code)
            except InfeasibleError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(1)
            except (ValidationError, ValueError, OSError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            except (click.ClickException, click.exceptions.Exit, click.Abort):
                raise
            except Exception as exc:
                # Any other failure is a defect of the program, not of the input.
                click.echo(f"error: internal: {type(exc).__name__}: {exc}", err=True)
                sys.exit(3)

        cmd = group.command(name)(run)
        if not csv:
            formats = click.Choice(["text", "json"])
            cmd.params.append(click.Option(["--format", "fmt"], type=formats, default="text"))
        cmd.params.append(click.Option(["--out"], type=click.Path(), default=None))
        if plot:
            cmd.params.append(click.Option(["--gnuplot"], is_flag=True, default=False))
        return cmd

    return decorate


def _invocation(ctx: click.Context) -> str:
    """Canonical ``# sdpi <command> <options>`` line of the running command.

    Options appear in declaration order, whatever their order on the
    command line, with a multiple option repeated once per value and a
    tuple value joined by commas; the output options are left out.
    """
    parts, c = [], ctx
    while c.parent is not None:
        parts.insert(0, c.info_name)
        c = c.parent
    for param in ctx.command.params:
        if param.name in ("out", "gnuplot"):
            continue
        value = ctx.params[param.name]
        for v in value if param.multiple else (value,):
            text = ",".join(map(_num, v)) if isinstance(v, tuple) else _num(v)
            parts.append(f"{param.opts[0]} {text}")
    return "# sdpi " + " ".join(parts)


def _gnuplot_script(csv_path: str, columns: list[str]) -> str:
    plots = ", ".join(
        f"'{Path(csv_path).name}' using 1:{i} with lines title '{name}'"
        for i, name in enumerate(columns[1:], start=2)
    )
    return (
        "set datafile separator ','\n"
        f"set xlabel '{columns[0]}'\n"
        f"plot {plots}\n"
    )


def _write_csv(columns: list[str], rows, footer: str | None = None, note: str | None = None) -> None:
    """Write the running command's CSV to stdout or --out.

    Lines: the canonical invocation, ``note`` if given, the column names,
    one line per row of numbers in the ``_row_format`` of the first, and
    ``footer`` if given.  With --out the footer is also echoed to stdout
    (without its ``# ``), and --gnuplot writes a plot script next to it.
    """
    ctx = click.get_current_context()
    out = ctx.params["out"]
    head = [_invocation(ctx), *([note] if note else []), ",".join(columns)]
    rows = iter(rows)
    first = next(rows)
    body = itertools.starmap(_row_format(first).format, itertools.chain([first], rows))
    lines = itertools.chain(head, body, [footer] if footer else [])
    _emit((line + "\n" for line in lines), out)
    if footer and out is not None:
        click.echo(footer.lstrip("# "))
    if ctx.params.get("gnuplot"):
        Path(out).with_suffix(".gp").write_text(_gnuplot_script(out, columns))


def _parse_int_list(_ctx, _param, value):
    try:
        return tuple(int(tok) for tok in str(value).split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}")


def _parse_pair(_ctx, _param, value):
    pairs = []
    for item in value:
        try:
            delta, xi = (float(tok) for tok in str(item).split(","))
        except ValueError:
            raise click.BadParameter(f"expected 'delta,xi', got {item!r}")
        pairs.append((delta, xi))
    return tuple(pairs)


@click.group()
def main():
    """Contraction bounds for noisy discrete channels, noisy threshold
    networks, and fault-tolerant memories."""


# ----------------------------------------------------------------- bound


@main.group()
def bound():
    """Contraction bounds for channels and noisy layers."""


@_command(bound, "channel")
@click.argument("path", type=click.Path())
def bound_channel(path):
    """Pair bound of a channel read from a JSON or CSV file."""
    from .contraction import contraction_bound
    from .info import load_channel

    result = contraction_bound(load_channel(path))
    k, l = result.witness_pair
    text = f"eta: {_num(result.eta)}\nwitness: ({k}, {l})\nmethod: {result.method}\n"
    return result.to_json(), text, 0


@_command(bound, "layer")
@click.option("--n", type=int, required=True, help="Layer width.")
@click.option("--xi", type=float, default=None, help="Independent flip probability.")
@click.option("--xi1", type=float, default=None, help="Shared flip probability.")
@click.option("--xi2", type=float, default=None, help="Per-component flip probability.")
def bound_layer(n, xi, xi1, xi2):
    """Contraction bound of an n-component noisy layer.

    Use --xi for independent noise (closed form) or --xi1/--xi2 for
    shared-plus-independent noise (exact distance-class scan plus the
    leading-order approximation).
    """
    correlated = xi1 is not None or xi2 is not None
    if correlated and (xi1 is None or xi2 is None):
        raise ValidationError("correlated mode needs both --xi1 and --xi2")
    if correlated and xi is not None:
        raise ValidationError("give either --xi or --xi1/--xi2, not both")
    if not correlated and xi is None:
        raise ValidationError("independent mode needs --xi")

    if correlated:
        from . import contraction as ctr

        spec = ctr.CorrelatedNoiseSpec(xi1=xi1, xi2=xi2, n=n)
        _warn_if_unverified(xi1)
        exact = ctr.correlated_layer_bound_exact(spec)
        leading = ctr.correlated_layer_bound_leading(spec)
        if xi1 <= VERIFIED_XI1 and cf.shared_noise_slope(xi2, n) * xi1 >= (4 * xi2 - 4 * xi2**2) ** n:
            click.echo("warning: slope*xi1 reaches (4 xi2 - 4 xi2^2)^n, where the first-order "
                       "eta_leading says nothing", err=True)
        k, l = exact.witness_pair
        text = (
            f"eta: {_num(exact.eta)}\nwitness: ({k}, {l})\nmethod: {exact.method}\n"
            f"eta_leading: {_num(leading)}\n"
        )
        return dict(exact.to_json(), eta_leading=leading), text, 0
    eta = cf.independent_layer_bound(cf.LayerNoiseSpec(xi=xi, n=n))
    payload = {"eta": eta, "witness": None, "method": "closed-form"}
    return payload, f"eta: {_num(eta)}\nmethod: closed-form\n", 0


# -------------------------------------------------------------------- nn


@main.group()
def nn():
    """Noisy threshold network computations."""


@_command(nn, "mi")
@click.argument("netfile", type=click.Path())
@click.option("--px", type=click.Path(), default=None, help="Input law file (default uniform).")
@click.option("--base", type=click.Choice(["bits", "nats"]), default="bits")
def nn_mi(netfile, px, base):
    """Exact input-output mutual information of a network file."""
    from .info import load_distribution
    from .network import exact_io_mutual_information, load_network

    net = load_network(netfile)
    p_x = load_distribution(px) if px else None
    value = exact_io_mutual_information(net, p_x, base=base)
    payload = {"mutual_information": value, "base": base}
    return payload, f"mutual information: {_num(value)} {base}\n", 0


@_command(nn, "bound")
@click.option("--widths", callback=_parse_int_list, required=True, help="Comma-separated layer widths.")
@click.option("--xi", type=float, required=True)
@click.option("--hx", type=float, default=1.0, help="Input entropy H(X).")
def nn_bound(widths, xi, hx):
    """Information decay bound through layers of the given widths."""
    value = cf.information_decay_bound(widths, xi, hx)
    return {"bound": value}, f"decay bound: {_num(value)}\n", 0


@_command(nn, "min-neurons")
@click.option("--xi", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--layers", type=int, required=True)
def nn_min_neurons(xi, delta, layers):
    """Hidden-neuron lower bound for delta-reliable computation."""
    value = cf.min_neurons_lower_bound(xi, delta, layers)
    infeasible = math.isinf(value)
    payload = {"n_s": None if infeasible else value}
    return payload, f"minimum hidden neurons: {_num(value)}\n", 1 if infeasible else 0


@_command(nn, "tradeoff")
@click.option("--n", type=float, required=True, help="Input count of the target function.")
@click.option("--xi", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--max-depth", type=int, required=True)
def nn_tradeoff(n, xi, delta, max_depth):
    """Depth sweep of max(expressibility, noise) size requirements."""
    result = cf.optimal_depth_tradeoff(n, xi, delta, max_depth)
    payload = {
        "per_depth": [
            {
                "depth": r.depth,
                "expressibility": r.expressibility_bound,
                "noise": None if math.isinf(r.noise_bound) else r.noise_bound,
                "binding": r.binding,
            }
            for r in result.per_depth
        ],
        "best": {"depth": result.best.depth, "minimum_neurons": result.best.minimum_neurons},
    }
    lines = [
        f"d={r.depth}: expressibility {_num(r.expressibility_bound)}, "
        f"noise {_num(r.noise_bound)}, binding {r.binding}"
        for r in result.per_depth
    ]
    lines.append(
        f"optimal depth {result.best.depth}: minimum neurons "
        f"{_num(result.best.minimum_neurons)}"
    )
    return payload, "\n".join(lines) + "\n", 0


# ------------------------------------------------------------------- mem


@main.group("mem")
def mem_group():
    """Fault-tolerant memory bounds and simulation."""


@_command(mem_group, "overhead")
@click.option("--delta", type=float, required=True)
@click.option("--intervals", type=int, required=True, help="Refresh intervals to survive.")
@click.option("--xi", type=float, required=True)
def mem_overhead(delta, intervals, xi):
    """Physical-bit lower bound for any correction rule."""
    value = cf.overhead_lower_bound(delta, intervals, xi)
    return {"n_lower": value}, f"overhead lower bound: {_num(value)} bits\n", 0


@_command(mem_group, "relax")
@click.option("--n", type=int, required=True)
@click.option("--xi", type=float, required=True)
@click.option("--delta", type=float, required=True)
def mem_relax(n, xi, delta):
    """Relaxation-time upper bound for any correction rule."""
    result = cf.relaxation_upper_bound(n, xi, delta)
    text = (
        f"relaxation upper bound: {_num(result.time)} intervals "
        f"(asymptotic {_num(result.asymptotic)})\n"
    )
    return {"time": result.time, "asymptotic": result.asymptotic}, text, 0


@_command(mem_group, "reptime")
@click.option("--n", type=int, required=True)
@click.option("--xi", type=float, required=True)
@click.option("--delta", type=float, required=True)
def mem_reptime(n, xi, delta):
    """Repetition-code relaxation time (exact tail probability)."""
    from .memory import repetition_relaxation_time

    result = repetition_relaxation_time(n, xi, delta)
    extra = "" if result.chernoff_lower is None else f" (chernoff lower {_num(result.chernoff_lower)})"
    text = f"repetition relaxation time: {_num(result.time)} intervals{extra}\n"
    return {"time": result.time, "chernoff_lower": result.chernoff_lower}, text, 0


@_command(mem_group, "simulate", csv=True)
@click.option("--n", type=int, required=True)
@click.option("--xi", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--intervals", type=int, required=True)
@click.option("--trials", type=int, default=10000)
@click.option("--seed", type=int, default=0)
def mem_simulate(n, xi, delta, intervals, trials, seed):
    """Monte Carlo repetition-code memory; emits a CSV success curve."""
    from .memory import MemorySpec, simulate_memory

    spec = MemorySpec(n=n, xi=xi, delta=delta, intervals=intervals)
    report = simulate_memory(spec, trials=trials, seed=seed)
    meta = dict(spec.to_dict(), trials=trials, seed=seed)
    rows = ((t, p, math.sqrt(p * (1.0 - p) / trials))  # no column is held but success_prob
            for t, p in zip(range(1, intervals + 1), map(float, report.success_prob)))
    _write_csv(["t", "success_prob", "stderr"], rows, note="# " + json.dumps(meta, sort_keys=True))


# ------------------------------------------------------------------- fig


@main.group()
def fig():
    """Reproduce the figure datasets as CSV."""


# The figure datasets draw nothing at random; their --seed is checked
# as every seed is and only echoed in the CSV header.
_label_seed = click.option(
    "--seed", type=int, default=0,
    help="Only labels the CSV header; the dataset does not depend on it.",
)


@_command(fig, "2", csv=True, plot=True)
@click.option("--n", type=int, default=3, help="Components in the layer.")
@click.option("--xi-min", type=float, default=0.0)
@click.option("--xi-max", type=float, default=0.5)
@click.option("--points", type=int, default=51)
@_label_seed
def fig2(n, xi_min, xi_max, points, seed):
    """Layer bound versus per-component (Evans-Schulman) accounting."""
    rows = []
    for xi in _grid(xi_min, xi_max, points, "xi", "0.5]"):
        eta = 1.0 - (4.0 * xi - 4.0 * xi**2)
        rows.append((xi, cf.evans_schulman_raw(eta, n), 1.0 - (1.0 - eta) ** n))
    _write_csv(["xi", "evans_schulman", "ours"], rows)


@_command(fig, "3", csv=True, plot=True)
@click.option("--xi2", type=float, default=0.35)
@click.option("--n", type=int, default=5)
@click.option("--xi1-min", type=float, default=0.0)
@click.option("--xi1-max", type=float, default=VERIFIED_XI1)
@click.option("--points", type=int, default=15)
@_label_seed
def fig3(xi2, n, xi1_min, xi1_max, points, seed):
    """Correlated-noise bounds against the matched independent bound."""
    from . import contraction as ctr

    grid = _grid(xi1_min, xi1_max, points, "xi1", "1]")
    _warn_if_unverified(xi1_max)
    rows = []
    for xi1 in grid:
        spec = ctr.CorrelatedNoiseSpec(xi1=xi1, xi2=xi2, n=n)
        matched = xi1 * (1.0 - xi2) + (1.0 - xi1) * xi2
        eta_ind = cf.independent_layer_bound(cf.LayerNoiseSpec(xi=matched, n=n))
        leading = ctr.correlated_layer_bound_leading(spec)
        exact = ctr.correlated_layer_bound_exact(spec).eta
        rows.append((xi1, eta_ind, leading, exact))
    _write_csv(["xi1", "eta_ind", "eta_wc_leading", "eta_wc_exact"], rows)


@_command(fig, "5", csv=True, plot=True)
@click.option("--xi-min", type=float, default=0.01)
@click.option("--xi-max", type=float, default=0.49)
@click.option("--points", type=int, default=49)
@click.option("--delta", "deltas", type=float, multiple=True, default=(0.3, 0.4))
@click.option("--layers", "layer_counts", type=int, multiple=True, default=(2, 4, 6))
@_label_seed
def fig5(xi_min, xi_max, points, deltas, layer_counts, seed):
    """Hidden-neuron lower bound as a function of the noise level."""
    grid = _grid(xi_min, xi_max, points, "xi", "0.5)")
    rows = [
        (xi, delta, depth, cf.min_neurons_lower_bound(xi, delta, depth))
        for delta in deltas
        for depth in layer_counts
        for xi in grid
    ]
    _write_csv(["xi", "delta", "L", "n_s"], rows)


@_command(fig, "6", csv=True, plot=True)
@click.option("--n", type=float, default=5e8, help="Input count of the parity target.")
@click.option("--xi", type=float, default=0.37)
@click.option("--delta", type=float, default=0.4)
@click.option("--max-depth", type=int, default=6)
@_label_seed
def fig6(n, xi, delta, max_depth, seed):
    """Size requirements per depth with the binding regime and the optimum."""
    result = cf.optimal_depth_tradeoff(n, xi, delta, max_depth)
    rows = [
        (r.depth, r.expressibility_bound, r.noise_bound, r.minimum_neurons)
        for r in result.per_depth
    ]
    footer = (
        f"# optimal depth {result.best.depth}: minimum neurons "
        f"{_num(result.best.minimum_neurons)}"
    )
    _write_csv(["d", "omega", "ns_plus_1", "max"], rows, footer=footer)


@_command(fig, "8", csv=True, plot=True)
@click.option("--t-max", type=int, default=100)
@click.option("--pair", "pairs", multiple=True, callback=_parse_pair,
              default=("0.3,0.2", "0.4,0.1"), help="delta,xi series (repeatable).")
@_label_seed
def fig8(t_max, pairs, seed):
    """Error-correction overhead lower bound versus the interval count."""
    t_max = count(t_max, "t-max")
    rows = [
        (t, delta, xi, cf.overhead_lower_bound(delta, t, xi))
        for delta, xi in pairs
        for t in range(1, t_max + 1)
    ]
    _write_csv(["T", "delta", "xi", "n_lower"], rows)


# ---------------------------------------------------------------- verify


@_command(main, "verify")
@click.argument("suite", type=click.Choice([*VERIFY_SUITES, "all"]))
@click.option("--seed", type=int, default=0)
@click.option("--budget", type=int, default=None, help="Sample count for randomized suites.")
def verify(suite, seed, budget):
    """Run a verification suite; exit 0 iff every check passes."""
    from .verify import run_suite

    names = VERIFY_SUITES if suite == "all" else [suite]
    results = [run_suite(name, seed=seed, budget=budget) for name in names]
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"suite {r.suite}: {status} ({r.checks} checks, {r.skipped} skipped) "
            + json.dumps(r.worst, sort_keys=True)
        )
        for failure in r.failures[:3]:
            lines.append("counterexample: " + json.dumps(failure, sort_keys=True))
    payload = {"results": [r.to_dict() for r in results]}
    return payload, "\n".join(lines) + "\n", 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    main()
