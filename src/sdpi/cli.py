"""Command-line front end.

Every command is declared once, in ``COMMANDS``, by ``_command``: its
path (group and name), its function and its options in declaration
order.  ``main`` looks up the invoked command and parses only its
options, with nothing outside the standard library; ``--help`` and the
CSV header read the same table.  The text/JSON commands share --format
text|json and --out, and the CSV commands (the figure datasets and the
simulation) share --out and ``_write_csv``.  Every CSV starts with a
comment line carrying the canonical invocation and the seed, numbers are
printed with 9 significant digits, and output bytes depend only on the
command, flags, and seed.  Exit codes: 0 on success, 1 on domain
infeasibility, 2 on input error, a usage error included, 3 on an
internal error, and 141, silently, once the reader of stdout has left
(``| head``); an error is one ``error:`` line on stderr, with no traceback.

The closed forms come from ``closed_form``, which needs no numpy; the
modules that do (``contraction``, ``info``, ``memory``, ``network``,
``verify``) are imported inside the commands that use them, so a
closed-form command never loads numpy; ``json``, ``pathlib`` and
``textwrap`` load only where JSON is written, for --gnuplot and for
--help.  Before numpy can load, the CLI sets ``OPENBLAS_NUM_THREADS``
to 1 unless the environment sets it.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import numbers
import os
import sys

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

ABOUT = ("Contraction bounds for noisy discrete channels, noisy threshold networks, "
         "and fault-tolerant memories.")
GROUPS = {
    "bound": "Contraction bounds for channels and noisy layers.",
    "fig": "Reproduce the figure datasets as CSV.",
    "mem": "Fault-tolerant memory bounds and simulation.",
    "nn": "Noisy threshold network computations.",
}

# One option of a command.  ``flag`` is "--name", or the bare name of a
# positional argument; ``type`` converts the option's text, or is the
# tuple of its choices, or ``bool`` for a flag that takes no value.
Option = collections.namedtuple("Option", "name flag type default required multiple help")
Command = collections.namedtuple("Command", "path function options csv")

# Every command by its path, "group name" or a top-level name.
COMMANDS: dict[str, Command] = {}


def _opt(flag: str, type, default=None, help: str = "", *, name: str | None = None,
         required: bool = False, multiple: bool = False) -> Option:
    return Option(name or flag.lstrip("-").replace("-", "_"), flag, type, default, required,
                  multiple, help)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _pair(text: str) -> tuple[float, float]:
    delta, xi = map(float, text.split(","))
    return delta, xi


# The help metavar of each option type, and the form of value it expects.
FORMS = {int: ("INTEGER", "an integer"), float: ("FLOAT", "a number"), str: ("PATH", "a path"),
         bool: ("", ""), _int_list: ("N,N,...", "comma-separated integers"),
         _pair: ("DELTA,XI", "'delta,xi'")}


def _form(option: Option) -> tuple[str, str]:
    if isinstance(option.type, tuple):
        return "{" + "|".join(option.type) + "}", "one of " + ", ".join(option.type)
    return FORMS[option.type]


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
        print(f"warning: xi1 above {VERIFIED_XI1:g} leaves the numerically verified ordering range",
              file=sys.stderr)


def _emit(lines, out: str | None) -> None:
    """Write ``lines``, each ending in its newline, to stdout or to the
    file ``out``, 4096 at a time, so that no more than one chunk of
    rendered text is held at once.  Every line of stdout is written here
    and flushed, so that a reader that has left is seen by ``main``, not
    at exit."""
    lines = iter(lines)
    with (contextlib.nullcontext(sys.stdout) if out is None else open(out, "w")) as f:
        while chunk := "".join(itertools.islice(lines, 4096)):
            f.write(chunk)
        f.flush()


def _command(path: str, *options: Option, csv: bool = False, plot: bool = False):
    """Declare the command ``path`` with ``options`` and then the output
    options.  A text/JSON command returns (JSON payload, text, exit code)
    and gains --format and --out; a ``csv`` command returns the table
    keywords of ``_write_csv`` and gains --out, and --gnuplot when ``plot``."""
    output = [] if csv else [_opt("--format", ("text", "json"), "text", name="fmt")]
    output.append(_opt("--out", str))
    if plot:
        output.append(_opt("--gnuplot", bool, False))

    def declare(f):
        COMMANDS[path] = Command(path, f, (*options, *output), csv)
        return f

    return declare


def _convert(option: Option, text: str):
    try:
        if not isinstance(option.type, tuple):
            return option.type(text)
        if text in option.type:
            return text
    except ValueError:
        pass
    raise ValidationError(f"invalid value for {option.flag}: expected {_form(option)[1]}, "
                          f"got {text!r}")


def _parse(cmd: Command, args: list[str]) -> dict | None:
    """The value of each of ``cmd``'s options in ``args``, by name, or None
    once --help has printed the command's help.

    An option matches only by its whole flag, never by a prefix, and its
    value is ``--flag=value`` or the next token, whatever that looks like,
    so that ``--xi -1e-3`` reaches the range check.  The other tokens, and
    every token after ``--``, fill the positional arguments in order.  A
    repeated option keeps its last value, or every value if ``multiple``.
    """
    flags = {o.flag: o for o in cmd.options if o.flag.startswith("-")}
    texts, positional = collections.defaultdict(list), []
    tokens = iter(args)
    for token in tokens:
        if token == "--":
            positional += tokens
        elif token == "--help":
            _emit([_command_help(cmd) + "\n"], None)
            return None
        elif token.startswith("-") and token != "-":
            flag, eq, text = token.partition("=")
            option = flags.get(flag)
            if option is None:
                raise ValidationError(f"no such option {flag}")
            if option.type is bool and eq:
                raise ValidationError(f"option {flag} takes no value")
            if option.type is not bool and not eq and (text := next(tokens, None)) is None:
                raise ValidationError(f"option {flag} needs a value")
            texts[option.name].append(text)
        else:
            positional.append(token)
    for option in cmd.options:
        if not option.flag.startswith("-") and positional:
            texts[option.name].append(positional.pop(0))
    if positional:
        raise ValidationError(f"unexpected argument {positional[0]!r}")
    values = {}
    for option in cmd.options:
        if option.name in texts:
            given = [True if option.type is bool else _convert(option, t)
                     for t in texts[option.name]]
            values[option.name] = tuple(given) if option.multiple else given[-1]
        elif option.required:
            kind = "option" if option.flag.startswith("-") else "argument"
            raise ValidationError(f"missing {kind} {option.flag}")
        else:
            values[option.name] = option.default
    return values


def _commands_under(group: str) -> dict[str, str]:
    """The commands under ``group`` ("" for the top level), each with its summary."""
    prefix = f"{group} " if group else ""
    summaries = {**{path: cmd.function.__doc__.split("\n")[0] for path, cmd in COMMANDS.items()},
                 **GROUPS}
    return {path.removeprefix(prefix): text for path, text in sorted(summaries.items())
            if path.startswith(prefix) and " " not in path.removeprefix(prefix)}


def _help(usage: str, doc: str, heading: str, rows: dict[str, str]) -> str:
    width = max(map(len, rows))
    return "\n".join([f"usage: sdpi {usage}", "", doc, "", f"{heading}:",
                      *(f"  {left:<{width}}  {right}".rstrip() for left, right in rows.items())])


def _command_help(cmd: Command) -> str:
    import textwrap  # here, so that only --help loads it

    args = [_form(o)[0] if isinstance(o.type, tuple) else o.flag.upper()
            for o in cmd.options if not o.flag.startswith("-")]
    summary, _, rest = cmd.function.__doc__.partition("\n")
    rows = {f"{o.flag} {_form(o)[0]}".rstrip(): o.help + " (required)" * o.required
            for o in cmd.options if o.flag.startswith("-")}
    return _help(" ".join([cmd.path, "[options]", *args]),
                 (summary + "\n" + textwrap.dedent(rest)).strip(), "options", rows)


def _invocation(cmd: Command, params: dict) -> str:
    """Canonical ``# sdpi <command> <options>`` line of a CSV command.

    Options appear in declaration order, whatever their order on the
    command line, with a multiple option repeated once per value and a
    tuple value joined by commas; the output options, not in ``params``,
    are left out.
    """
    parts = [cmd.path]
    for option in (o for o in cmd.options if o.name in params):
        value = params[option.name]
        for v in value if option.multiple else (value,):
            text = ",".join(map(_num, v)) if isinstance(v, tuple) else _num(v)
            parts.append(f"{option.flag} {text}")
    return "# sdpi " + " ".join(parts)


def _gnuplot_script(csv_name: str, columns: list[str]) -> str:
    plots = ", ".join(
        f"'{csv_name}' using 1:{i} with lines title '{name}'"
        for i, name in enumerate(columns[1:], start=2)
    )
    return (
        "set datafile separator ','\n"
        f"set xlabel '{columns[0]}'\n"
        f"plot {plots}\n"
    )


def _write_csv(invocation: str, out: str | None, gnuplot: bool, columns: list[str], rows,
               footer: str | None = None, note: str | None = None) -> None:
    """Write a CSV command's table to stdout or ``out``.

    Lines: the canonical ``invocation``, ``note`` if given, the column
    names, one line per row of numbers in the ``_row_format`` of the first,
    and ``footer`` if given.  With ``out`` the footer is also printed to
    stdout (without its ``# ``), and ``gnuplot`` writes a plot script next
    to it.
    """
    head = [invocation, *([note] if note else []), ",".join(columns)]
    rows = iter(rows)
    first = next(rows)
    body = itertools.starmap(_row_format(first).format, itertools.chain([first], rows))
    lines = itertools.chain(head, body, [footer] if footer else [])
    _emit((line + "\n" for line in lines), out)
    if footer and out is not None:
        _emit([footer.lstrip("# ") + "\n"], None)
    if gnuplot:
        from pathlib import Path  # here, so that only --gnuplot loads it

        Path(out).with_suffix(".gp").write_text(_gnuplot_script(Path(out).name, columns))


def _run(cmd: Command, args: list[str]) -> None:
    """Parse ``args`` for ``cmd`` and run it.  A --seed is checked here, as
    a non-negative integer of any size."""
    params = _parse(cmd, args)
    if params is None:
        return
    out, fmt, gnuplot = params.pop("out"), params.pop("fmt", None), params.pop("gnuplot", False)
    if gnuplot and out is None:
        raise ValidationError("--gnuplot requires --out (the script references the CSV)")
    if "seed" in params:
        count(params["seed"], "seed", minimum=0, float_range=False)
    result = cmd.function(**params)
    if cmd.csv:
        _write_csv(_invocation(cmd, params), out, gnuplot, **result)
        return
    payload, text, code = result
    if fmt == "json":
        import json  # here, so that only JSON output loads it
        text = json.dumps(payload, sort_keys=True) + "\n"
    _emit([text], out)
    if code:
        sys.exit(code)


def main(args=None) -> None:
    """Run the ``sdpi`` command in ``args`` (by default ``sys.argv[1:]``);
    an error exits with the module's exit codes."""
    args = list(sys.argv[1:] if args is None else args)
    group = args[0] if args[:1] and args[0] in GROUPS else ""
    depth = 2 if group else 1
    path = " ".join(args[:depth])
    try:
        if path in COMMANDS:
            return _run(COMMANDS[path], args[depth:])
        if args[depth - 1 : depth] == ["--help"]:
            usage = " ".join(filter(None, (group, "<command> [options]")))
            return _emit([_help(usage, GROUPS.get(group, ABOUT), "commands",
                                _commands_under(group)) + "\n"], None)
        names = ", ".join(_commands_under(group))
        if len(args) < depth:
            raise ValidationError(f"missing command, one of {names}")
        raise ValidationError(f"no such command {path!r}, not one of {names}")
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # The reader of stdout left, as `| head` does: what is still buffered
        # goes to os.devnull, and the status is a shell's for SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except Exception as exc:
        # Any other failure is a defect of the program, not of the input.
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(3)


# click.testing.CliRunner, which the tests and perfbench's traced run drive the
# CLI with, reads these two attributes; ROADMAP item 2 removes them.
main.name = "sdpi"
main.main = lambda args=None, prog_name=None: main(args)


# ----------------------------------------------------------------- bound


@_command("bound channel", _opt("path", str, required=True))
def bound_channel(path):
    """Pair bound of a channel read from a JSON or CSV file."""
    from .contraction import contraction_bound
    from .info import load_channel

    result = contraction_bound(load_channel(path))
    k, l = result.witness_pair
    text = f"eta: {_num(result.eta)}\nwitness: ({k}, {l})\nmethod: {result.method}\n"
    return result.to_json(), text, 0


@_command("bound layer",
          _opt("--n", int, required=True, help="Layer width."),
          _opt("--xi", float, help="Independent flip probability."),
          _opt("--xi1", float, help="Shared flip probability."),
          _opt("--xi2", float, help="Per-component flip probability."))
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
            print("warning: slope*xi1 reaches (4 xi2 - 4 xi2^2)^n, where the first-order "
                  "eta_leading says nothing", file=sys.stderr)
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


@_command("nn mi",
          _opt("netfile", str, required=True),
          _opt("--px", str, help="Input law file (default uniform)."),
          _opt("--base", ("bits", "nats"), "bits"))
def nn_mi(netfile, px, base):
    """Exact input-output mutual information of a network file."""
    from .info import load_distribution
    from .network import exact_io_mutual_information, load_network

    net = load_network(netfile)
    p_x = load_distribution(px) if px else None
    value = exact_io_mutual_information(net, p_x, base=base)
    payload = {"mutual_information": value, "base": base}
    return payload, f"mutual information: {_num(value)} {base}\n", 0


@_command("nn bound",
          _opt("--widths", _int_list, required=True, help="Comma-separated layer widths."),
          _opt("--xi", float, required=True),
          _opt("--hx", float, 1.0, "Input entropy H(X)."))
def nn_bound(widths, xi, hx):
    """Information decay bound through layers of the given widths."""
    value = cf.information_decay_bound(widths, xi, hx)
    return {"bound": value}, f"decay bound: {_num(value)}\n", 0


@_command("nn min-neurons",
          _opt("--xi", float, required=True),
          _opt("--delta", float, required=True),
          _opt("--layers", int, required=True))
def nn_min_neurons(xi, delta, layers):
    """Hidden-neuron lower bound for delta-reliable computation."""
    value = cf.min_neurons_lower_bound(xi, delta, layers)
    infeasible = math.isinf(value)
    payload = {"n_s": None if infeasible else value}
    return payload, f"minimum hidden neurons: {_num(value)}\n", 1 if infeasible else 0


@_command("nn tradeoff",
          _opt("--n", float, required=True, help="Input count of the target function."),
          _opt("--xi", float, required=True),
          _opt("--delta", float, required=True),
          _opt("--max-depth", int, required=True))
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


@_command("mem overhead",
          _opt("--delta", float, required=True),
          _opt("--intervals", int, required=True, help="Refresh intervals to survive."),
          _opt("--xi", float, required=True))
def mem_overhead(delta, intervals, xi):
    """Physical-bit lower bound for any correction rule."""
    value = cf.overhead_lower_bound(delta, intervals, xi)
    return {"n_lower": value}, f"overhead lower bound: {_num(value)} bits\n", 0


@_command("mem relax",
          _opt("--n", int, required=True),
          _opt("--xi", float, required=True),
          _opt("--delta", float, required=True))
def mem_relax(n, xi, delta):
    """Relaxation-time upper bound for any correction rule."""
    result = cf.relaxation_upper_bound(n, xi, delta)
    text = (
        f"relaxation upper bound: {_num(result.time)} intervals "
        f"(asymptotic {_num(result.asymptotic)})\n"
    )
    return {"time": result.time, "asymptotic": result.asymptotic}, text, 0


@_command("mem reptime",
          _opt("--n", int, required=True),
          _opt("--xi", float, required=True),
          _opt("--delta", float, required=True))
def mem_reptime(n, xi, delta):
    """Repetition-code relaxation time (exact tail probability)."""
    from .memory import repetition_relaxation_time

    result = repetition_relaxation_time(n, xi, delta)
    extra = "" if result.chernoff_lower is None else f" (chernoff lower {_num(result.chernoff_lower)})"
    text = f"repetition relaxation time: {_num(result.time)} intervals{extra}\n"
    return {"time": result.time, "chernoff_lower": result.chernoff_lower}, text, 0


@_command("mem simulate",
          _opt("--n", int, required=True),
          _opt("--xi", float, required=True),
          _opt("--delta", float, required=True),
          _opt("--intervals", int, required=True),
          _opt("--trials", int, 10000),
          _opt("--seed", int, 0), csv=True)
def mem_simulate(n, xi, delta, intervals, trials, seed):
    """Monte Carlo repetition-code memory; emits a CSV success curve."""
    import json

    from .memory import MemorySpec, simulate_memory

    spec = MemorySpec(n=n, xi=xi, delta=delta, intervals=intervals)
    report = simulate_memory(spec, trials=trials, seed=seed)
    meta = dict(spec.to_dict(), trials=trials, seed=seed)
    rows = ((t, p, math.sqrt(p * (1.0 - p) / trials))  # no column is held but success_prob
            for t, p in zip(range(1, intervals + 1), map(float, report.success_prob)))
    return dict(columns=["t", "success_prob", "stderr"], rows=rows,
                note="# " + json.dumps(meta, sort_keys=True))


# ------------------------------------------------------------------- fig


# The figure datasets draw nothing at random; their --seed is checked
# as every seed is and only echoed in the CSV header.
_LABEL_SEED = _opt("--seed", int, 0, "Only labels the CSV header; the dataset does not depend on it.")


@_command("fig 2",
          _opt("--n", int, 3, "Components in the layer."),
          _opt("--xi-min", float, 0.0),
          _opt("--xi-max", float, 0.5),
          _opt("--points", int, 51),
          _LABEL_SEED, csv=True, plot=True)
def fig2(n, xi_min, xi_max, points, seed):
    """Layer bound versus per-component (Evans-Schulman) accounting."""
    rows = []
    for xi in _grid(xi_min, xi_max, points, "xi", "0.5]"):
        eta = 1.0 - (4.0 * xi - 4.0 * xi**2)
        rows.append((xi, cf.evans_schulman_raw(eta, n), 1.0 - (1.0 - eta) ** n))
    return dict(columns=["xi", "evans_schulman", "ours"], rows=rows)


@_command("fig 3",
          _opt("--xi2", float, 0.35),
          _opt("--n", int, 5),
          _opt("--xi1-min", float, 0.0),
          _opt("--xi1-max", float, VERIFIED_XI1),
          _opt("--points", int, 15),
          _LABEL_SEED, csv=True, plot=True)
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
    return dict(columns=["xi1", "eta_ind", "eta_wc_leading", "eta_wc_exact"], rows=rows)


@_command("fig 5",
          _opt("--xi-min", float, 0.01),
          _opt("--xi-max", float, 0.49),
          _opt("--points", int, 49),
          _opt("--delta", float, (0.3, 0.4), name="deltas", multiple=True),
          _opt("--layers", int, (2, 4, 6), name="layer_counts", multiple=True),
          _LABEL_SEED, csv=True, plot=True)
def fig5(xi_min, xi_max, points, deltas, layer_counts, seed):
    """Hidden-neuron lower bound as a function of the noise level."""
    grid = _grid(xi_min, xi_max, points, "xi", "0.5)")
    rows = [
        (xi, delta, depth, cf.min_neurons_lower_bound(xi, delta, depth))
        for delta in deltas
        for depth in layer_counts
        for xi in grid
    ]
    return dict(columns=["xi", "delta", "L", "n_s"], rows=rows)


@_command("fig 6",
          _opt("--n", float, 5e8, "Input count of the parity target."),
          _opt("--xi", float, 0.37),
          _opt("--delta", float, 0.4),
          _opt("--max-depth", int, 6),
          _LABEL_SEED, csv=True, plot=True)
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
    return dict(columns=["d", "omega", "ns_plus_1", "max"], rows=rows, footer=footer)


@_command("fig 8",
          _opt("--t-max", int, 100),
          _opt("--pair", _pair, ((0.3, 0.2), (0.4, 0.1)), "delta,xi series (repeatable).",
               name="pairs", multiple=True),
          _LABEL_SEED, csv=True, plot=True)
def fig8(t_max, pairs, seed):
    """Error-correction overhead lower bound versus the interval count."""
    t_max = count(t_max, "t-max")
    rows = [
        (t, delta, xi, cf.overhead_lower_bound(delta, t, xi))
        for delta, xi in pairs
        for t in range(1, t_max + 1)
    ]
    return dict(columns=["T", "delta", "xi", "n_lower"], rows=rows)


# ---------------------------------------------------------------- verify


@_command("verify",
          _opt("suite", (*VERIFY_SUITES, "all"), required=True),
          _opt("--seed", int, 0),
          _opt("--budget", int, help="Sample count for randomized suites."))
def verify(suite, seed, budget):
    """Run a verification suite; exit 0 iff every check passes."""
    import json

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
