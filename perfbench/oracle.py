"""Independent reference values and output checks.

Nothing here imports sdpi.  Every expected value is recomputed from the
paper's closed forms or by brute force with a different algorithm than
the program's, so a wrong kernel cannot agree with itself.  A check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

# Text output carries 9 significant digits; JSON carries full floats.
RTOL = 1e-8
ATOL = 1e-12
# The simulator gate: |estimate - exact| <= Z_GATE standard errors at
# every interval.  The two-sided normal tail at 6 sigma is 2e-9 per
# point; a mem-simulate run checks at most ~1300 points, so a correct
# simulator fails a run with probability below 3e-6.
Z_GATE = 6.0

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")
# A number standing alone, not part of a name such as the column ``xi1``.
VALUE = re.compile(r"(?<![\w.])(?:" + NUMBER.pattern + ")")


def fmt(x) -> str:
    """Full-precision rendering used to build expected text."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "inf" if math.isinf(x) else repr(float(x))


def close(expected: float, actual: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    if not (math.isfinite(expected) and math.isfinite(actual)):
        return expected == actual
    return abs(actual - expected) <= rtol * max(abs(expected), abs(actual)) + atol


def compare_text(expected: str, actual: str, rtol: float = RTOL, atol: float = ATOL) -> str | None:
    """Same text between the numbers, numbers equal within tolerance."""
    if NUMBER.sub("#", expected) != NUMBER.sub("#", actual):
        return f"expected {expected[:160]!r}, got {actual[:160]!r}"
    for i, (e, a) in enumerate(zip(NUMBER.findall(expected), NUMBER.findall(actual))):
        if not close(float(e), float(a), rtol, atol):
            return f"number {i}: expected {e}, got {a}"
    return None


def compare_json(expected, actual, path: str = "$") -> str | None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return f"{path}: expected keys {sorted(expected)}, got {actual!r:.160}"
        for key in expected:
            reason = compare_json(expected[key], actual[key], f"{path}.{key}")
            if reason:
                return reason
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return f"{path}: expected a list of {len(expected)}, got {actual!r:.160}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            reason = compare_json(e, a, f"{path}[{i}]")
            if reason:
                return reason
        return None
    numeric = (int, float)
    if isinstance(expected, numeric) and not isinstance(expected, bool):
        if isinstance(actual, numeric) and not isinstance(actual, bool) and close(expected, actual):
            return None
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None if expected == actual else f"{path}: expected {expected!r}, got {actual!r}"


def _nudge(x: float) -> float:
    return x * 1.01 + 0.01


def _nudge_floats(value):
    if isinstance(value, dict):
        return {k: _nudge_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nudge_floats(v) for v in value]
    return _nudge(value) if isinstance(value, float) and math.isfinite(value) else value


def corrupt(out: bytes) -> bytes:
    """Deliberately wrong output for the checker self-test: every result
    value moved by 1% (and zeros by 0.01).  Echoed parameters and counts
    stay as they are, so the value comparison is the check that must
    catch it: in JSON only the floats move, in text every number except
    those on ``#`` header lines and inside names."""
    text = out.decode()
    try:
        return json.dumps(_nudge_floats(json.loads(text))).encode()
    except ValueError:
        pass
    return "".join(line if line.startswith("#") else VALUE.sub(
        lambda m: m.group() if m.group() in ("inf", "-inf", "nan")
        else fmt(_nudge(float(m.group()))), line)
        for line in text.splitlines(keepends=True)).encode()


# ------------------------------------------------------------ checkers


def expect_text(expected: str):
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        return compare_text(expected, out.decode())
    return check


def expect_json(expected: dict):
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            actual = json.loads(out)
        except ValueError:
            return f"not JSON: {out[:160]!r}"
        return compare_json(expected, actual)
    return check


def all_of(*checks):
    def check(rc: int, out: bytes) -> str | None:
        for c in checks:
            reason = c(rc, out)
            if reason:
                return reason
        return None
    return check


# ------------------------------------------------------- closed forms


def layer_retention(xi: float, n: int) -> float:
    return (4.0 * xi - 4.0 * xi * xi) ** n


def capacity(delta: float) -> float:
    return 1.0 + delta * math.log2(delta) + (1.0 - delta) * math.log2(1.0 - delta)


def decay_bound(widths, xi: float, h_x: float) -> float:
    return h_x * math.prod(1.0 - layer_retention(xi, w) for w in widths)


def min_neurons(xi: float, delta: float, layers: int) -> float:
    a = layer_retention(xi, 1)
    ratio = capacity(delta) / (1.0 - a)
    if layers == 1:
        return 0.0 if ratio <= 1.0 else math.inf
    if ratio >= 1.0:
        return math.inf
    return (layers - 1) * math.log(1.0 - ratio ** (1.0 / (layers - 1))) / math.log(a)


def tradeoff(n: int, xi: float, delta: float, max_depth: int):
    """Per-depth (d, omega, noise, binding) rows and the best row."""
    rows = []
    for d in range(2, max_depth + 1):
        omega = (n / 2.0) ** (1.0 / (2.0 * (d - 1)))
        noise = min_neurons(xi, delta, d) + 1.0
        rows.append((d, omega, noise, "expressibility" if omega >= noise else "noise"))
    feasible = [r for r in rows if math.isfinite(max(r[1], r[2]))]
    best = min(feasible, key=lambda r: (max(r[1], r[2]), r[0]))
    return rows, best


def overhead(delta: float, intervals: int, xi: float) -> float:
    return math.log(1.0 - capacity(delta) ** (1.0 / intervals)) / math.log(layer_retention(xi, 1))


def relaxation(n: int, xi: float, delta: float) -> tuple[float, float]:
    a_n = layer_retention(xi, n)
    cap = capacity(delta)
    return math.log(cap) / math.log1p(-a_n), -math.log(cap) / a_n


def catastrophic(n: int, xi: float) -> float:
    """P[Bin(n, xi) >= ceil((n+1)/2)]: majority vote defeated (ties lose)."""
    return sum(math.comb(n, k) * xi**k * (1.0 - xi) ** (n - k) for k in range((n + 1) // 2, n + 1))


def reptime(n: int, xi: float, delta: float) -> tuple[float, float | None]:
    numer = math.log(1.0 - 2.0 * delta)
    p_c = (4.0 * xi * (1.0 - xi)) ** (n / 2.0)
    chernoff = None if p_c >= 0.5 else numer / math.log1p(-2.0 * p_c)
    return numer / math.log1p(-2.0 * catastrophic(n, xi)), chernoff


def pair_bound(rows) -> tuple[float, tuple[int, int]]:
    """1 - min over row pairs of the squared Bhattacharyya coefficient."""
    best, witness = math.inf, (0, 0)
    for k in range(len(rows)):
        for l in range(k + 1, len(rows)):
            bc = sum(math.sqrt(a * b) for a, b in zip(rows[k], rows[l]))
            if bc < best:
                best, witness = bc, (k, l)
    return 1.0 - best * best, witness


def correlated_class_sums(xi1: float, xi2: float, n: int) -> np.ndarray:
    """Bhattacharyya sum between rows at Hamming distance e, for e = 0..n,
    summed over output distance classes in log space (lgamma binomials)."""
    d = np.arange(n + 1)
    with np.errstate(divide="ignore"):  # xi1 = 0: no shared flips
        log_xi1 = np.log(xi1)
    logw = np.logaddexp(math.log1p(-xi1) + (n - d) * math.log1p(-xi2) + d * math.log(xi2),
                        log_xi1 + (n - d) * math.log(xi2) + d * math.log1p(-xi2))
    lf = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    d1, i = d[:, None], d[None, :]
    sums = np.empty(n + 1)
    for e in range(n + 1):
        d2 = e + d1 - 2 * i
        ok = (i <= e) & (i <= d1) & (d1 - i <= n - e) & (d2 >= 0) & (d2 <= n)
        j, k = np.nonzero(ok)
        logs = (lf[e] - lf[k] - lf[e - k] + lf[n - e] - lf[j - k] - lf[n - e - j + k]
                + 0.5 * (logw[j] + logw[d2[j, k]]))
        top = logs.max()
        sums[e] = math.exp(top) * np.exp(logs - top).sum()
    return sums


def correlated_leading(xi1: float, xi2: float, n: int) -> float:
    base = layer_retention(xi2, n)
    slope = 2.0 * ((4.0 * xi2**2 - 4.0 * xi2 + 2.0) ** n - base)
    return 1.0 - (base + slope * xi1)


def network_mi_bits(net: dict) -> float:
    """Exact I(input; output) in bits under a uniform input law.

    Propagates the joint table p(x, state) layer by layer: the threshold
    map is a scatter-add over columns, the noise one binary-symmetric
    butterfly per bit.  The program composes dense channel matrices
    instead.
    """
    xi, width = net["xi"], net["input_width"]
    n_x = 1 << width
    table = np.eye(n_x) / n_x
    for layer in net["layers"]:
        w = np.array([u["weights"] for u in layer["neurons"]])
        b = np.array([u["bias"] for u in layer["neurons"]])
        bits = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
        out = (bits @ w.T + b >= 0.0).astype(np.int64) @ (1 << np.arange(len(b)))
        width = len(b)
        nxt = np.zeros((n_x, 1 << width))
        np.add.at(nxt.T, out, table.T)
        for k in range(width):
            v = nxt.reshape(n_x, -1, 2, 1 << k)
            nxt = ((1.0 - xi) * v + xi * v[:, :, ::-1, :]).reshape(n_x, -1)
        table = nxt

    def h(p):
        p = p[p > 0.0]
        return float(-(p * np.log2(p)).sum())

    return h(table.sum(axis=1)) + h(table.sum(axis=0)) - h(table.ravel())


# ------------------------------------------------------ special checks


def check_simulation(n: int, xi: float, delta: float, intervals: int, trials: int, seed: int):
    """Header lines exact, stderr column consistent, and every interval's
    success estimate within Z_GATE standard errors of (1+(1-2p_e)^t)/2."""
    p_e = catastrophic(n, xi)
    header = (f"# sdpi mem simulate --n {n} --xi {fmt(xi)} --delta {fmt(delta)} "
              f"--intervals {intervals} --trials {trials} --seed {seed}\n")
    meta = {"n": n, "xi": xi, "delta": delta, "intervals": intervals, "trials": trials,
            "seed": seed}

    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        lines = out.decode().splitlines()
        if len(lines) != intervals + 3:
            return f"expected {intervals + 3} lines, got {len(lines)}"
        reason = compare_text(header, lines[0] + "\n")
        if reason:
            return reason
        try:
            got_meta = json.loads(lines[1][2:])
        except ValueError:
            return f"bad metadata line {lines[1][:160]!r}"
        reason = compare_json(meta, got_meta) or (
            None if lines[2] == "t,success_prob,stderr" else f"bad columns {lines[2]!r}")
        if reason:
            return reason
        for t, line in enumerate(lines[3:], start=1):
            fields = line.split(",")
            if len(fields) != 3 or fields[0] != str(t):
                return f"bad row {t}: {line!r}"
            p_hat, se = float(fields[1]), float(fields[2])
            exact = (1.0 + (1.0 - 2.0 * p_e) ** t) / 2.0
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            if abs(p_hat - exact) > Z_GATE * sigma + ATOL:
                return f"t={t}: success {p_hat} is {abs(p_hat - exact) / sigma:.1f} sigma from {exact:.9g}"
            if not close(math.sqrt(p_hat * (1.0 - p_hat) / trials), se, rtol=1e-6):
                return f"t={t}: stderr {se} inconsistent with success {p_hat}"
        return None

    return check


def simulation_corruptions(trials: int):
    """Two wrong simulator outputs, each caught by one check alone: every
    success estimate 0.05 low (over 6 standard errors at 1e4 trials or
    more) with its stderr recomputed to match, and the stderr column alone
    1% high."""

    def edit_rows(out: bytes, edit) -> bytes:
        lines = out.decode().splitlines(keepends=True)
        for i in range(3, len(lines)):
            t, p_hat, se = lines[i].rstrip("\n").split(",")
            lines[i] = ",".join((t, *edit(p_hat, se))) + "\n"
        return "".join(lines).encode()

    def low_success(p_hat: str, se: str):
        q = float(p_hat) - 0.05
        return fmt(q), fmt(math.sqrt(q * (1.0 - q) / trials))

    return (lambda out: edit_rows(out, low_success),
            lambda out: edit_rows(out, lambda p_hat, se: (p_hat, fmt(float(se) * 1.01))))


def check_verify(budgets: dict[str, int]):
    """Every suite passes, with no counterexamples, at its budgeted check count."""

    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            results = json.loads(out)["results"]
        except (ValueError, KeyError, TypeError):
            return f"not a verify report: {out[:160]!r}"
        if sorted(r.get("suite") for r in results) != sorted(budgets):
            return f"suites {[r.get('suite') for r in results]}, expected {sorted(budgets)}"
        for r in results:
            if r["passed"] is not True or r["failures"]:
                return f"suite {r['suite']} failed"
            if r["checks"] + r["skipped"] != budgets[r["suite"]]:
                return (f"suite {r['suite']}: {r['checks']} checks + {r['skipped']} skipped, "
                        f"budget {budgets[r['suite']]}")
        return None

    return check


def verify_corruptions():
    """Two wrong verify reports: the first suite failed with one
    counterexample, and the first suite one check short of its budget."""

    def edit_first(change):
        def corrupt(out: bytes) -> bytes:
            report = json.loads(out)
            change(report["results"][0])
            return json.dumps(report).encode()
        return corrupt

    return (edit_first(lambda r: r.update(passed=False, failures=[{"sample": 0}])),
            edit_first(lambda r: r.update(checks=r["checks"] - 1)))


def check_network_mi(net: dict, fmt_name: str):
    """Equal to the butterfly oracle, and at most both the layer-product
    decay bound and H(X)."""
    exact = network_mi_bits(net)
    h_x = float(net["input_width"])
    widths = [len(layer["neurons"]) for layer in net["layers"]]
    bound = decay_bound(widths, net["xi"], h_x)

    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        text = out.decode()
        if fmt_name == "json":
            try:
                data = json.loads(text)
                value = data["mutual_information"]
            except (ValueError, KeyError, TypeError):
                return f"not an nn mi report: {text[:160]!r}"
            if data.get("base") != "bits" or len(data) != 2:
                return f"unexpected fields {sorted(data)}"
        else:
            m = re.fullmatch(r"mutual information: (\S+) bits\n", text)
            if not m:
                return f"unexpected text {text[:160]!r}"
            value = float(m.group(1))
        if value > bound + 1e-9 or value > h_x + 1e-9:
            return f"I(X;Y) = {value} exceeds decay bound {bound} or H(X) = {h_x}"
        if not close(exact, value, rtol=1e-6, atol=1e-7):
            return f"I(X;Y) = {value}, oracle {exact}"
        return None

    return check
