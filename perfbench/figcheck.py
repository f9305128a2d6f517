"""Output checks for the ``relayarq figure`` CSV tables.

The closed forms are recomputed here from the figure presets with the
standard library alone, so a check does not trust the code it checks:

* single-user outage is the regularized lower incomplete gamma P(N, x) at
  x = N noise gamma / (P var_direct);
* interference outage is Pr{X - Y < c} for X ~ Gamma(N, 1/var_direct) and
  Y ~ Gamma(N, 1/(gamma var_cross)), c = N noise gamma / P, expanded into a
  finite sum by writing E_Y[Pr{X >= c + Y}] out binomially.

Monte Carlo rows are checked for range, for a failure count that is a whole
number of messages, and for ``ci = 3 sqrt(p (1 - p) / n)``. Figure 1's
Monte Carlo column must also agree with the analytic column: an exact
two-sided binomial test per point, Bonferroni-corrected over the 36 points
to a family level of FIG1_FAMILY_ALPHA, so that a correct program fails it
in about one run in 10^4 at any trial count (a normal band is far too
narrow in the upper tail when few failures are expected). A failed check
is reported as it stands; nothing is re-run.
"""

import csv
import io
import math

# figure presets (src/relayarq/simulate.py), restated as the checks' spec
FIG1_SNR_DB = tuple(range(0, 41, 5))
FIG1_ATTEMPTS = (1, 2, 3, 10)
FIG1_BASE = dict(N=3, noise=1e-3, var_direct=2.0, var_cross=1.0, rate=2.0)
FIG2_RATES = (2, 3, 4, 5, 6, 7, 8)
FIG2_SNR_DB = 40.0
FIG3_M = (2, 3, 4, 5, 6)
FIG3_SNR_DB = 20.0
FIG23_BASE = dict(N=3, noise=1.0, var_direct=2.0, var_cross=1.0, rate=6.0)

COLUMNS = {
    "1": ["SNR_dB", "L", "analytic", "mc", "ci"],
    "2": ["R", "series", "p", "ci"],
    "3": ["M", "series", "p", "ci"],
}

CLOSED_FORM_RTOL = 1e-9
CI_RTOL = 1e-9
FIG1_FAMILY_ALPHA = 1e-4
FIG1_COMPARISONS = len(FIG1_SNR_DB) * len(FIG1_ATTEMPTS)


def gammainc_lower(n: int, x: float) -> float:
    """Regularized lower incomplete gamma P(n, x) for integer n >= 1."""
    if x <= 0.0:
        return 0.0
    if x < n + 1.0:
        # P = x^n e^-x / n! * sum_j x^j n! / (n + j)!, no cancellation
        term = total = 1.0
        j = 0
        while term > 1e-17 * total:
            j += 1
            term *= x / (n + j)
            total += term
        return math.exp(n * math.log(x) - x - math.lgamma(n + 1)) * total
    upper = math.exp(-x) * sum(x ** k / math.factorial(k) for k in range(n))
    return 1.0 - upper


def outage_single_user(n: int, noise: float, p: float, var_direct: float,
                       rate: float) -> float:
    gamma = 2.0 ** rate - 1.0
    return gammainc_lower(n, n * noise * gamma / (p * var_direct))


def outage_interference(n: int, noise: float, p: float, var_direct: float,
                        var_cross: float, rate: float) -> float:
    """Pr{X - Y < c}, X ~ Gamma(n, lam), Y ~ Gamma(n, mu), c >= 0."""
    gamma = 2.0 ** rate - 1.0
    lam = 1.0 / var_direct
    mu = 1.0 / (gamma * var_cross)
    c = n * noise * gamma / p
    # E[Y^j e^{-lam Y}] = mu^n (n + j - 1)! / ((n - 1)! (lam + mu)^(n + j))
    moment = [mu ** n * math.factorial(n + j - 1)
              / (math.factorial(n - 1) * (lam + mu) ** (n + j))
              for j in range(n)]
    survive = 0.0
    for k in range(n):
        inner = sum(math.comb(k, j) * c ** (k - j) * moment[j]
                    for j in range(k + 1))
        survive += lam ** k / math.factorial(k) * inner
    return 1.0 - math.exp(-lam * c) * survive


def _power(noise: float, snr_db: float) -> float:
    return noise * 10.0 ** (snr_db / 10.0)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """2 min(Pr{X <= k}, Pr{X >= k}) for X ~ Binomial(n, p), capped at 1."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(i):
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                        - math.lgamma(n - i + 1) + i * log_p
                        + (n - i) * log_q)

    lower = sum(pmf(i) for i in range(0, k + 1))
    upper = sum(pmf(i) for i in range(k, n + 1))
    return min(1.0, 2.0 * min(lower, upper))


def expected_keys(which: str):
    if which == "1":
        return [(float(s), str(a)) for s in FIG1_SNR_DB for a in FIG1_ATTEMPTS]
    if which == "2":
        return [(float(r), s) for r in FIG2_RATES
                for s in ("single-user", "direct-arq", "relay-arq")]
    return [(float(m), s) for m in FIG3_M for s in ("single-user", "relay-arq")]


def _check_mc(where, p, ci, n, problems):
    if not 0.0 <= p <= 1.0:
        problems.append(f"{where}: p={p!r} outside [0, 1]")
        return
    if n <= 0:
        problems.append(f"{where}: no messages counted")
        return
    failures = p * n
    if abs(failures - round(failures)) > 1e-6:
        problems.append(f"{where}: p*n={failures!r} is not a whole count")
    want = 3.0 * math.sqrt(p * (1.0 - p) / n)
    if not _close(ci, want, CI_RTOL):
        problems.append(f"{where}: ci={ci!r}, expected {want!r} for n={n}")


def check_figure(which: str, text: str, trials: int, aborted_by_point):
    """Problems found in one figure CSV; an empty list means it passed.

    ``aborted_by_point`` lists the aborted relay trials of each relay grid
    point in order; a relay row's message count is 2 (trials - aborted).
    """
    problems = []
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != COLUMNS[which]:
        return [f"fig{which}: header {rows[0] if rows else None!r}, "
                f"expected {COLUMNS[which]!r}"]
    body = rows[1:]
    keys = expected_keys(which)
    if len(body) != len(keys):
        return [f"fig{which}: {len(body)} rows, expected {len(keys)}"]
    try:
        values = [[r[0], r[1]] + [float(x) for x in r[2:]] for r in body]
    except ValueError as e:
        return [f"fig{which}: non-numeric value ({e})"]
    for r, key in zip(values, keys):
        if (float(r[0]), r[1]) != key:
            problems.append(f"fig{which}: row {r[:2]} out of place, "
                            f"expected {key}")
    if problems:
        return problems

    n_direct = 2 * trials
    if which == "1":
        alpha = FIG1_FAMILY_ALPHA / FIG1_COMPARISONS
        for snr, attempts, analytic, mc, ci in values:
            where = f"fig1 SNR={snr} L={attempts}"
            cfg = FIG1_BASE
            p_one = outage_interference(cfg["N"], cfg["noise"],
                                        _power(cfg["noise"], float(snr)),
                                        cfg["var_direct"], cfg["var_cross"],
                                        cfg["rate"])
            want = p_one ** int(attempts)
            if not _close(analytic, want, CLOSED_FORM_RTOL):
                problems.append(f"{where}: analytic={analytic!r}, "
                                f"closed form {want!r}")
            _check_mc(where, mc, ci, n_direct, problems)
            k = round(mc * n_direct)
            p_value = binomial_two_sided_p(k, n_direct, want)
            if p_value < alpha:
                problems.append(f"{where}: {k} of {n_direct} messages lost "
                                f"against analytic {want:.6g}, binomial "
                                f"p={p_value:.3g} < {alpha:.3g}")
        return problems

    relay_point = 0
    for x, series, p, ci in values:
        where = f"fig{which} {COLUMNS[which][0]}={x} {series}"
        if series == "single-user":
            cfg = dict(FIG23_BASE)
            if which == "2":
                cfg["rate"], snr = float(x), FIG2_SNR_DB
            else:
                snr = FIG3_SNR_DB
            want = outage_single_user(cfg["N"], cfg["noise"],
                                      _power(cfg["noise"], snr),
                                      cfg["var_direct"], cfg["rate"]) ** 2
            if not _close(p, want, CLOSED_FORM_RTOL):
                problems.append(f"{where}: p={p!r}, closed form {want!r}")
            if ci != 0.0:
                problems.append(f"{where}: ci={ci!r}, expected 0")
        elif series == "direct-arq":
            _check_mc(where, p, ci, n_direct, problems)
        else:
            if relay_point >= len(aborted_by_point):
                problems.append(f"{where}: no relay trial count recorded")
                continue
            kept = trials - aborted_by_point[relay_point]
            relay_point += 1
            _check_mc(where, p, ci, 2 * kept, problems)
    return problems
