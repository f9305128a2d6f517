"""Command-line front end: seeded runs, sweeps, CSV emission.

Subcommands:

  analytic          closed-form outage curves over an SNR grid
  simulate-direct   Monte Carlo direct-ARQ outage
  simulate-relay    Monte Carlo relay-ARQ outage (pooled and per user)
  beamform-single   one zero-forcing relay design on a seeded random draw
  beamform-multi    one max-min SINR relay design on a seeded random draw
  figure <1|2|3>    the three preset experiment tables

Every command writes a CSV (header row, one data row per point) to the
``-o`` path or standard output; progress goes to standard error only.
Floats are printed with 17 significant digits, so equal runs produce
byte-identical files. A flat ``key = value`` config file can hold any
run parameter; command-line flags override it. Exit codes: 0 success,
2 usage, config, or computation error, 3 solver-failure budget exceeded
(more than 0.1% of trials aborted).
"""

import argparse
import sys

import numpy as np

from .channel import CTX_GENERIC, SystemConfig, substream
from .errors import RelayArqError
from .outage import arq_outage, outage_interference_n3, outage_single_user
from .relay_multi import max_min_sinr
from .relay_single import optimal_gain, solve_single_user_beamformer
from .simulate import run_experiment, simulate_direct, simulate_relay

ABORT_BUDGET = 1e-3

# every key a config file may set; flags use the same names
CONFIG_KEYS = ("seed", "trials", "threads", "n", "m", "rate", "retx",
               "noise_var", "var_direct", "var_cross", "var_relay",
               "snr_db", "preset", "output")

_DEFAULTS = dict(seed=0, trials=10000, threads=1, n=3, m=3, rate=2.0,
                 retx=2, noise_var=1.0, var_direct=2.0, var_cross=1.0,
                 var_relay=4.0, snr_db="10", preset=None, output=None)

_INT_KEYS = {"seed", "trials", "threads", "n", "m", "retx"}
_FLOAT_KEYS = {"rate", "noise_var", "var_direct", "var_cross", "var_relay"}


class ConfigError(Exception):
    pass


def _coerce(key: str, text: str):
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {text!r}")
    return text


def _load_config(path: str) -> dict:
    out = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = _coerce(key, val.strip())
    return out


def _parse_snr_grid(text: str):
    """'a:b:step' inclusive grid, or a single number."""
    parts = str(text).split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            a, b, step = (float(x) for x in parts)
            if step <= 0 or b < a:
                raise ValueError
            n = int(round((b - a) / step))
            grid = [a + k * step for k in range(n + 1)]
            return [x for x in grid if x <= b + 1e-9]
    except ValueError:
        pass
    raise ConfigError(f"bad SNR grid {text!r}; expected X or A:B:STEP")


def _effective_params(args) -> dict:
    params = dict(_DEFAULTS)
    if args.config:
        params.update(_load_config(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            params[key] = flag
    if params["trials"] < 100:
        raise ConfigError("trials must be at least 100")
    if params["threads"] < 1:
        raise ConfigError("threads must be at least 1")
    return params


def _build_cfg(params: dict, snr_db: float) -> SystemConfig:
    p = params["noise_var"] * 10.0 ** (snr_db / 10.0)
    return SystemConfig(N=params["n"], M=params["m"], P=p,
                        noise_var=params["noise_var"],
                        var_direct=params["var_direct"],
                        var_cross=params["var_cross"],
                        var_relay=params["var_relay"],
                        rate=params["rate"], retx=params["retx"])


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _write_csv(path, columns, rows):
    lines = [",".join(columns)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_config(path, params):
    keys = [k for k in CONFIG_KEYS if params.get(k) is not None]
    text = "".join(f"{k} = {params[k]}\n" for k in keys)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analytic(params):
    rows = []
    for snr in _parse_snr_grid(params["snr_db"]):
        cfg = _build_cfg(params, snr)
        p_su = outage_single_user(cfg)
        p_int = outage_interference_n3(cfg)
        rows.append((snr, p_su, p_int, arq_outage(p_su, cfg.retx),
                     arq_outage(p_int, cfg.retx)))
    return ("SNR_dB", "single_user", "interference", "single_user_arq",
            "interference_arq"), rows, 0


def _cmd_simulate_direct(params):
    rows = []
    grid = _parse_snr_grid(params["snr_db"])
    for i, snr in enumerate(grid):
        cfg = _build_cfg(params, snr)
        est = simulate_direct(cfg, params["trials"], params["seed"],
                              params["threads"])
        rows.append((snr, est.p_hat, est.ci_halfwidth, est.trials,
                     est.failures))
        _progress(f"simulate-direct {i + 1}/{len(grid)} SNR={snr} dB")
    return ("SNR_dB", "p", "ci", "messages", "failures"), rows, 0


def _cmd_simulate_relay(params):
    rows = []
    grid = _parse_snr_grid(params["snr_db"])
    aborted = 0
    for i, snr in enumerate(grid):
        cfg = _build_cfg(params, snr)
        est = simulate_relay(cfg, params["trials"], params["seed"],
                             params["threads"])
        aborted += est.aborted
        rows.append((snr, est.pooled.p_hat, est.pooled.ci_halfwidth,
                     est.user1.p_hat, est.user1.ci_halfwidth,
                     est.user2.p_hat, est.user2.ci_halfwidth, est.aborted))
        _progress(f"simulate-relay {i + 1}/{len(grid)} SNR={snr} dB")
    code = 3 if aborted > ABORT_BUDGET * params["trials"] * len(grid) else 0
    if code:
        _progress(f"solver aborted {aborted} trials (budget exceeded)")
    return ("SNR_dB", "pooled_p", "pooled_ci", "user1_p", "user1_ci",
            "user2_p", "user2_ci", "aborted"), rows, code


def _draw_channel_pair(params):
    """Two relay channels from the run's seed, first one drawn first."""
    rng = substream(params["seed"], CTX_GENERIC, 0)
    scale = np.sqrt(params["var_relay"] / 2.0)
    m = params["m"]
    return tuple(scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
                 for _ in range(2))


def _cmd_beamform_single(params):
    g_p, g_t = _draw_channel_pair(params)
    snr = _parse_snr_grid(params["snr_db"])[0]
    cfg = _build_cfg(params, snr)
    bf = solve_single_user_beamformer(g_p, g_t, cfg.Pr_single)
    gain = float(np.linalg.norm(bf.matrix.conj().T @ g_t) ** 2)
    rows = [(params["m"], gain, optimal_gain(g_p, g_t, cfg.Pr_single),
             bf.null_residual, bf.power)]
    return ("m", "gain", "predicted_gain", "null_residual", "power"), rows, 0


def _cmd_beamform_multi(params):
    g1, g2 = _draw_channel_pair(params)
    snr = _parse_snr_grid(params["snr_db"])[0]
    cfg = _build_cfg(params, snr)
    sol = max_min_sinr(g1, g2, cfg.Pr_multi, noise_var=cfg.noise_var)
    # b b^H has rank 1 for a nonzero beam and 0 for the zero beam
    ranks = [int(b.any()) for b in (sol.b1, sol.b2)]
    power = float(np.vdot(sol.b1, sol.b1).real + np.vdot(sol.b2, sol.b2).real)
    rows = [(params["m"], sol.t_star, sol.sinr1, sol.sinr2,
             ranks[0], ranks[1], power)]
    return ("m", "t_star", "sinr1", "sinr2", "rank1", "rank2",
            "power"), rows, 0


def _cmd_figure(params, which):
    preset = f"fig{which}"
    table = run_experiment(preset, trials=params["trials"],
                           seed=params["seed"], threads=params["threads"],
                           progress=_progress)
    return table.columns, table.rows, 0


# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--config", default=None)
    sp.add_argument("-o", dest="output", default=None)
    sp.add_argument("--dump-config", dest="dump_config", default=None,
                    metavar="PATH")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--rate", type=float, default=None)
    sp.add_argument("--retx", type=int, default=None)
    sp.add_argument("--snr-db", dest="snr_db", default=None,
                    metavar="X|A:B:STEP")
    sp.add_argument("--noise-var", dest="noise_var", type=float, default=None)
    sp.add_argument("--var-direct", dest="var_direct", type=float, default=None)
    sp.add_argument("--var-cross", dest="var_cross", type=float, default=None)
    sp.add_argument("--var-relay", dest="var_relay", type=float, default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relayarq",
        description="Outage analytics and relay beamforming experiments.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("analytic", "simulate-direct", "simulate-relay",
                 "beamform-single", "beamform-multi"):
        _add_common(subs.add_parser(name))
    fig = subs.add_parser("figure")
    fig.add_argument("which", choices=("1", "2", "3"))
    _add_common(fig)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        params = _effective_params(args)
        if args.command == "figure":
            params["preset"] = f"fig{args.which}"
        if params.get("output") is not None:
            params["output"] = str(params["output"])
        if args.dump_config:
            _dump_config(args.dump_config, params)
        if args.command == "analytic":
            columns, rows, code = _cmd_analytic(params)
        elif args.command == "simulate-direct":
            columns, rows, code = _cmd_simulate_direct(params)
        elif args.command == "simulate-relay":
            columns, rows, code = _cmd_simulate_relay(params)
        elif args.command == "beamform-single":
            columns, rows, code = _cmd_beamform_single(params)
        elif args.command == "beamform-multi":
            columns, rows, code = _cmd_beamform_multi(params)
        else:
            columns, rows, code = _cmd_figure(params, args.which)
    except ConfigError as e:
        print(f"relayarq: {e}", file=sys.stderr)
        return 2
    except RelayArqError as e:
        print(f"relayarq: {e}", file=sys.stderr)
        return 2
    _write_csv(params.get("output"), columns, rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
