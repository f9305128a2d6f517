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
run parameter in ``PARAMS``; command-line flags override it. ``-o`` and
``--dump-config`` must name a file in an existing directory, which is
checked before any work. Exit codes: 0 success, 2 usage, config, output or
computation error.
"""

import argparse
import os
import sys

import numpy as np

from .channel import CTX_GENERIC, SystemConfig, cn, substream
from .errors import RelayArqError
from .outage import arq_outage, outage_interference_n3, outage_single_user
from .relay_multi import max_min_sinr
from .relay_single import optimal_gain, solve_single_user_beamformer
from .simulate import run_experiment, simulate_direct, simulate_relay

# n and m above this would draw multi-GB channel blocks; it is also the
# largest order the outage law is tested at
MAX_ANTENNAS = 5000

# every run parameter: (type, default). A config file sets it by its key,
# the command line by the key with dashes (``noise_var`` is
# ``--noise-var``), except that ``output`` is ``-o``.
PARAMS = {
    "seed": (int, 0), "trials": (int, 10000), "threads": (int, 1),
    "n": (int, 3), "m": (int, 3), "rate": (float, 2.0), "retx": (int, 2),
    "noise_var": (float, 1.0), "var_direct": (float, 2.0),
    "var_cross": (float, 1.0), "var_relay": (float, 4.0),
    "snr_db": (str, "10"), "output": (str, None),
}


class ConfigError(RelayArqError):
    """A run parameter or config file is malformed or out of range."""


def _coerce(key: str, text: str):
    try:
        return PARAMS[key][0](text)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {text!r}")


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
        if key not in PARAMS:
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
    params = {key: default for key, (_, default) in PARAMS.items()}
    if args.config:
        params.update(_load_config(args.config))
    for key in PARAMS:
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if params["trials"] < 100:
        raise ConfigError("trials must be at least 100")
    if params["threads"] < 1:
        raise ConfigError("threads must be at least 1")
    if max(params["n"], params["m"]) > MAX_ANTENNAS:
        raise ConfigError(f"n and m must be at most {MAX_ANTENNAS}")
    return params


def _build_cfg(params: dict, snr_db: float) -> SystemConfig:
    return SystemConfig.at_snr(snr_db, N=params["n"], M=params["m"],
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


def _check_dir(path):
    """Fail before any work when path names no file in an existing directory."""
    if path and (os.path.isdir(path)
                 or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError(f"cannot write {path}: not a file in an existing "
                          "directory")


def _write(path, text):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}")


def _csv_text(columns, rows):
    lines = [",".join(columns)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _config_text(params):
    return "".join(f"{k} = {v}\n" for k, v in params.items() if v is not None)


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analytic(params, args):
    rows = []
    for snr in _parse_snr_grid(params["snr_db"]):
        cfg = _build_cfg(params, snr)
        p_su = outage_single_user(cfg)
        p_int = outage_interference_n3(cfg)
        rows.append((snr, p_su, p_int, arq_outage(p_su, cfg.retx),
                     arq_outage(p_int, cfg.retx)))
    return ("SNR_dB", "single_user", "interference", "single_user_arq",
            "interference_arq"), rows


def _cmd_simulate_direct(params, args):
    rows = []
    grid = _parse_snr_grid(params["snr_db"])
    for i, snr in enumerate(grid):
        cfg = _build_cfg(params, snr)
        est = simulate_direct(cfg, params["trials"], params["seed"],
                              params["threads"])
        rows.append((snr, est.p_hat, est.ci_halfwidth, est.trials,
                     est.failures))
        _progress(f"simulate-direct {i + 1}/{len(grid)} SNR={snr} dB")
    return ("SNR_dB", "p", "ci", "messages", "failures"), rows


def _cmd_simulate_relay(params, args):
    rows = []
    grid = _parse_snr_grid(params["snr_db"])
    for i, snr in enumerate(grid):
        cfg = _build_cfg(params, snr)
        est = simulate_relay(cfg, params["trials"], params["seed"],
                             params["threads"])
        rows.append((snr, est.pooled.p_hat, est.pooled.ci_halfwidth,
                     est.user1.p_hat, est.user1.ci_halfwidth,
                     est.user2.p_hat, est.user2.ci_halfwidth))
        _progress(f"simulate-relay {i + 1}/{len(grid)} SNR={snr} dB")
    return ("SNR_dB", "pooled_p", "pooled_ci", "user1_p", "user1_ci",
            "user2_p", "user2_ci"), rows


def _beamform_setup(params):
    """The run's config at its one SNR, and two relay channels drawn from
    its seed, first one drawn first."""
    grid = _parse_snr_grid(params["snr_db"])
    if len(grid) > 1:
        raise ConfigError("beamform commands take one SNR")
    cfg = _build_cfg(params, grid[0])      # validates before any draw
    rng = substream(params["seed"], CTX_GENERIC, 0)
    return cfg, tuple(cn(rng, cfg.M, cfg.var_relay) for _ in range(2))


def _cmd_beamform_single(params, args):
    cfg, (g_p, g_t) = _beamform_setup(params)
    b = solve_single_user_beamformer(g_p, g_t, cfg.Pr_single)
    rows = [(params["m"], abs(np.vdot(b, g_t)) ** 2,
             optimal_gain(g_p, g_t, cfg.Pr_single),
             abs(np.vdot(b, g_p)), np.vdot(b, b).real)]
    return ("m", "gain", "predicted_gain", "null_residual", "power"), rows


def _cmd_beamform_multi(params, args):
    cfg, (g1, g2) = _beamform_setup(params)
    sol = max_min_sinr(g1, g2, cfg.Pr_multi, noise_var=cfg.noise_var)
    # b b^H has rank 1 for a nonzero beam and 0 for the zero beam
    ranks = [int(b.any()) for b in (sol.b1, sol.b2)]
    power = float(np.vdot(sol.b1, sol.b1).real + np.vdot(sol.b2, sol.b2).real)
    rows = [(params["m"], sol.t_star, sol.sinr1, sol.sinr2,
             ranks[0], ranks[1], power)]
    return ("m", "t_star", "sinr1", "sinr2", "rank1", "rank2",
            "power"), rows


def _cmd_figure(params, args):
    return run_experiment(f"fig{args.which}", trials=params["trials"],
                          seed=params["seed"], threads=params["threads"],
                          progress=_progress)


# subcommand name -> handler(params, args) returning (columns, rows)
COMMANDS = {
    "analytic": _cmd_analytic,
    "simulate-direct": _cmd_simulate_direct,
    "simulate-relay": _cmd_simulate_relay,
    "beamform-single": _cmd_beamform_single,
    "beamform-multi": _cmd_beamform_multi,
    "figure": _cmd_figure,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relayarq",
        description="Outage analytics and relay beamforming experiments.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = subs.add_parser(name)
        if name == "figure":
            sp.add_argument("which", choices=("1", "2", "3"))
        sp.add_argument("--config")
        sp.add_argument("--dump-config", metavar="PATH")
        for key, (typ, _) in PARAMS.items():
            flag = "-o" if key == "output" else "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, type=typ)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        params = _effective_params(args)
        _check_dir(params["output"])
        _check_dir(args.dump_config)
        if args.dump_config:
            _write(args.dump_config, _config_text(params))
        columns, rows = COMMANDS[args.command](params, args)
        _write(params["output"], _csv_text(columns, rows))
    except RelayArqError as e:
        print(f"relayarq: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
