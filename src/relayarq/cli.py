"""Command-line front end: seeded runs, sweeps, CSV emission.

Usage::

    relayarq COMMAND [1|2|3] [--FLAG VALUE | --FLAG=VALUE | -o PATH]...

``relayarq --help`` lists the commands (``analytic``, ``simulate-direct``,
``simulate-relay``, ``beamform-single``, ``beamform-multi`` and
``figure 1|2|3``) and every flag with its default. Every command takes
the same flags, one for each run parameter in ``PARAMS`` plus
``--config`` and ``--dump-config``, and ``main`` reads them off that
table itself:

* positionals and flags come in any order, so ``figure 2 --trials 100``
  and ``figure --trials 100 2`` are the same run; the figure index goes
  with ``figure`` and with no other command, and ``--`` ends the flags;
* a flag's value is always the next token, or follows ``=`` in the same
  token (``-oPATH`` for ``-o``), so ``--snr-db -5:5:5`` takes its value
  even though it starts with a dash;
* a unique prefix names a flag (``--tri 100``); an ambiguous prefix or an
  unknown flag is a usage error;
* a repeated flag keeps its last value;
* values are coerced by ``_coerce``, as config-file values are.

A command checks every flag but reads only those its run depends on, so
the rest leave its table unchanged:

* ``figure`` runs the paper's preset systems and reads only
  ``--trials``, ``--seed`` and ``-o``;
* ``analytic`` and ``simulate-direct`` have no relay, so they ignore
  ``--m`` and ``--var-relay``, and ``analytic`` draws nothing, so it
  ignores ``--trials`` and ``--seed`` too;
* ``simulate-relay`` is one direct round plus one relay round, so
  ``--retx`` does not apply;
* ``beamform-single`` and ``beamform-multi`` design for one draw of the
  relay channels, so they ignore ``--n``, ``--rate``, ``--retx``,
  ``--trials``, ``--var-direct`` and ``--var-cross``.

Every usage error exits 2 with a message on standard error that starts
with the usage line, and prints nothing to standard output.

Every command writes a CSV (header row, one data row per point) to the
``-o`` path or standard output; progress goes to standard error only.
Floats are printed with 17 significant digits, so equal runs produce
byte-identical files. A flat ``key = value`` config file can hold any
run parameter in ``PARAMS``; command-line flags override it, and
``--dump-config`` writes one that reruns the same run (``_load_config``
says what is a comment). ``-o`` and ``--dump-config`` must name a file
in an existing directory, and ``-o`` neither the ``--config`` nor the
``--dump-config`` file; with ``--dump-config``, ``-o`` must be a path a
config line holds: one line of UTF-8 with no blank at either end. All
of that is checked before any work. So are the ceilings: ``--n``/``--m``
at most MAX_ANTENNAS, ``--retx`` at most MAX_ATTEMPTS, ``--trials`` at
most MAX_TRIALS (each engine holds one memo and frees it before drawing
the next, so the memos stay under 1 GiB), an SNR grid of at most
MAX_GRID_POINTS points, counted before it is built, and the one SNR a
beamform command takes. The ``--dump-config`` file is written only
once the run has succeeded. ``--threads`` (at least 1) is accepted so
that older command lines and config files still run, and has no effect:
the engine draws every run on the calling thread. Exit codes: 0 success,
2 usage, config, output or computation error.
"""

import os
import sys

import numpy as np

from .channel import CTX_GENERIC, SystemConfig, cn, substream
from .errors import RelayArqError
from .outage import arq_outage, outage_interference_n3, outage_single_user
from .relay_multi import max_min_sinr
from .relay_single import optimal_gain, solve_single_user_beamformer
from .simulate import (MAX_TRIALS, run_experiment, simulate_direct,
                       simulate_relay)

# the largest order the outage law is tested at, whose sum holds O(n)
# extended-precision terms per call; m shares the bound, though no Monte
# Carlo draw grows with n or m
MAX_ANTENNAS = 5000
# a direct-ARQ point draws one round per trial and attempt, each attempt
# from its own substream; this bounds it at 1000 rounds a trial and 1000
# substreams a point
MAX_ATTEMPTS = 1000
# every point keeps one CSV row in memory until the run ends
MAX_GRID_POINTS = 100_000

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


USAGE = "usage: relayarq [-h] COMMAND [1|2|3] [--FLAG VALUE]..."


class ConfigError(RelayArqError):
    """A command line, run parameter or config file is malformed or out of
    range."""


def _flag(key: str) -> str:
    return "-o" if key == "output" else "--" + key.replace("_", "-")


def _coerce(key: str, text: str):
    try:
        return PARAMS[key][0](text)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {text!r}")


def _load_config(path: str) -> dict:
    """Run parameters from a ``key = value`` file, as ``_config_text``
    writes them. A line whose first non-blank character is ``#`` is a
    comment; so is the rest of a line from a ``#`` on, except in
    ``output``, whose value is a path and runs to the end of its line."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file: {e}")
    for ln, raw in enumerate(lines, 1):
        key, eq, val = map(str.strip, raw.partition("="))
        if key.startswith("#") or not (key or eq):
            continue
        if not eq:
            raise ConfigError(f"{path}:{ln}: expected key = value")
        if key not in PARAMS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        value = val if key == "output" else val.split("#", 1)[0].strip()
        out[key] = _coerce(key, value)
    return out


def _parse_snr_grid(text: str):
    """'a:b:step' inclusive grid, or a single number; at most
    MAX_GRID_POINTS points, counted before the grid is built."""
    parts = str(text).split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            a, b, step = (float(x) for x in parts)
            if step <= 0 or b < a:
                raise ValueError
            n = int(round((b - a) / step))
            if n >= MAX_GRID_POINTS:
                raise ConfigError(f"SNR grid {text!r} has more than "
                                  f"{MAX_GRID_POINTS} points")
            grid = [a + k * step for k in range(n + 1)]
            return [x for x in grid if x <= b + 1e-9]
    except (ValueError, OverflowError):     # round(inf) overflows
        pass
    raise ConfigError(f"bad SNR grid {text!r}; expected X or A:B:STEP")


def _parse_argv(argv):
    """``(command, figure index or None, {key: value})`` of a command line,
    or None when it asks for help; raises ConfigError where it does not
    parse. The keys are those of PARAMS plus ``config`` and
    ``dump_config``."""
    flags = {_flag(key): key for key in PARAMS}
    flags.update({"--config": "config", "--dump-config": "dump_config",
                  "--help": "help"})
    positional, given = [], {}
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            positional += tokens
            break
        if tok == "-h":
            return None
        if tok[:1] != "-" or tok == "-":
            positional.append(tok)
            continue
        if tok[:2] == "-o":
            name, value = "-o", tok[2:].removeprefix("=") if tok[2:] else None
        elif tok[:2] == "--":
            name, eq, value = tok.partition("=")
            hits = [name] if name in flags else [
                f for f in flags if f.startswith(name)]
            if len(hits) > 1:
                raise ConfigError(f"ambiguous option: {name} could match "
                                  + ", ".join(hits))
            if not hits:
                raise ConfigError(f"unrecognized argument: {tok}")
            name, value = hits[0], value if eq else None
        else:
            raise ConfigError(f"unrecognized argument: {tok}")
        key = flags[name]
        if key == "help":
            return None
        if value is None:
            value = next(tokens, None)
            if value is None:
                raise ConfigError(f"argument {name}: expected one argument")
        given[key] = _coerce(key, value) if key in PARAMS else value
    if not positional:
        raise ConfigError("a command is required")
    command, *rest = positional
    if command not in COMMANDS:
        raise ConfigError(f"invalid command {command!r}; choose from "
                          + ", ".join(COMMANDS))
    which = rest.pop(0) if rest else None
    if rest:
        raise ConfigError("unrecognized argument: " + " ".join(rest))
    if which not in (("1", "2", "3") if command == "figure" else (None,)):
        raise ConfigError("a figure index 1, 2 or 3 goes with figure, and "
                          "only with figure")
    return command, which, given


def _help_text() -> str:
    lines = [USAGE, "", "Outage analytics and relay beamforming experiments.",
             "", "commands:"]
    lines += [f"  {name:<18}{fn.__doc__}" for name, fn in COMMANDS.items()]
    lines += ["", "flags (or a unique prefix; the value is the next token, or "
              "follows '='):",
              f"  {'-h, --help':<26}show this help and exit",
              f"  {'--config CONFIG':<26}read run parameters from a "
              "key = value file",
              f"  {'--dump-config PATH':<26}write the run's parameters there "
              "once it succeeds"]
    for key, (_, default) in PARAMS.items():
        shown = "standard output" if default is None else default
        lines.append(f"  {_flag(key) + ' ' + key.upper():<26}default: {shown}")
    return "\n".join(lines) + "\n"


def _effective_params(command: str, given: dict):
    """The run's parameters and its parsed SNR grid, checked before
    anything is drawn or written: every ceiling, and the -o and
    --dump-config paths. Each must name a file in an existing directory;
    -o may not name a config file, and with a dump it must be a path the
    dumped file can hold."""
    params = {key: default for key, (_, default) in PARAMS.items()}
    if given.get("config"):
        params.update(_load_config(given["config"]))
    params.update((key, v) for key, v in given.items() if key in PARAMS)
    if params["trials"] < 100:
        raise ConfigError("trials must be at least 100")
    if params["trials"] > MAX_TRIALS:
        raise ConfigError(f"trials must be at most {MAX_TRIALS}")
    if params["threads"] < 1:
        raise ConfigError("threads must be at least 1")
    if max(params["n"], params["m"]) > MAX_ANTENNAS:
        raise ConfigError(f"n and m must be at most {MAX_ANTENNAS}")
    if params["retx"] > MAX_ATTEMPTS:
        raise ConfigError(f"retx must be at most {MAX_ATTEMPTS}")
    grid = _parse_snr_grid(params["snr_db"])
    if command.startswith("beamform") and len(grid) > 1:
        raise ConfigError("beamform commands take one SNR")
    output, dump = params["output"], given.get("dump_config")
    for path in (output, dump):
        if path and (os.path.isdir(path)
                     or not os.path.isdir(os.path.dirname(path) or ".")):
            raise ConfigError(f"cannot write {path}: not a file in an "
                              "existing directory")
    configs = [os.path.realpath(p) for p in (given.get("config"), dump) if p]
    if output and os.path.realpath(output) in configs:
        raise ConfigError(f"cannot write {output}: it is a config file")
    # _load_config reads a value back as one stripped line of UTF-8
    line = (output or "").encode("utf-8", "replace").decode("utf-8")
    if output and dump and line.splitlines() != [output.strip()]:
        raise ConfigError(f"--dump-config cannot record -o {output!r}")
    return params, grid


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

def _cmd_analytic(params, grid, which):
    """closed-form outage curves over an SNR grid"""
    rows = []
    for snr in grid:
        cfg = _build_cfg(params, snr)
        p_su = outage_single_user(cfg)
        p_int = outage_interference_n3(cfg)
        rows.append((snr, p_su, p_int, arq_outage(p_su, cfg.retx),
                     arq_outage(p_int, cfg.retx)))
    return ("SNR_dB", "single_user", "interference", "single_user_arq",
            "interference_arq"), rows


def _cmd_simulate_direct(params, grid, which):
    """Monte Carlo direct-ARQ outage over an SNR grid"""
    rows = []
    for i, snr in enumerate(grid):
        cfg = _build_cfg(params, snr)
        est = simulate_direct(cfg, params["trials"], params["seed"])
        rows.append((snr, est.p_hat, est.ci_halfwidth, est.trials,
                     est.failures))
        _progress(f"simulate-direct {i + 1}/{len(grid)} SNR={snr} dB")
    return ("SNR_dB", "p", "ci", "messages", "failures"), rows


def _cmd_simulate_relay(params, grid, which):
    """Monte Carlo relay-ARQ outage, pooled and per user"""
    rows = []
    for i, snr in enumerate(grid):
        cfg = _build_cfg(params, snr)
        est = simulate_relay(cfg, params["trials"], params["seed"])
        rows.append((snr, est.pooled.p_hat, est.pooled.ci_halfwidth,
                     est.user1.p_hat, est.user1.ci_halfwidth,
                     est.user2.p_hat, est.user2.ci_halfwidth))
        _progress(f"simulate-relay {i + 1}/{len(grid)} SNR={snr} dB")
    return ("SNR_dB", "pooled_p", "pooled_ci", "user1_p", "user1_ci",
            "user2_p", "user2_ci"), rows


def _beamform_setup(params, grid):
    """The run's config at its one SNR, and two relay channels drawn from
    its seed, first one drawn first."""
    cfg = _build_cfg(params, grid[0])      # validates before any draw
    rng = substream(params["seed"], CTX_GENERIC, 0)
    return cfg, tuple(cn(rng, cfg.M, cfg.var_relay) for _ in range(2))


def _cmd_beamform_single(params, grid, which):
    """one zero-forcing relay design on a seeded random draw"""
    cfg, (g_p, g_t) = _beamform_setup(params, grid)
    # raises where the gain overflows, before any vdot forms it
    predicted = optimal_gain(g_p, g_t, cfg.Pr_single)
    b = solve_single_user_beamformer(g_p, g_t, cfg.Pr_single)
    rows = [(params["m"], abs(np.vdot(b, g_t)) ** 2, predicted,
             abs(np.vdot(b, g_p)), np.vdot(b, b).real)]
    return ("m", "gain", "predicted_gain", "null_residual", "power"), rows


def _cmd_beamform_multi(params, grid, which):
    """one max-min SINR relay design on a seeded random draw"""
    cfg, (g1, g2) = _beamform_setup(params, grid)
    sol = max_min_sinr(g1, g2, cfg.Pr_multi, noise_var=cfg.noise_var)
    # b b^H has rank 1 for a nonzero beam and 0 for the zero beam
    ranks = [int(b.any()) for b in (sol.b1, sol.b2)]
    power = float(np.vdot(sol.b1, sol.b1).real + np.vdot(sol.b2, sol.b2).real)
    rows = [(params["m"], sol.t_star, sol.sinr1, sol.sinr2,
             ranks[0], ranks[1], power)]
    return ("m", "t_star", "sinr1", "sinr2", "rank1", "rank2",
            "power"), rows


def _cmd_figure(params, grid, which):
    """the three preset experiment tables: figure 1|2|3"""
    return run_experiment(f"fig{which}", trials=params["trials"],
                          seed=params["seed"], progress=_progress)


# subcommand name -> handler(params, grid, which) returning (columns,
# rows); its docstring is its line in --help
COMMANDS = {
    "analytic": _cmd_analytic,
    "simulate-direct": _cmd_simulate_direct,
    "simulate-relay": _cmd_simulate_relay,
    "beamform-single": _cmd_beamform_single,
    "beamform-multi": _cmd_beamform_multi,
    "figure": _cmd_figure,
}


def main(argv=None) -> int:
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
    except ConfigError as e:
        print(f"{USAGE}\nrelayarq: error: {e}", file=sys.stderr)
        return 2
    if parsed is None:
        sys.stdout.write(_help_text())
        return 0
    command, which, given = parsed

    try:
        params, grid = _effective_params(command, given)
        dump = given.get("dump_config")
        columns, rows = COMMANDS[command](params, grid, which)
        # written once the run has succeeded, so no refused run leaves one
        if dump:
            _write(dump, _config_text(params))
        _write(params["output"], _csv_text(columns, rows))
    except RelayArqError as e:
        print(f"relayarq: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
