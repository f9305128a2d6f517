"""Command-line front end: seeded runs, sweeps, CSV emission.

Usage::

    relayarq COMMAND [1|2|3] [--FLAG VALUE | --FLAG=VALUE | -o PATH]...

``relayarq --help`` lists the commands (``analytic``, ``simulate-direct``,
``simulate-relay``, ``beamform-single``, ``beamform-multi`` and
``figure 1|2|3``) and every flag with its default. Every command takes
the same flags, one for each run parameter in ``PARAMS`` plus three
that belong to the invocation, not the run: ``-o``, ``--config`` and
``--dump-config``. ``main`` reads them off that table itself:

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

Every command validates every flag in one pass, ``_effective_params``,
before its first library call, so a flag it does not read is refused
where it is out of range (``figure 1 --n 0`` exits 2). But a command
reads only the flags its run depends on, so the rest leave its table
unchanged:

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
run parameter in ``PARAMS`` and nothing else, so not the output path;
command-line flags override it, and ``--dump-config`` writes one that
reruns the same run given the same ``-o`` (``_load_config`` says what is
a comment). ``-o`` and ``--dump-config`` must name a file in an
existing directory, so neither may be empty, and ``-o`` neither the
``--config`` nor the ``--dump-config`` file. All of that is checked
before any work. So are the ceilings, every count by the one rule
``channel.whole``: ``--trials`` from 100 to ``simulate.MAX_TRIALS`` (a
run's points share one memo dict, each memo held once and freed before
the next is drawn, so the run's memos stay under 1 GiB and are freed
when it ends), an SNR grid of at most MAX_GRID_POINTS points, counted
before it is built, whose points strictly rise, and the one SNR a
beamform command takes; the system at each point of the grid, as
``SystemConfig`` checks it (``--n`` and ``--m`` at most
``channel.MAX_ANTENNAS``, ``--retx`` at most ``channel.MAX_ATTEMPTS``,
each SNR at most ``channel.MAX_SNR_DB``, where 10^(SNR/10) is still
finite, and every real flag, and the power P the SNR sets, by
``channel.real``);
and the seed, a whole number from 0 to ``channel.MAX_SEED`` = 2^64 - 1,
Philox's largest key. The library's configs and engines refuse the same
values.
``A:B:STEP`` is every A + k*STEP up to B. Files are written first and
standard output last: the ``-o`` file, then the ``--dump-config`` file,
then the table on standard output. Those three are the run's product:
where one cannot be written, or standard output is closed, the run
exits 2. So a refused run or a failed ``-o`` write leaves no dump, and a
failed dump leaves standard output empty, but a failed write to standard
output can leave the dump behind. Standard error carries only progress
and messages: where it is full or closed, they are dropped, and the
files, standard output and exit code stay as they would be.
``--threads`` (at least 1) has no effect: the engine draws every run on
the calling thread. It stays because the benchmark, ``perfbench/run.py``,
passes it on every call; ROADMAP item 1 drops it with the benchmark's
next change. Exit codes: 0 success, 2 usage, config, output or
computation error; each is a ``ContractViolationError``, and a usage
error is one raised while the command line is parsed.
"""

import contextlib
import math
import os
import sys

import numpy as np

from .channel import (CTX_GENERIC, MAX_SEED, ContractViolationError,
                      SystemConfig, cn, substream, whole)
from .outage import arq_outage, outage_interference_n3, outage_single_user
from .relay_multi import max_min_sinr
from .relay_single import optimal_gain, solve_single_user_beamformer
from .simulate import (MAX_TRIALS, run_experiment, simulate_direct,
                       simulate_relay)

# every point keeps one CSV row in memory until the run ends
MAX_GRID_POINTS = 100_000

# every run parameter: (type, default). A config file sets it by its key,
# the command line by the key with dashes (``noise_var`` is
# ``--noise-var``).
PARAMS = {
    "seed": (int, 0), "trials": (int, 10000), "threads": (int, 1),
    "n": (int, 3), "m": (int, 3), "rate": (float, 2.0), "retx": (int, 2),
    "noise_var": (float, 1.0), "var_direct": (float, 2.0),
    "var_cross": (float, 1.0), "var_relay": (float, 4.0),
    "snr_db": (str, "10"),
}


USAGE = "usage: relayarq [-h] COMMAND [1|2|3] [--FLAG VALUE]..."


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _coerce(key: str, text: str):
    try:
        return PARAMS[key][0](text)
    except ValueError:
        raise ContractViolationError(f"bad value for {key}: {text!r}")


def _load_config(path: str) -> dict:
    """Run parameters from a ``key = value`` file, as ``_config_text``
    writes them. A ``#`` anywhere starts a comment that runs to the end of
    its line."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ContractViolationError(f"cannot read config file: {e}")
    for ln, raw in enumerate(lines, 1):
        key, eq, val = map(str.strip, raw.split("#", 1)[0].partition("="))
        if not (key or eq):
            continue
        if not eq:
            raise ContractViolationError(f"{path}:{ln}: expected key = value")
        if key not in PARAMS:
            raise ContractViolationError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = _coerce(key, val)
    return out


def _parse_snr_grid(text: str):
    """A single number, or 'a:b:step': every a + k*step up to b, k = 0, 1,
    ..., where a point past b by no more than the rounding of that sum
    (four machine epsilons of the larger of |a| and |b|, and under half a
    step) still counts. At most MAX_GRID_POINTS points, counted before the
    grid is built, and each above the one before it: a step below the
    spacing of the floats near a repeats a point, which is refused."""
    try:
        if ":" not in text:
            return [float(text)]
        a, b, step = map(float, text.split(":"))    # or ValueError
        if step <= 0 or b < a:
            raise ValueError
        slack = min(4 * sys.float_info.epsilon * max(abs(a), abs(b)), step / 2)
        last = math.floor((b - a + slack) / step)
        whole(last + 1, f"SNR grid {text!r} points", high=MAX_GRID_POINTS)
        grid = [a + k * step for k in range(last + 1)]
        if len(set(grid)) < len(grid):        # a + k*step never falls
            raise ContractViolationError(f"SNR grid {text!r} repeats a point")
        return grid
    except (ValueError, OverflowError):     # floor(inf) overflows
        raise ContractViolationError(
            f"bad SNR grid {text!r}; expected X or A:B:STEP") from None


def _parse_argv(argv):
    """``(command, figure index or None, {key: value})`` of a command line,
    or None when it asks for help; raises ContractViolationError where it
    does not parse. The keys are those of PARAMS plus ``output``,
    ``config`` and ``dump_config``."""
    flags = {_flag(key): key for key in PARAMS}
    flags.update({"-h": "help", "--help": "help", "-o": "output",
                  "--config": "config", "--dump-config": "dump_config"})
    positional, given = [], {}
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            positional += tokens
            break
        if tok[:1] != "-" or tok == "-":
            positional.append(tok)
            continue
        if tok[:2] == "-o":
            name, value = "-o", tok[2:].removeprefix("=") if tok[2:] else None
        else:
            name, eq, value = tok.partition("=")
            hits = [name] if name in flags else [
                f for f in flags if f.startswith(name)]
            if len(hits) > 1:
                raise ContractViolationError(
                    f"ambiguous option: {name} could match " + ", ".join(hits))
            if not hits:
                raise ContractViolationError(f"unrecognized argument: {tok}")
            name, value = hits[0], value if eq else None
        key = flags[name]
        if key == "help":
            return None
        if value is None:
            value = next(tokens, None)
            if value is None:
                raise ContractViolationError(
                    f"argument {name}: expected one argument")
        given[key] = _coerce(key, value) if key in PARAMS else value
    if not positional:
        raise ContractViolationError("a command is required")
    command, *rest = positional
    if command not in COMMANDS:
        raise ContractViolationError(
            f"invalid command {command!r}; choose from " + ", ".join(COMMANDS))
    which = rest.pop(0) if rest else None
    if rest:
        raise ContractViolationError(
            "unrecognized argument: " + " ".join(rest))
    if which not in (("1", "2", "3") if command == "figure" else (None,)):
        raise ContractViolationError(
            "a figure index 1, 2 or 3 goes with figure, and only with figure")
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
              "after the run"]
    for key, (_, default) in PARAMS.items():
        lines.append(f"  {_flag(key) + ' ' + key.upper():<26}default: {default}")
    lines.append(f"  {'-o OUTPUT':<26}default: standard output")
    return "\n".join(lines) + "\n"


def _effective_params(command: str, given: dict):
    """The run's parameters and its points, one (SNR, SystemConfig) pair
    per grid point: the one place a run is validated, for every command,
    before anything is drawn or written. It checks every ceiling, the -o
    and --dump-config paths, each point's config and the seed. Each path
    must name a file in an existing directory, so it may be neither empty
    nor hold a NUL byte, and -o may not name a config file."""
    params = {key: default for key, (_, default) in PARAMS.items()}
    if "config" in given:
        params.update(_load_config(given["config"]))
    params.update((key, v) for key, v in given.items() if key in PARAMS)
    whole(params["trials"], "trials", low=100, high=MAX_TRIALS)
    whole(params["threads"], "threads")
    grid = _parse_snr_grid(params["snr_db"])
    if command.startswith("beamform") and len(grid) > 1:
        raise ContractViolationError("beamform commands take one SNR")
    output, dump = given.get("output"), given.get("dump_config")
    for path in (output, dump):
        if path is not None and (
                not path or "\0" in path or os.path.isdir(path)
                or not os.path.isdir(os.path.dirname(path) or ".")):
            raise ContractViolationError(
                f"cannot write {path}: not a file in an existing directory")
    configs = [os.path.realpath(p) for p in (given.get("config"), dump) if p]
    if output and os.path.realpath(output) in configs:
        raise ContractViolationError(
            f"cannot write {output}: it is a config file")
    points = [(snr, _build_cfg(params, snr)) for snr in grid]
    whole(params["seed"], "seed", low=0, high=MAX_SEED)
    return params, points


def _build_cfg(params: dict, snr_db: float) -> SystemConfig:
    # N and M are n and m, P follows from the SNR, and every other field
    # is the run parameter of its name
    same = ("noise_var", "var_direct", "var_cross", "var_relay", "rate",
            "retx")
    return SystemConfig.at_snr(snr_db, N=params["n"], M=params["m"],
                               **{key: params[key] for key in same})


def _fmt(x) -> str:
    # every count that reaches a cell is below 2^53, so %.17g prints it
    # exactly as str(int(x)) would
    return x if isinstance(x, str) else "%.17g" % float(x)


def _put(fd, text):
    """Write text to standard output (fd 1) or standard error (fd 2) and
    flush it; raises OSError where the stream is closed or the write
    fails."""
    stream = sys.stdout if fd == 1 else sys.stderr
    if stream is None:                    # Python's view of a closed fd
        raise OSError("it is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        # what was not written stays buffered, and the flush at exit
        # would fail on it again: point fd at the null device, so the
        # process exits with the code main returns
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), fd)
        raise


def _write(path, text):
    """Write text to the file at path, or to standard output where path is
    None, and flush it; raises ContractViolationError where the write fails."""
    try:
        if path is None:
            _put(1, text)
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as e:
        raise ContractViolationError(
            f"cannot write {path or 'standard output'}: {e}")


def _csv_text(columns, rows):
    return "".join(",".join(map(_fmt, r)) + "\n" for r in (columns, *rows))


def _config_text(params):
    return "".join(f"{k} = {v}\n" for k, v in params.items())


def _note(msg: str):
    """Print msg as a line to standard error, which carries only progress
    and messages: where it is closed or its write fails, the line is
    dropped and nothing else changes."""
    with contextlib.suppress(OSError):
        _put(2, msg + "\n")


# the per-grid-point progress line, under a name of its own so that a
# tracer can wrap it alone
_progress = _note


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analytic(params, points, which):
    """closed-form outage curves over an SNR grid"""
    rows = []
    for snr, cfg in points:
        p = outage_single_user(cfg), outage_interference_n3(cfg)
        rows.append((snr, *p, *(arq_outage(x, cfg.retx) for x in p)))
    return ("SNR_dB", "single_user", "interference", "single_user_arq",
            "interference_arq"), rows


def _cmd_simulate_direct(params, points, which):
    """Monte Carlo direct-ARQ outage over an SNR grid"""
    rows, memos = [], {}                  # the run's points share memos
    for i, (snr, cfg) in enumerate(points, 1):
        est = simulate_direct(cfg, params["trials"], params["seed"], memos)
        rows.append((snr, est.p_hat, est.ci_halfwidth, est.trials,
                     est.failures))
        _progress(f"simulate-direct {i}/{len(points)} SNR={snr} dB")
    return ("SNR_dB", "p", "ci", "messages", "failures"), rows


def _cmd_simulate_relay(params, points, which):
    """Monte Carlo relay-ARQ outage, pooled and per user"""
    rows, memos = [], {}                  # the run's points share memos
    for i, (snr, cfg) in enumerate(points, 1):
        est = simulate_relay(cfg, params["trials"], params["seed"], memos)
        rows.append((snr, est.pooled.p_hat, est.pooled.ci_halfwidth,
                     est.user1.p_hat, est.user1.ci_halfwidth,
                     est.user2.p_hat, est.user2.ci_halfwidth))
        _progress(f"simulate-relay {i}/{len(points)} SNR={snr} dB")
    return ("SNR_dB", "pooled_p", "pooled_ci", "user1_p", "user1_ci",
            "user2_p", "user2_ci"), rows


def _beamform_setup(params, points):
    """The run's config at its one SNR, and two relay channels drawn from
    its seed, first one drawn first."""
    [(_, cfg)] = points
    rng = substream(params["seed"], CTX_GENERIC, 0)
    return cfg, tuple(cn(rng, cfg.M, cfg.var_relay) for _ in range(2))


def _cmd_beamform_single(params, points, which):
    """one zero-forcing relay design on a seeded random draw"""
    cfg, (g_p, g_t) = _beamform_setup(params, points)
    # raises where the gain overflows, before any vdot forms it
    predicted = optimal_gain(g_p, g_t, cfg.Pr_single)
    b = solve_single_user_beamformer(g_p, g_t, cfg.Pr_single)
    rows = [(params["m"], abs(np.vdot(b, g_t)) ** 2, predicted,
             abs(np.vdot(b, g_p)), np.vdot(b, b).real)]
    return ("m", "gain", "predicted_gain", "null_residual", "power"), rows


def _cmd_beamform_multi(params, points, which):
    """one max-min SINR relay design on a seeded random draw"""
    cfg, (g1, g2) = _beamform_setup(params, points)
    sol = max_min_sinr(g1, g2, cfg.Pr_multi, noise_var=cfg.noise_var)
    # b b^H has rank 1 for a nonzero beam and 0 for the zero beam
    ranks = [int(b.any()) for b in (sol.b1, sol.b2)]
    power = float(np.vdot(sol.b1, sol.b1).real + np.vdot(sol.b2, sol.b2).real)
    rows = [(params["m"], sol.t_star, sol.sinr1, sol.sinr2,
             ranks[0], ranks[1], power)]
    return ("m", "t_star", "sinr1", "sinr2", "rank1", "rank2",
            "power"), rows


def _cmd_figure(params, points, which):
    """the three preset experiment tables: figure 1|2|3"""
    return run_experiment(f"fig{which}", trials=params["trials"],
                          seed=params["seed"], progress=_progress)


# subcommand name -> handler(params, points, which) returning (columns,
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
    except ContractViolationError as e:
        _note(f"{USAGE}\nrelayarq: error: {e}")
        return 2

    try:
        if parsed is None:
            _write(None, _help_text())
            return 0
        command, which, given = parsed
        params, points = _effective_params(command, given)
        columns, rows = COMMANDS[command](params, points, which)
        # files first, standard output last, so a failed file prints no table
        if "output" in given:
            _write(given["output"], _csv_text(columns, rows))
        if "dump_config" in given:
            _write(given["dump_config"], _config_text(params))
        if "output" not in given:
            _write(None, _csv_text(columns, rows))
    except ContractViolationError as e:
        _note(f"relayarq: {e}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
