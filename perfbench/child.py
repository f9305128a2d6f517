"""One fresh relayarq process, driven by run.py over stdin and stdout.

    python3 -u child.py setup
    python3 -u child.py figure RECORD_PATH [--trace] -- <relayarq argv>

Both modes import ``relayarq.cli`` first and print ``ready``; the parent
times set-up from spawn to that line. ``setup`` then exits. ``figure``
installs its wrappers, waits for ``go`` on stdin, calls
``relayarq.cli.main(argv)``, prints ``done <exit code>`` and then writes
its counts (and, with ``--trace``, its spans and the measured cost of one
wrapper) as JSON to RECORD_PATH. Without ``--trace`` only the
per-grid-point calls are wrapped, to count trials and aborted relay
trials.
"""

import sys


def _blas() -> dict:
    """BLAS library, version and runtime thread count, as far as visible."""
    import ctypes
    import os

    import numpy as np

    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh
                if "blas" in ln.lower() and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["library"], info["threads"] = path.rsplit("/", 1)[-1], fn()
                return info
    return info


def main(argv) -> int:
    if argv[0] == "setup":
        return 0
    import json
    import resource

    import numpy as np
    import scipy

    import relayarq.cli
    from spans import GRID_POINT, TRACED, Tracer, wrapper_cost_ns

    record_path, trace = argv[1], argv[2] == "--trace"
    cli_argv = argv[argv.index("--") + 1:]
    tracer = Tracer()
    missing = tracer.install(TRACED if trace else GRID_POINT)
    if trace and hasattr(relayarq.cli, "_progress"):
        relayarq.cli._progress = tracer.next_point(relayarq.cli._progress)
    run = tracer.wrap(relayarq.cli.main)

    if sys.stdin.readline().strip() != "go":
        return 1
    code = run(cli_argv)
    print("done", code, flush=True)

    record = {
        "exit_code": code,
        "counts": tracer.counts,
        "spans": tracer.spans,
        "missing_targets": missing,
        "wrapper_cost_ns": wrapper_cost_ns() if trace else 0.0,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "blas": _blas(),
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    import relayarq.cli  # noqa: F401  (the import is what set-up times)
    print("ready", flush=True)
    sys.exit(main(sys.argv[1:]))
