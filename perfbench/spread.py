"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9] [--seconds S]

Runs ``run.py`` once per seed, one after another, and prints for each
end-to-end metric its median, quartiles and (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json. A spread above a third of its bound is
flagged (setup_s is exempt from the spread rule). Results also go to
``perfbench/out/spread-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    rows = {}
    steady = all(r["correct"] for r in runs)
    print(f"\n{args.workload}: {len(runs)} runs, all correct: {steady}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = quartile_spread(values)
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3.0
        steady = steady and ok
        rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                           "spread": spread, "bound": m["bound"],
                           "values": values}
        print(f"  {m['name']:14s} median {med:12.6g} {m['unit']:5s} "
              f"IQR/median {spread:.4f}  bound {m['bound']}"
              f"{'' if ok else '  <-- above a third of the bound'}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spread-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": args.seconds,
                    "seeds": parse_seeds(args.seeds), "metrics": rows},
                   indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
