"""latcong benchmark: cold passes of one workload, medians, one JSON line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass is a fresh interpreter
(``passes.py``) that imports latcong from ``src``, so no process-lifetime
cache carries over from one pass to the next; passes run one at a time
until ``--seconds`` is spent.  With ``--trace 0`` the last line reports the
end-to-end metrics; with ``--trace 1`` traced and untraced passes alternate
and it reports the per-layer metrics plus the tracing overhead.  Every
pass checks its verdicts against answer keys that do not come from
latcong; ``attempted`` counts them and ``failed`` counts the wrong ones.
Exits 2 without a result when the checkout has no ``src/latcong``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS = HERE / "passes.py"
WORKLOADS = ("scan", "structure", "checklist")
MIN_PASSES = 3
# A run must end well inside 180 s, whatever --seconds asks for.
HARD_LIMIT_S = 150.0


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def metric_units() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, as BENCHMARK.json names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    # Passes load latcong from bytecode written once by warm_up, whatever
    # the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def warm_up(env) -> None:
    """Write the bytecode caches once, as an installed package already has them."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import latcong.cli, keys, spans, passes")
    subprocess.run([sys.executable, "-c", code, str(HERE)], cwd=ROOT, env=env,
                   check=True, capture_output=True, timeout=120)


def run_pass(workload, seed, trace, env, timeout):
    """One cold pass; returns its record, or a record of why it failed."""
    spawned = clock()
    argv = [sys.executable, str(PASS), workload, str(seed), str(int(trace)), repr(spawned)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    record = json.loads(lines[-1])
    record["duration_s"] = clock() - spawned
    return record


def pass_checks(record) -> list[tuple[str, bool]]:
    """Run-level verdicts on one pass: it started cold, and in a traced scan
    the wrappers saw every table and capacity the reports counted."""
    checks = [(f"cache {name} is empty when the pass starts", size == 0)
              for name, size in record["cold"].items()]
    if record["traced"] and record["workload"] == "scan":
        layers = record["layers"]
        checks += [(f"traced {metric} equals the reported {field} count",
                    layers[metric] == record[field])
                   for metric, field in (("compat.tables", "monotone"),
                                         ("sugeno.capacities", "capacities"))]
    return checks


def spread(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g} (1 pass)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4g}, quartiles {q1:.4g}..{q3:.4g} over {len(values)} passes"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latcong" / "__init__.py").is_file():
        print(f"error: no latcong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_units()
    env = child_env()
    warm_up(env)
    if args.workload == "checklist":
        print(f"checklist: --seed {args.seed} does not change the inputs; "
              "latcong.verify.RANDOM_SEED fixes them")

    started = clock()
    passes, errors, wrong, attempted = [], [], [], 0
    while True:
        elapsed = clock() - started
        estimate = statistics.median(p["duration_s"] for p in passes) if passes else 0.0
        enough = len(passes) >= MIN_PASSES * (1 + args.trace)
        if errors or elapsed + estimate > (args.seconds if enough else HARD_LIMIT_S):
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        record = run_pass(args.workload, args.seed, traced, env,
                          timeout=max(HARD_LIMIT_S - elapsed, 10.0))
        if "error" in record:
            errors.append(record["error"])
            attempted += 1
            continue
        passes.append(record)
        checks = pass_checks(record)
        attempted += record["verdicts"] + len(checks)
        wrong.extend(record["wrong"] + [what for what, ok in checks if not ok])

    for message in errors + wrong:
        print(f"wrong: {message}", file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = {}
    if plain:
        series = {
            "setup_s": [p["setup_s"] for p in plain],
            "wall_s": [p["wall_s"] for p in plain],
            "work_per_s": [p["work"] / p["wall_s"] for p in plain],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        for name, series_values in series.items():
            print(f"{args.workload} {name} [{end_to_end[name]}]: {spread(series_values)}")
        values = {name: statistics.median(series[name]) for name in end_to_end}
    units = end_to_end
    if args.trace and traced:
        untraced_wall = values["wall_s"]
        for p in traced:
            p["layers"].update({"cli.import_s": p["import_s"], "trace.wall_s": p["wall_s"]})
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in per_layer if name != "trace.overhead_s"}
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
        units = per_layer
        for name, value in values.items():
            print(f"{args.workload} {name} [{units[name]}]: {value:.6g}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    failed = len(errors) + len(wrong)
    print(f"{args.workload}: verdicts {attempted}, verdicts_wrong {failed}, "
          f"{len(plain)} untraced and {len(traced)} traced cold passes")
    print(json.dumps({"correct": failed == 0 and bool(passes), "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
