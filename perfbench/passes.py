"""One cold pass of a workload, in the fresh interpreter that runs this file.

    python3 perfbench/passes.py <scan|structure|checklist> <seed> <trace 0|1> <spawned>

``spawned`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so the parent and the pass share one clock for set-up time.
The pass imports latcong from the checkout's ``src``, builds its inputs,
does the workload once, checks every verdict against the answer keys in
``keys.py`` and prints one JSON record as its last line.
"""

from __future__ import annotations

import hashlib
import io as stdio
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The two binary scans, each under its own seeded relabelling.
SCAN_LATTICES = ["chain(4)", "boolean(2)"]
# Congruence lattices: catalogue names or factor lists for direct_product.
CON_LATTICES = [["boolean(5)"], ["chain(4)", "chain(4)"],
                ["chain(3)", "chain(3)", "chain(3)"], ["boolean(2)", "chain(5)"],
                ["M3", "chain(5)"], ["N5", "chain(4)"]]
SERIALIZED = "boolean(9)"
# sha256 of `latcong verify --json` on stdout; ROADMAP keeps these bytes fixed.
VERIFY_JSON_SHA256 = "37af9d1b89a7b4a79c4fd249df08792495a7d9e8b46dae49ea5040a00d13af1d"


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Verdicts:
    """Verdicts checked against known answers; wrong ones are kept, not raised."""

    def __init__(self):
        self.checked = 0
        self.wrong = []

    def expect(self, what, got, want):
        self.checked += 1
        if got != want:
            self.wrong.append(f"{what}: got {got!r}, expected {want!r}")


def relabel(latcong, L, perm):
    """The same lattice with element ``a`` renamed ``perm[a]``."""
    covers = sorted((perm[a], perm[b]) for a, b in L.covers)
    return latcong.build_from_covers(L.size, covers, name=L.name)


def setup_scan(latcong, keys, seed):
    inputs = []
    for name in SCAN_LATTICES:
        L = latcong.catalogue(name)
        perm = keys.permutation(seed, name, L.size)
        want = keys.binary_scan_key(keys.relabel_leq(keys.named_leq(name), perm))
        inputs.append((relabel(latcong, L, perm), keys.MONOTONE_BINARY[name], want))
    return inputs


def run_scan(latcong, inputs, verdicts):
    out = {"monotone": 0, "capacities": 0}
    for L, monotone, want in inputs:
        report = latcong.verify_equivalence_suite(L, 2)
        verdicts.expect(f"{L.name} monotone", report.monotone_count, monotone)
        verdicts.expect(f"{L.name} compatible", report.compatible_count, want["compatible"])
        verdicts.expect(f"{L.name} capacities", report.capacity_count, want["capacities"])
        verdicts.expect(f"{L.name} compatible aggregation",
                        report.compatible_aggregation_count, want["capacities"])
        verdicts.expect(f"{L.name} report ok", report.ok, True)
        out["monotone"] += report.monotone_count
        out["capacities"] += report.capacity_count
    out["work"] = out["monotone"]
    return out


def setup_structure(keys, seed):
    """Relabelled order keys: one for the serialized lattice, then per
    congruence lattice (factors, permutation, order matrix, |Con|)."""
    leq = keys.named_leq(SERIALIZED)
    perm = keys.permutation(seed, SERIALIZED, len(leq))
    serialized = (perm, keys.relabel_leq(leq, perm))
    jobs = []
    for factors in CON_LATTICES:
        name = "*".join(factors)
        leq = keys.product_leq(factors)
        perm = keys.permutation(seed, name, len(leq))
        leq = keys.relabel_leq(leq, perm)
        want = keys.NON_DISTRIBUTIVE_CON.get(name) or keys.distributive_con_count(leq)
        jobs.append((factors, perm, leq, want))
    return serialized, jobs


def run_structure(latcong, inputs, verdicts):
    (perm, leq), con_jobs = inputs
    L = relabel(latcong, latcong.catalogue(SERIALIZED), perm)
    verdicts.expect(f"{SERIALIZED} order", bool((L.leq_table == leq).all()), True)
    text = latcong.io.serialize_lattice(L)
    back = latcong.io.parse_lattice(text)
    verdicts.expect(f"{SERIALIZED} parses back equal", back == L, True)
    produced = 0
    for factors, perm, leq, want in con_jobs:
        name = "*".join(factors)
        base = latcong.catalogue(name) if len(factors) == 1 else \
            latcong.direct_product([latcong.catalogue(f) for f in factors])
        L = relabel(latcong, base, perm)
        verdicts.expect(f"{name} order", bool((L.leq_table == leq).all()), True)
        congruences = latcong.all_congruences(L)
        verdicts.expect(f"|Con {name}|", len(congruences), want)
        produced += len(congruences)
    return {"work": produced}


def run_checklist(cli, verdicts):
    buf = stdio.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", "--json"])
    text = buf.getvalue()
    verdicts.expect("exit code", code, 0)
    payload = json.loads(text)
    verdicts.expect("passed/total", (payload["passed"], payload["total"]), (12, 12))
    for check in payload["checks"]:
        verdicts.expect(f"{check['id']} passed", check["passed"], True)
    verdicts.expect("stdout sha256", hashlib.sha256(text.encode()).hexdigest(),
                    VERIFY_JSON_SHA256)
    return {"work": payload["total"]}


def main(argv) -> int:
    workload, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    if workload == "checklist":
        from latcong import cli
        latcong = sys.modules["latcong"]
    else:
        import latcong
    import_s = time.perf_counter() - t0
    if not Path(latcong.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"latcong imported from {latcong.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    import keys
    import spans

    cold = {"principal_congruences": latcong.principal_congruences.cache_info().currsize}
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    if workload == "checklist":
        verify = sys.modules["latcong.verify"]
        cold["equivalence_reports"] = verify._equivalence_reports.cache_info().currsize
        cold["product_2x3"] = verify._product_2x3.cache_info().currsize
        inputs = None
    elif workload == "scan":
        inputs = setup_scan(latcong, keys, seed)
    else:
        inputs = setup_structure(keys, seed)
    ready = clock()

    verdicts = Verdicts()
    start = time.perf_counter()
    if workload == "checklist":
        out = run_checklist(cli, verdicts)
    elif workload == "scan":
        out = run_scan(latcong, inputs, verdicts)
    else:
        out = run_structure(latcong, inputs, verdicts)
    wall = time.perf_counter() - start

    record = dict(out, workload=workload, seed=seed, setup_s=ready - spawned,
                  wall_s=wall, import_s=import_s, cold=cold,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  verdicts=verdicts.checked, wrong=verdicts.wrong, traced=trace)
    if tracer is not None:
        record["layers"] = tracer.metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
