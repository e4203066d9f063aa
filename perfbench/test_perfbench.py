"""Tests of the benchmark itself: answer keys, tracing, cold passes.

    python3 -m pytest perfbench -q

Passes and tracing run in subprocesses, because installing the tracer
rebinds functions in the imported latcong modules for the rest of the
process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import keys
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": f"{ROOT / 'src'}:{HERE}", "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_pass(workload, seed=1, trace=0) -> dict:
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "passes.py"), workload, str(seed), str(trace),
         repr(spawned)], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- answer keys -------------------------------------------------------------


@pytest.mark.parametrize("name, compatible, capacities",
                         [("chain(4)", 50, 16), ("boolean(2)", 36, 16)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_keys_do_not_depend_on_the_labelling(name, compatible, capacities, seed):
    leq = keys.named_leq(name)
    perm = keys.permutation(seed, name, len(leq))
    want = {"compatible": compatible, "capacities": capacities}
    assert keys.binary_scan_key(keys.relabel_leq(leq, perm)) == want


@pytest.mark.parametrize("factors, count", [
    (["boolean(5)"], 32), (["chain(4)", "chain(4)"], 64),
    (["chain(3)", "chain(3)", "chain(3)"], 64), (["boolean(2)", "chain(5)"], 64),
    (["chain(5)"], 16)])
def test_distributive_con_count(factors, count):
    leq = keys.product_leq(factors)
    perm = keys.permutation(7, "*".join(factors), len(leq))
    assert keys.distributive_con_count(keys.relabel_leq(leq, perm)) == count


def test_relabelling_is_seeded():
    assert keys.permutation(5, "boolean(9)", 512) == keys.permutation(5, "boolean(9)", 512)
    assert keys.permutation(5, "boolean(9)", 512) != keys.permutation(6, "boolean(9)", 512)
    leq = keys.boolean_leq(3)
    perm = keys.permutation(1, "boolean(3)", 8)
    moved = keys.relabel_leq(leq, perm)
    assert all(moved[perm[a], perm[b]] == leq[a, b] for a in range(8) for b in range(8))


def test_non_distributive_keys_are_products_of_factor_counts():
    # |Con M3| = 2, |Con N5| = 5, |Con chain(k)| = 2^(k-1)
    assert keys.NON_DISTRIBUTIVE_CON == {"M3*chain(5)": 2 * 2 ** 4, "N5*chain(4)": 5 * 2 ** 3}


# --- tracer --------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.now += 2.0

    inner = tracer.wrap(inner, "inner")

    def outer():
        clock.now += 1.0
        inner()
        inner()
        clock.now += 0.5

    tracer.wrap(outer, "outer")()
    assert tracer.stats["outer"] == [1, 1.5, 5.5]
    assert tracer.stats["inner"] == [2, 4.0, 4.0]


def test_generators_are_timed_per_advancement():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def items():
        for i in range(3):
            clock.now += 1.0
            yield i

    traced = tracer.wrap_generator(items, "gen", "gen.items")
    for _ in traced():
        clock.now += 10.0            # the consumer's time is not the generator's
    assert tracer.stats["gen"] == [4, 3.0, 3.0]
    assert tracer.counters["gen.items"] == 3


def test_install_rebinds_every_import_and_dispatch_table():
    out = python(
        "import json, latcong.cli, spans, sys\n"
        "spans.install(spans.Tracer())\n"
        "m = sys.modules\n"
        "fns = [m['latcong.compat'].is_monotone, m['latcong.sugeno'].is_monotone,\n"
        "       m['latcong.verify'].is_monotone, m['latcong'].is_compatible,\n"
        "       m['latcong.verify'].is_compatible, m['latcong.cli'].all_congruences,\n"
        "       m['latcong.compat'].principal_congruences,\n"
        "       m['latcong.verify']._CHECKS['AC08'], m['latcong.verify'].io.parse_lattice,\n"
        "       m['latcong.lattice'].Lattice.__init__]\n"
        "print(json.dumps([hasattr(f, '__wrapped__') for f in fns]))\n")
    assert json.loads(out) == [True] * 10


# --- passes ----------------------------------------------------------------------


def test_a_process_keeps_its_congruence_cache():
    """Why every pass is a fresh interpreter: a second pass would hit the cache."""
    out = python(
        "from latcong import all_congruences, catalogue, principal_congruences\n"
        "all_congruences(catalogue('chain(3)'))\n"
        "print(principal_congruences.cache_info().currsize)\n")
    assert int(out) > 0


def test_checklist_pass_starts_cold_and_matches_the_seed_bytes():
    record = run_pass("checklist")
    assert record["cold"] == {"principal_congruences": 0, "equivalence_reports": 0,
                              "product_2x3": 0}
    assert record["wrong"] == []
    assert record["work"] == 12


def test_traced_scan_sees_every_table_and_capacity():
    record = run_pass("scan", seed=2, trace=1)
    assert record["cold"] == {"principal_congruences": 0}
    assert record["wrong"] == []
    assert record["layers"]["compat.tables"] == record["monotone"] == 24696 + 168 ** 2
    assert record["layers"]["sugeno.capacities"] == record["capacities"] == 32


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
