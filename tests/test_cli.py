import time

import pytest

import oracles
from latcong import io, tables
from latcong.cli import main
from latcong.lattice import catalogue
from latcong.sugeno import Capacity, sugeno_table


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    C3 = catalogue("chain(3)")
    paths = {}

    def write(key, text):
        p = root / key
        p.write_text(text)
        paths[key] = str(p)

    write("c3.lat", io.serialize_lattice(C3))
    write("c2.lat", io.serialize_lattice(catalogue("chain(2)")))
    write("m3.lat", io.serialize_lattice(catalogue("M3")))
    write("n5.lat", io.serialize_lattice(catalogue("N5")))
    write("b3.lat", io.serialize_lattice(catalogue("boolean(3)")))
    m = Capacity(C3, (0, 1, 1, 2))
    write("m.cap", io.serialize_capacity(m, "m"))
    write("su.fn", io.serialize_function_table(sugeno_table(C3, m), "su"))
    write("bent.fn", "function bent\nn 1\nf 0 -> 0\nf 1 -> 2\nf 2 -> 2\n")
    write("p.poly", "(join (meet (const 1) (var 0)) (var 1))\n")
    write("wide.poly", "(join (var 0) (var 30))\n")
    write("ternary.poly", "(join (var 0) (var 2))\n")
    write("broken.cap", "capacity x\nn 2\nm {} 1\nm {1} 1\nm {2} 1\nm {1,2} 2\n")
    write("negative.cap", "capacity x\nn -1\n")
    write("negative.fn", "function f\nn -1\n")
    write("huge.lat", "lattice huge\nelements 1000000000\ncover 0 1\n")
    write("ghost.lat", "lattice g\nelements 2\ncover 0 1\nlabel 7 ghost\n")
    write("neg.lat", "lattice g\nelements 2\ncover 0 1\nlabel -1 neg\n")
    write("huge.cap", "capacity x\nn 100000000\n")
    write("huge.fn", "function f\nn 100000000\n")
    write("far.poly", "(var 5000000)\n")
    latin1 = root / "latin1.txt"
    latin1.write_bytes("lattice café\n".encode("latin-1"))
    paths["latin1.txt"] = str(latin1)
    deep = "(var 0)"
    for _ in range(1499):
        deep = f"(meet {deep} (var 0))"
    write("deep.poly", deep + "\n")
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(files, capsys):
    code, out, _ = run(capsys, "info", "--lattice", files["c3.lat"])
    assert code == 0
    assert "elements 3" in out
    assert "distributive true" in out


def test_distributive_verdicts(files, capsys):
    code, out, _ = run(capsys, "distributive", "--lattice", files["m3.lat"])
    assert (code, out.strip()) == (1, "false")
    code, out, _ = run(capsys, "distributive", "--lattice", files["c3.lat"])
    assert (code, out.strip()) == (0, "true")


def test_congruences_listing(files, capsys):
    code, out, _ = run(capsys, "congruences", "--lattice", files["c3.lat"])
    assert code == 0
    assert out.splitlines() == ["{0,1,2}", "{0,1}{2}", "{0}{1,2}", "{0}{1}{2}"]


def test_principal(files, capsys):
    code, out, _ = run(capsys, "principal", "0", "1",
                       "--lattice", files["c3.lat"])
    assert (code, out.strip()) == (0, "{0,1}{2}")
    code, out, _ = run(capsys, "principal", "0", "1",
                       "--lattice", files["m3.lat"])
    assert (code, out.strip()) == (0, "{0,1,2,3,4}")


@pytest.mark.parametrize("key,name", [("n5.lat", "N5"), ("m3.lat", "M3"),
                                      ("b3.lat", "boolean(3)")])
def test_principal_matches_oracle(files, capsys, key, name):
    L = catalogue(name)
    for a in range(L.size):
        for b in range(L.size):
            code, out, _ = run(capsys, "principal", str(a), str(b),
                               "--lattice", files[key])
            assert (code, out) == (0, f"{oracles.union_find_closure(L, a, b)}\n")


def test_principal_range_check(files, capsys):
    code, _, err = run(capsys, "principal", "0", "9",
                       "--lattice", files["c3.lat"])
    assert code == 2
    assert err == "error: element 9 outside carrier of size 3\n"


def test_sugeno_worked_example(files, capsys):
    code, out, _ = run(capsys, "sugeno", "--lattice", files["c3.lat"],
                       "--capacity", files["m.cap"], "--input", "2", "0")
    assert (code, out.strip()) == (0, "1")


def test_compat_and_median(files, capsys):
    code, out, _ = run(capsys, "compat", "--lattice", files["c3.lat"],
                       "--function", files["su.fn"])
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "compat", "--lattice", files["c3.lat"],
                       "--function", files["bent.fn"])
    assert (code, out.strip()) == (1, "false")
    code, out, _ = run(capsys, "median-check", "--lattice", files["c3.lat"],
                       "--function", files["bent.fn"])
    assert (code, out.strip()) == (1, "false")


def test_compat_accepts_polynomial(files, capsys):
    code, out, _ = run(capsys, "compat", "--lattice", files["c3.lat"],
                       "--poly", files["p.poly"])
    assert (code, out.strip()) == (0, "true")


def test_synthesize(files, capsys):
    code, out, _ = run(capsys, "synthesize", "--lattice", files["c3.lat"],
                       "--function", files["su.fn"])
    assert code == 0
    assert out.splitlines() == ["g {} 0", "g {1} 1", "g {2} 1", "g {1,2} 2",
                                "verified true"]
    code, out, _ = run(capsys, "synthesize", "--lattice", files["c3.lat"],
                       "--function", files["bent.fn"])
    assert code == 1
    assert "verified false" in out


def test_capacity_of(files, capsys):
    code, out, _ = run(capsys, "capacity-of", "--lattice", files["c3.lat"],
                       "--function", files["su.fn"])
    assert code == 0
    assert "m {1} 1" in out


def test_sugeno_compare(files, capsys):
    code, out, _ = run(capsys, "sugeno-compare", "--lattice", files["c3.lat"],
                       "--max-arity", "2")
    assert code == 0
    assert "0 disagreements" in out


@pytest.mark.parametrize("arity", ["0", "-1"])
def test_sugeno_compare_rejects_arity_below_one(files, capsys, arity):
    """It used to print nothing and exit 0."""
    code, out, err = run(capsys, "sugeno-compare", "--lattice", files["c3.lat"],
                         "--max-arity", arity)
    assert (code, out) == (2, "")
    assert f"--max-arity must be at least 1, got {arity}" in err
    assert "Traceback" not in err


def test_product_emits_parseable_lattice(files, capsys):
    code, out, _ = run(capsys, "product", files["c2.lat"], files["c3.lat"])
    assert code == 0
    L = io.parse_lattice(out)
    assert L.size == 6
    assert "# factor 0" in out


def test_hsum_emits_parseable_lattice(files, capsys):
    code, out, _ = run(capsys, "hsum", files["c3.lat"], files["c3.lat"])
    assert code == 0
    L = io.parse_lattice(out)
    assert L.size == 4
    assert "# element 1: summand 0" in out


def test_parse_errors_exit_2(files, capsys):
    code, _, err = run(capsys, "sugeno", "--lattice", files["c3.lat"],
                       "--capacity", files["broken.cap"],
                       "--input", "0", "0")
    assert code == 2
    assert "bottom" in err


@pytest.mark.parametrize("argv", [
    ("sugeno", "--capacity", "negative.cap", "--input", "0"),
    ("capacity-of", "--function", "negative.fn"),
])
def test_negative_arity_exits_2(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    code, _, err = run(capsys, *argv, "--lattice", files["c3.lat"])
    assert code == 2
    assert err.startswith("error: line 2: arity must be non-negative")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sugeno", "--capacity", "huge.cap", "--input", "0"),
    ("capacity-of", "--function", "huge.fn"),
])
def test_huge_arity_exits_2(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    code, _, err = run(capsys, *argv, "--lattice", files["c3.lat"])
    assert code == 2
    assert err.startswith("error: line 2: arity 100000000 exceeds the limit")
    assert "Traceback" not in err


def test_deep_polynomial_exits_2(files, capsys):
    code, out, err = run(capsys, "compat", "--poly", files["deep.poly"],
                         "--lattice", files["c3.lat"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: polynomial nested deeper than")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compat", "median-check", "synthesize"])
def test_polynomial_of_too_many_inputs_exits_2(files, capsys, command):
    code, out, err = run(capsys, command, "--poly", files["wide.poly"],
                         "--lattice", files["c3.lat"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: the input grid of arity 31 would have")
    assert "Traceback" not in err


def test_a_far_projection_exits_2_before_forming_its_grid(files, capsys):
    """The grid of arity 5000001 is refused by its arity alone; forming
    3 ** 5000001 first took about 1.5 s and its message raised ValueError."""
    start = time.perf_counter()
    code, out, err = run(capsys, "compat", "--poly", files["far.poly"],
                         "--lattice", files["c3.lat"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == ("error: the input grid of arity 5000001 would have more than "
                   f"{tables.MAX_ENTRIES} entries, the limit\n")


@pytest.mark.parametrize("argv", [
    ["info", "--lattice", "latin1.txt"],
    ["compat", "--lattice", "c3.lat", "--function", "latin1.txt"],
    ["compat", "--lattice", "c3.lat", "--poly", "latin1.txt"],
    ["capacity-of", "--lattice", "c3.lat", "--function", "latin1.txt"],
    ["sugeno", "--lattice", "c3.lat", "--capacity", "latin1.txt", "--input", "0", "1"],
    ["product", "c3.lat", "latin1.txt"],
    ["hsum", "c3.lat", "latin1.txt"],
], ids=["info --lattice", "compat --function", "compat --poly", "capacity-of --function",
        "sugeno --capacity", "product", "hsum"])
def test_a_file_that_is_not_utf8_exits_2(files, capsys, argv):
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert err == (f"error: {files['latin1.txt']}: not UTF-8 "
                   "(invalid continuation byte at byte 11)\n")


def test_selected_meets_over_the_limit_exit_2(files, capsys, monkeypatch):
    """Under this limit the grid of a ternary term over chain(2) fits (24
    entries) but its selected meets (8 masks * 8 inputs) do not; the plan
    cache is cleared so that no part built under the real limit is reused."""
    monkeypatch.setattr(tables, "MAX_ENTRIES", 63)
    tables._plan.cache_clear()
    code, out, err = run(capsys, "synthesize", "--poly", files["ternary.poly"],
                         "--lattice", files["c2.lat"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: the selected meets of arity 3 would have 64")
    assert "Traceback" not in err


def test_oversized_lattice_exits_2(files, capsys):
    code, out, err = run(capsys, "congruences", "--lattice", files["huge.lat"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: element count 1000000000 exceeds")
    assert "Traceback" not in err


@pytest.mark.parametrize("key, element", [("ghost.lat", 7), ("neg.lat", -1)])
def test_label_outside_carrier_exits_2(files, capsys, key, element):
    code, out, err = run(capsys, "congruences", "--lattice", files[key])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line 4: label for {element} outside carrier")
    assert "Traceback" not in err


def test_missing_file_exits_2(files, capsys):
    code, _, err = run(capsys, "info", "--lattice", "no-such-file.lat")
    assert code == 2


def test_verify_suite(files, capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts")
    assert code == 0
    assert "[PASS] AC03" in out
    assert "1/1 checks passed" in out


def test_verify_output_is_deterministic(files, capsys):
    first = run(capsys, "verify", "--suite", "principal")
    second = run(capsys, "verify", "--suite", "principal")
    assert first == second


def test_verify_json_mode(files, capsys):
    import json
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == payload["passed"] == 1
    assert payload["checks"][0]["id"] == "AC03"


def test_sugeno_compare_json_mode(files, capsys):
    import json
    code, out, _ = run(capsys, "sugeno-compare", "--lattice", files["c3.lat"],
                       "--max-arity", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [r["arity"] for r in payload] == [1, 2]
    assert all(r["disagreements"] == [] for r in payload)
