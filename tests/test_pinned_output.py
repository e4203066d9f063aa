"""Byte-for-byte outputs that every change keeps: the ``verify --json``
report and the stdout of each demo, pinned by their sha256 digests."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latcong.cli import main

ROOT = Path(__file__).parent.parent
VERIFY_JSON_SHA256 = "37af9d1b89a7b4a79c4fd249df08792495a7d9e8b46dae49ea5040a00d13af1d"
DEMO_SHA256 = {
    "01_lattices.py": "3c2c39071fefff0b47959f2b52d2cf70c7a5f126cfda653bde147b0a38f11f05",
    "02_congruences.py": "d5772ca586bb56412e4fff501b34cc0b5b7ccff50f4e187e2ea7baa659e6702b",
    "03_sugeno.py": "52507a27584050b1f807596dbad0a63fa2a54efab1a14729456a779c9cde615c",
    "04_compatibility.py": "3256cd3a05ee3bf5fb1def317ffd44fe88ce5ffb0724421ddf6a6948267eba8d",
    "05_constructions.py": "aa151ce1a65853cf8464a914238423b555b0dffc3f2a3a18ec13bd803e87efb2",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_verify_json_bytes(capsys):
    assert main(["verify", "--json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VERIFY_JSON_SHA256


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_bytes(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert _sha256(done.stdout) == DEMO_SHA256[name]
