"""prob's one SHA-256 constructor: CPython's built-in sha2, hashlib's only as
the fallback, and no OpenSSL loaded by importing pfrlab or running it."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pfrlab import prob
from conftest import SHA256, substitute_sha256

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def python(code, *args):
    """The stdout of a fresh interpreter that runs code with pfrlab on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.split()


def test_is_cpython_builtin():
    assert SHA256.__module__ in ("_sha2", "_sha256")


@pytest.mark.parametrize("message, digest", [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
])
def test_fips_180_2_vectors(message, digest):
    assert SHA256(message).hexdigest() == digest == hashlib.sha256(message).hexdigest()


def test_equals_hashlib_at_every_length_to_200():
    # 55/56, 64 and 119/120 bytes are the padding edges of one and two blocks
    rng = np.random.default_rng(180)
    for n in range(201):
        message = rng.bytes(n)
        assert SHA256(message).digest() == hashlib.sha256(message).digest(), n


def test_every_hashing_site_calls_it(monkeypatch):
    calls = []
    substitute_sha256(monkeypatch, lambda data=b"": calls.append(data) or SHA256(data))
    key = bytes(32)
    sites = (lambda: prob._kdf(b"k"),
             lambda: prob._kdf_many((b"h",), [b"m0", b"m1"], (b"t",)),
             lambda: prob.key_words([key], 0, 2),
             lambda: prob.block_words([key], [5]),
             lambda: prob.RngState(key).uint64(5))
    counts = []
    for site in sites:
        before = len(calls)
        site()
        counts.append(len(calls) - before)
    assert counts == [1, 2, 2, 1, 2]


def test_falls_back_to_hashlib_without_builtin_sha2():
    key = bytes(range(32))
    got = python(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from pfrlab import prob\n"
        "key = bytes(range(32))\n"
        "print(prob._sha256 is hashlib.sha256, prob._kdf(b'pfrlab', key).hex(),\n"
        "      prob.key_words([key], 3, 2).tobytes().hex())\n")
    assert got == ["True", prob._kdf(b"pfrlab", key).hex(),
                   prob.key_words([key], 3, 2).tobytes().hex()]


def test_import_loads_no_openssl():
    # the pytest process has hashlib loaded already, so look from a fresh one
    got = python("import sys, pfrlab, pfrlab.cli\n"
                 "print([m for m in ('hashlib', '_hashlib') if m in sys.modules])")
    assert got == ["[]"]


@pytest.mark.parametrize("config", sorted(p.name for p in DEMOS.glob("*.json")))
def test_demo_runs_load_no_openssl(tmp_path, config):
    got = python(
        "import json, sys\n"
        "from pfrlab.cli import main\n"
        "mode = json.load(open(sys.argv[1]))['mode']\n"
        "code = main([mode, '--config', sys.argv[1], '--out', sys.argv[2],\n"
        "             '--trials', '200'])\n"
        "print(code, '_hashlib' in sys.modules)\n",
        str(DEMOS / config), str(tmp_path / "out"))
    assert got == ["0", "False"]
