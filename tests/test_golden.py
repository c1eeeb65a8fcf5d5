"""Golden outputs: the exact bytes of the CLI outputs that are exact on every
platform, pinned by sha256 so that a refactor which changes any byte fails.

The reference engine's JSON angles come from libm ``arccos`` and may differ
in the last digit between platforms, so they are not pinned; its CSV holds
verdicts and indices only.
"""

import hashlib

import pytest

from siftmatch.cli import main
from siftmatch.descriptors import generate_synthetic, save_descriptor_set

FIXTURE_SHA256 = {
    "q.siftdb": "dcd81c7782f16fbb6c6672b0ffeaf85a77b2bd9b0c869ff9fc042bdf1103caad",
    "d.siftdb": "c547cd619cd15e64fe69ef122c7358d780600f9d9c35d4881dec961ae9b64859",
}

MATCH = ("match", "-q", "q.siftdb", "-d", "d.siftdb")

GOLDEN = {
    (*MATCH, "--format", "csv"):
        "f3bfe59f7856914bd3a5463b592b9db7716ab0d48d4ea527d59c5e4df225a876",
    (*MATCH, "--format", "csv", "--threshold-mode", "binary_10011"):
        "f3bfe59f7856914bd3a5463b592b9db7716ab0d48d4ea527d59c5e4df225a876",
    (*MATCH, "--format", "csv", "--engine", "pipeline"):
        "296165c209685d7ecfccb5503760c84313bb384ab0270e24574613356b2c79b2",
    (*MATCH, "--format", "csv", "--engine", "pipeline",
     "--threshold-mode", "binary_10011"):
        "296165c209685d7ecfccb5503760c84313bb384ab0270e24574613356b2c79b2",
    (*MATCH, "--engine", "pipeline"):
        "bc1856257fc2ee757de5f47374c6ac66742b30a360b7c04f64fa766a5d9cccaf",
    (*MATCH, "--engine", "pipeline", "--threshold-mode", "binary_10011"):
        "a24e373183c58be3e57894da3808e3aff3186f56b540d932628e513b53703cca",
    ("bench",):
        "cedae676f9b10a40291d067e9c9909f78f18828545bd7da641ba304866902862",
    ("bench", "--json"):
        "b83e55413230f499905c32c75afe505cfec0f174439363e71bda7f2d1a77d5dc",
    ("roofline",):
        "5cf812f5a30356b48ecbfcffecee3713ac7b1b19628dc391768e5a594f9eb2a5",
}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    queries, db, _ = generate_synthetic(60, 5, 0.5, 0.02)
    save_descriptor_set(queries, "q.siftdb", "binary")
    save_descriptor_set(db, "d.siftdb", "binary")
    assert {name: sha256(name) for name in FIXTURE_SHA256} == FIXTURE_SHA256


@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_output_bytes(workdir, args):
    assert main([*args, "-o", "out"]) == 0
    assert sha256("out") == GOLDEN[args]
