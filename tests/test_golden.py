"""Golden outputs: the exact bytes of the CLI outputs that are exact on every
platform, pinned by sha256 so that a refactor which changes any byte fails.

The reference engine's JSON angles come from libm ``arccos`` and may differ
in the last digit between platforms, so they are not pinned; its CSV holds
verdicts and indices only.
"""

import hashlib
import os
from unittest import mock

import pytest

from siftmatch import descriptors, rowtext, search
from siftmatch.cli import main
from siftmatch.descriptors import (
    DescriptorSet,
    generate_synthetic,
    save_descriptor_set,
)

# (queries, database) of each fixture: the arguments of generate_synthetic.
FIXTURES = {
    ("q.siftdb", "d.siftdb"): (60, 5, 0.5, 0.02),
    # Near the threshold: 8 reference ratios lie in [19/32, 0.6), so the two
    # pipeline threshold modes give different verdicts (49 vs 41 matches).
    ("nq.siftdb", "nd.siftdb"): (1000, 21, 0.7, 0.06),
}

FIXTURE_SHA256 = {
    "q.siftdb": "dcd81c7782f16fbb6c6672b0ffeaf85a77b2bd9b0c869ff9fc042bdf1103caad",
    "d.siftdb": "c547cd619cd15e64fe69ef122c7358d780600f9d9c35d4881dec961ae9b64859",
    "nq.siftdb": "76e571be900a833f9f28183206dd67056e23031cc6e56be901341057fa299647",
    "nd.siftdb": "39e527cc00e671c4e9caad87ee9abcf25a914269ca3c6b99685ab1dd12b13dd5",
    "hq.siftdb": "f84c66afaac783f564f7d0edb4fbf4daf6170f555d7f6b6b9e20fb9c88aa050b",
}
# The queries of q.siftdb with the raws of this row halved: a load that
# renormalizes one row and quantizes it again.
HALF_NORM_ROW = 5

MATCH = ("match", "-q", "q.siftdb", "-d", "d.siftdb")
NEAR = ("match", "-q", "nq.siftdb", "-d", "nd.siftdb", "--format", "csv")
NEAR_JSON = ("match", "-q", "nq.siftdb", "-d", "nd.siftdb", "--engine", "pipeline")
HALF = ("match", "-q", "hq.siftdb", "-d", "d.siftdb")
# 1000-row reports: written in several pieces when CHUNK_ROWS is patched.
MULTI_PIECE = (NEAR_JSON, (*NEAR_JSON, "--threshold-mode", "binary_10011"))

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
    # Every settable value of PipelineConfig away from its default.
    ("roofline", "--clock-hz", "2e8", "--descriptor-bytes", "260",
     "--bandwidths", "1e9,3.2e9,1e12"):
        "542147a8c29be6bff13b573bd167ef808318374b5cd17a82d4051d93a38390fb",
    ("bench", "--block-size", "7", "--clock-hz", "5e7"):
        "a8b1347b520cf86fb5a028b3873e1ef9bca73537815ffff7f7323b1c9504e6b5",
    ("bench", "--block-size", "7", "--clock-hz", "5e7", "--json"):
        "de81dce9c301b20f226a0192ce771558425282f69dc80bba208f8c8df33e1edd",
    (*MATCH, "--engine", "pipeline", "--block-size", "7", "--clock-hz", "5e7"):
        "3f236a66e46206758076bed540d2824e7a5b1e2ce6728642da88ff8477dae6ab",
    ("characterize",):
        "b28e81c80f7d75c5123d631ff371e563964586c11e8cf0afdbffd104333654fb",
    NEAR:
        "3caaa3b09a78080df98fae9df58d94ddfef6c85c01c3cfe5b3eabdfb44ef27fa",
    (*NEAR, "--engine", "pipeline"):
        "1f793379c072843a565a60b43ad1ac4e4dd06a48095c808f4a34b4b18511c53b",
    (*NEAR, "--engine", "pipeline", "--threshold-mode", "binary_10011"):
        "60e8a667887cc0b3f52377cb203aa624b2876bdceed6efd332ccfb7c094ec68f",
    MULTI_PIECE[0]:
        "b6b86a6640b551405222e8fad9ff5e86741ceb1c2df97f5632a443c908d80e8c",
    MULTI_PIECE[1]:
        "81dc389ce794ccb06866931ceef480a95aa4c8f86702872ca02492cc3cbce3d2",
    (*HALF, "--engine", "pipeline"):
        "71991a54f595b7c4c16cfb95e63b645549fb7ea4a1d688f68549ca561e444811",
    (*HALF, "--engine", "pipeline", "--format", "csv"):
        "c2a10ccd78dec6d7d9ef8479f315fbf67c3bfb2df1757d2ef083bf5b6f6e18ae",
    (*HALF, "--format", "csv"):
        "f3bfe59f7856914bd3a5463b592b9db7716ab0d48d4ea527d59c5e4df225a876",
}

# The files of `generate` with the arguments of q.siftdb and d.siftdb.
GENERATE = ("generate", "-m", "60", "--seed", "5", "--match-fraction", "0.5",
            "--noise", "0.02", "-o", "g")
TRUTH_SHA256 = "c78da30efd30f5c65535a850d2b54af91ce6f5d9f3b5730b45c99d53cd760505"
GENERATED = {
    "binary": {"g_a.siftdb": FIXTURE_SHA256["q.siftdb"],
               "g_b.siftdb": FIXTURE_SHA256["d.siftdb"],
               "g_truth.csv": TRUTH_SHA256},
    "text": {
        "g_a.siftd":
            "382818d754800212d3f98293b29c2bae6d4c4f6bd59197a4ff7c42fe3c179017",
        "g_b.siftd":
            "d95f3abd3ce6d866370d3fb969d288b6f2956e21d4879483579462290cc0049c",
        "g_truth.csv": TRUTH_SHA256},
}


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for names, args in FIXTURES.items():
        for name, set_ in zip(names, generate_synthetic(*args)):
            save_descriptor_set(set_, path / name)
    queries = generate_synthetic(*FIXTURES["q.siftdb", "d.siftdb"])[0]
    raws = queries.raws.copy()
    raws[HALF_NORM_ROW] //= 2
    save_descriptor_set(DescriptorSet.from_raws("hq", raws, queries.xy),
                        path / "hq.siftdb")
    assert {name: sha256(path / name) for name in FIXTURE_SHA256} \
        == FIXTURE_SHA256
    return path


@pytest.fixture
def workdir(fixture_dir, monkeypatch):
    monkeypatch.chdir(fixture_dir)


@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_output_bytes(workdir, args):
    assert main([*args, "-o", "out"]) == 0
    assert sha256("out") == GOLDEN[args]


@pytest.mark.parametrize("args", MULTI_PIECE, ids=" ".join)
def test_piece_size_does_not_change_bytes(workdir, args):
    with mock.patch.object(rowtext, "CHUNK_ROWS", 97):  # 11 pieces
        assert main([*args, "-o", "out"]) == 0
    assert sha256("out") == GOLDEN[args]


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_bands_do_not_change_bytes(workdir, capsysbinary, args, to_file):
    """Queries matched and written 97 at a time, in fills of 41 rows, give
    the bytes of one band: the 1000-row reports take 11 bands."""
    with mock.patch.object(search, "BAND_ROWS", 97), \
            mock.patch.object(rowtext, "CHUNK_ROWS", 41):
        assert main([*args, "-o", "out" if to_file else "-"]) == 0
    written = capsysbinary.readouterr().out
    if to_file:
        assert not written and sha256("out") == GOLDEN[args]
    else:
        assert hashlib.sha256(written).hexdigest() == GOLDEN[args]


@pytest.mark.parametrize("pieces", ["default", "small"])
@pytest.mark.parametrize("fmt", list(GENERATED))
def test_generate_bytes(tmp_path, monkeypatch, fmt, pieces):
    """Reads of 7 binary or 3 text rows give the bytes of the default
    pieces."""
    monkeypatch.chdir(tmp_path)
    if pieces == "small":
        monkeypatch.setattr(descriptors, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(descriptors, "_TEXT_ROWS", 3)
    assert main([*GENERATE, "--format", fmt]) == 0
    assert {name: sha256(name) for name in os.listdir()} == GENERATED[fmt]
