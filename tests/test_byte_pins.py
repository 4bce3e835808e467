"""sha256 pins of the command line's stdout for the exact request paths at depth 64.

The pins were taken before the r family, the Q projection and the Q series moved
onto integer numerators; any change in the bytes these requests print fails here.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from intlegendre.cli import main

_RNG = random.Random(20260)
# a random rational polynomial of degree 70, past N = 64, so its residual is nonzero
RANDOM_POLY = ",".join(str(Fraction(_RNG.randint(-99, 99), _RNG.randint(1, 99)))
                       for _ in range(71))

TABLE_PINS = {
    ("r", "json", "exact"): "e705abcd3e198d2c2e984fd092d785a831417bde1f470403f566f7910b6ab79b",
    ("r", "json", "float"): "931920e4fe05fe1f966db5c7d15f1fbeda6417fb45c1ab040e73c3cad4d44cdd",
    ("r", "csv", "exact"): "a0de6575daa7eed0b4e8522c00ff50891411f88c5cb9722fe6ad28872579b281",
    ("r", "csv", "float"): "0d95068a25c3462d938b6b97445b075e51977de49cbdda8b13d297cf2a8aca8b",
    ("Q", "json", "exact"): "198bc94a373f2b132b3d1b2e433ef78446ccd4888f344720aff29906309ecefb",
    ("Q", "json", "float"): "d66bdb64844870d83c34b0cf0d16a6c7f9402670f36a1e09294c9ad55a18ea60",
    ("Q", "csv", "exact"): "08823b04ce22208eb78332a00d88915f23ca40b09946785684404f3d062e554d",
    ("Q", "csv", "float"): "905a2e43e84d8080b28759a0dd4232e3659ac7f3602d312782447b322143142d",
    ("L", "json", "exact"): "6820c6bfbc811a73c8d9014fed87795efcae79e19f7500c0e3cf0963eb6feb61",
    ("L", "json", "float"): "c052419caf77d476a97618de603b38da57d54cfb1ac30e53a4f41acb84711da0",
    ("L", "csv", "exact"): "a34c86954f5d744ba3e9a46f8192d06b2ef33dd2d11b03673354ab5da7fc5292",
    ("L", "csv", "float"): "4912270bff00b23f2524d575bcd6aabc4256a6f281ad3e5d5121745fafb723b4",
}

REQUEST_PINS = {
    ("expand", f"--poly={RANDOM_POLY}", "--N", "64"):
        "a43b04a793fdc93d07ce7f4d8fa0ff20e9162b2923510fbf345b73098c0381ff",
    ("expand", "--poly=L40", "--N", "64"):
        "bcbd33fb95b32eaabe1f3138c624f42d46492ee584be655fcc196f3b0f3a8306",
    ("expand", "--poly=Q40", "--N", "64"):
        "4eb75dbed2d7ef7cc55686d604ec0e36e11840300e107ad5e6632c1d1fe00a25",
    ("minimize", "--n", "64"):
        "2f72ff59fd8a0514f9ec96fef8ca6db6c3621bb99dc6aff7d3a0e0ef6def03d3",
}


def _stdout_sha256(capsys, argv) -> str:
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return hashlib.sha256(captured.out.encode()).hexdigest()


@pytest.mark.parametrize("family, fmt, backend", sorted(TABLE_PINS))
def test_table_to_64_is_byte_pinned(capsys, family, fmt, backend):
    lo = 2 if family == "Q" else 0
    argv = ("table", "--family", family, "--degrees", f"{lo}..64", "--format", fmt,
            "--backend", backend)
    assert _stdout_sha256(capsys, argv) == TABLE_PINS[family, fmt, backend]


@pytest.mark.parametrize("argv", list(REQUEST_PINS), ids=["expand-random", "expand-L40",
                                                          "expand-Q40", "minimize-64"])
def test_exact_request_at_64_is_byte_pinned(capsys, argv):
    assert _stdout_sha256(capsys, argv) == REQUEST_PINS[argv]
