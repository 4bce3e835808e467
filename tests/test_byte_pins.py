"""sha256 pins of the command line's stdout for the exact request paths at depth 64.

The pins were taken before the r family, the Q projection and the Q series moved
onto integer numerators; any change in the bytes these requests print fails here.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from intlegendre.cli import main
from intlegendre.exactpoly import Poly
from intlegendre.qfamily import X2_MINUS_1

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

# Members 40..64 only, at and below the top, and L inputs deeper than N, whose residual's
# Legendre rows are built at the residual's degree. Pinned before the table builders
# stopped building the rows below the requested range.
PARTIAL_TABLE_PINS = {
    ("L", "json", "exact"): "0d08abbbd509d37784c5d5832cc58bc0185bfaebbb7c409a5d93b6068af510a8",
    ("L", "json", "float"): "ba838cd22f4dea531faca5de00cc099dbb65ded4620bc7a97f47aec04793d92f",
    ("L", "csv", "exact"): "da8a9516e93dd058b82a335cef42237a0b1b960adbd0d6c666242738728f8300",
    ("L", "csv", "float"): "531dd6bc163d383347a05a2cca04a23eb1c0e5b7b877b2dbef277dd14d6d0dec",
    ("Q", "json", "exact"): "946b52e9dd86eba36321681820b1a7530de21fa028e1a2ca817424588952c163",
    ("Q", "json", "float"): "5c6c53e31a6050db2df1edd34fa36ce28f4db83fa476044b0acf4138e3b9ca6c",
    ("Q", "csv", "exact"): "9ada934c97857e10aae08c294f0bff9e7fe3723e84cbf176ff72c82dab5a0ce4",
    ("Q", "csv", "float"): "e84851299be675ca112b89cbd542f0a5d683662c910021d1a32eef32b4b82694",
    ("r", "json", "exact"): "0f2d14c4877d6ac325e902860bb4a4716d8e18d7eb8313bc83c0ace70bb90b23",
    ("r", "json", "float"): "5b0aeffcba491cca67828f4d60ac8a21cba24efe0851bf585c1a90e6eb457dd9",
    ("r", "csv", "exact"): "dd10c6ed843abfd8cdc210373504b82888fe12a9fb0676cc0053b7f19fc379e6",
    ("r", "csv", "float"): "6244662045b90586ae3b982f1ce5ac74393d1cff1f9014499645cc73173e341c",
}

PARTIAL_POINTS_PINS = {
    "L": "66d3e8c9f1904f4f78e3bcf758089c1d238b4b91453e09cc99b93b93fa8d5256",
    "Q": "6243e738eb987daa38c89910c83dab333195383a712b04401ae1791b9729b66b",
    "r": "83ad4c3cc95852b0f7d2b0470af7f91ec7c4c29562dac968d6a0a9b96500022d",
}

DEEP_L_INPUT_PINS = {
    ("expand", "--poly=L60", "--N", "8"):
        "fa235217fad70e22561319836ed41bcf1073985ec3039878cde5cd177a2a66a2",
    ("expand", "--poly=L60", "--N", "8", "--format", "csv"):
        "efe7e82b4236d0124ff2a0d715bd5fd5fdde4b29b1430418a6fed28cc1db2fc2",
    ("expand", "--poly=L64", "--N", "2"):
        "fd9987a238337d724f8a303d84ed712c31fb41a5841dcef62ccda146c72f75a5",
}

_RNG_VANISHING = random.Random(2027)
# a random degree-12 polynomial that vanishes at both endpoints: its residual at N = 4 has the
# finite weighted norm of the Parseval tail
VANISHING_POLY = ",".join(map(str, (X2_MINUS_1 * Poly(
    [Fraction(_RNG_VANISHING.randint(-99, 99), _RNG_VANISHING.randint(1, 99))
     for _ in range(11)])).coeffs))

# The minimizer at both parities and the expansion's edge cases: members at the ends of the
# range, a constant, the zero input, and vanishing inputs deeper than N. Pinned before
# expand --poly moved onto the input's Legendre coefficients and minimize onto one member.
EDGE_PINS = {
    ("minimize", "--n", "2"): "5aa3074e439f8568c3cfec51c3c6b83da6d330d36d8ac9a00864116f52391342",
    ("minimize", "--n", "3"): "ee802c67e7cc28f650b4ce4f81923f77d2c1f02cd477e80dc790f5ab00b169d4",
    ("minimize", "--n", "33"): "bf4c03abbb88844568e5f11179a470a4bc7228a19fcbb5ee3127cd6932f54dc4",
    ("minimize", "--n", "63"): "6cd1c9fe99a37dc1033c22163de5ae23db4a4eb29cfabae72c01e7bdbf29e225",
    ("expand", "--poly=Q64", "--N", "64"):
        "0f83c74e854455e7dbac3c48cc1c7754f15ce52ec2bdba2491b739d21c62860c",
    ("expand", "--poly=Q2", "--N", "2"):
        "2ff95cd717bc33f1ed2fc2844b42d59d0b4bca98f052d9c2458f1e674654d4a3",
    ("expand", "--poly=L0", "--N", "2"):
        "3a49f3d64af7bfa06b55312d249ac244a9f435b28c104aa7ca3fdf8e29141bea",
    ("expand", "--poly=0,-1,0,1", "--N", "2"):
        "55d164d7ac775ea63ec1543ff457c465f788dc6143e032cde58659873b2e2f08",
    ("expand", "--poly=0", "--N", "5"):
        "b068b8902d0b54611a7fad40e926f03213410e8f9f383b523618a63e2894fb3e",
    ("expand", f"--poly={VANISHING_POLY}", "--N", "4"):
        "cffda04f0f4cf0b5e1bceef25f7d9aeaab45b9dddb67e7d55fcbf84bc42a56d8",
    ("expand", f"--poly={VANISHING_POLY}", "--N", "4", "--format", "csv"):
        "1398857ea4036ec5d0753055406ef1137050cb7bb792c848aa28b8d7c1dae8fb",
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


@pytest.mark.parametrize("family, fmt, backend", sorted(PARTIAL_TABLE_PINS))
def test_table_40_to_64_is_byte_pinned(capsys, family, fmt, backend):
    argv = ("table", "--family", family, "--degrees", "40..64", "--format", fmt,
            "--backend", backend)
    assert _stdout_sha256(capsys, argv) == PARTIAL_TABLE_PINS[family, fmt, backend]


@pytest.mark.parametrize("family", sorted(PARTIAL_POINTS_PINS))
def test_table_40_to_64_at_points_is_byte_pinned(capsys, family):
    argv = ("table", "--family", family, "--degrees", "40..64", "--points", "0.5,-0.999",
            "--backend", "float")
    assert _stdout_sha256(capsys, argv) == PARTIAL_POINTS_PINS[family]


@pytest.mark.parametrize("argv", list(DEEP_L_INPUT_PINS), ids=["L60-N8", "L60-N8-csv", "L64-N2"])
def test_expand_of_an_l_input_deeper_than_n_is_byte_pinned(capsys, argv):
    assert _stdout_sha256(capsys, argv) == DEEP_L_INPUT_PINS[argv]


@pytest.mark.parametrize("argv", list(EDGE_PINS), ids=[
    "minimize-2", "minimize-3", "minimize-33", "minimize-63", "expand-Q64-N64", "expand-Q2-N2",
    "expand-L0-N2", "expand-cubic-N2", "expand-zero-N5", "expand-vanishing-N4",
    "expand-vanishing-N4-csv"])
def test_minimize_and_expansion_edge_cases_are_byte_pinned(capsys, argv):
    assert _stdout_sha256(capsys, argv) == EDGE_PINS[argv]
