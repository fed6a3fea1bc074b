"""Byte-identity of the reference CLI outputs.

Checked here: the three reference runs (the default 201 x 121 CSV sweep at
omega = 400, kappa = -1/2; a 121 x 61 JSON-lines grid at omega = 4,
kappa = -2, where about 15 % of the rows are error rows; and a lambda scan
from 0 to 12 in steps of 0.002 at delta = 0) write exactly the bytes whose
sha256 digests are recorded below.  The digests were taken from the program
before any performance work, so a faster path must reproduce every bit.
"""

import hashlib

import pytest

from iddm.cli import main

_FIG2 = ["--omega", "400.0", "--omega0", "1.0", "--kappa", "-0.5", "--lambda", "5.0"]

GOLDEN = {
    "phase.csv": (
        ["sweep", *_FIG2, "--delta-min", "-1.0", "--delta-max", "1.0", "--delta-count", "201",
         "--lambda-min", "0.0", "--lambda-max", "12.0", "--lambda-count", "121"],
        "08eb88085db05eec6ded12a110616b6d0cdf2fcb232d59403a66a7d6f4353555",
    ),
    "grid.jsonl": (
        ["sweep", "--omega", "4.0", "--omega0", "1.0", "--kappa", "-2.0", "--lambda", "5.0",
         "--delta-min", "-1.0", "--delta-max", "1.0", "--delta-count", "121",
         "--lambda-min", "0.0", "--lambda-max", "6.0", "--lambda-count", "61",
         "--format", "json-lines"],
        "04925b6b84b0d112500023f09fa916ec88d0bdf3e94a244a833ee680694de21d",
    ),
    "deriv.csv": (
        ["deriv", *_FIG2, "--wrt", "lambda", "--from", "0.0", "--to", "12.0", "--step", "0.002",
         "--delta", "0.0"],
        "3ef51fb4094491b38b7209b8596ce7d5978e446633f0110fc918beb2f60f0a93",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_reference_output_digest(tmp_path, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    assert main([*argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
