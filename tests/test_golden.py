"""Byte-identity of the reference CLI outputs.

Checked here: the three reference runs (the default 201 x 121 CSV sweep at
omega = 400, kappa = -1/2; a 121 x 61 JSON-lines grid at omega = 4,
kappa = -2, where about 15 % of the rows are error rows; and a lambda scan
from 0 to 12 in steps of 0.002 at delta = 0) write exactly the bytes whose
sha256 digests are recorded below.  The digests were taken from the program
before any performance work, so a faster path must reproduce every bit.

Also checked: the stdout of meanfield, spectrum and critical --delta at the
reference parameters, at delta = 0.2 (normal phase) and delta = 0.8
(superradiant), and of critical --lambda 5.  These go through the closed
form and the effective-frequency helper; their digests were taken before
those were reworked for speed.  The two spectrum digests were re-taken when
the spectrum moved from LAPACK to plain float arithmetic: every printed
energy is as near or nearer a 60-digit reference on the same f1 and f2, and
the digits no longer depend on the host's LAPACK build.

Also checked: the stdout of `iddm --help` and of each `iddm CMD --help` at
COLUMNS=80, whose digests were taken before the parser was changed to give
options only to the subcommand that runs.
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


_POINT = {d: ["--delta", d] for d in ("0.2", "0.8")}

STDOUT_GOLDEN = {
    "meanfield-normal": (["meanfield", *_FIG2, *_POINT["0.2"]],
                         "b8232ca7bf1a91021345fec630ed111b5bdd755c935cc8885432579af98a717e"),
    "meanfield-superradiant": (["meanfield", *_FIG2, *_POINT["0.8"]],
                               "396002d9f6e706e919df52d255aaa6b0ab5475d2d00d89de786d38c365db9989"),
    "spectrum-normal": (["spectrum", *_FIG2, *_POINT["0.2"]],
                        "ecf111d5f1320812f3e71ac769216cf152e0d2d061d88bbd3154e5fba7cf572c"),
    "spectrum-superradiant": (["spectrum", *_FIG2, *_POINT["0.8"]],
                              "4d8b8824b9495bce743c947024a59986a227fa0a80a16d9f777be582d427834e"),
    "critical-delta-normal": (["critical", *_FIG2[:6], *_POINT["0.2"]],
                              "276820794a47887f0ca64f9774bc71fb868d1caf1d416bf8c681d77af82fc0a9"),
    "critical-delta-superradiant": (["critical", *_FIG2[:6], *_POINT["0.8"]],
                                    "33c9ce52894d7b69ee1d79b6a6445d6b70c2cd2d0acb5839b9e7d9a30a805c70"),
    "critical-lambda": (["critical", *_FIG2],
                        "d9361c1a17b36ceba0fdfb097f20e90cd05059ccf7edd46412f4d60276d608a9"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_reference_output_digest(tmp_path, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / name
    assert main([*argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", STDOUT_GOLDEN)
def test_reference_stdout_digest(capsys, name):
    argv, digest = STDOUT_GOLDEN[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


HELP_GOLDEN = {
    "iddm": "e82f3418a2f0b53a5d7c231f3ecb10b3b25a43cf46f214b38d7c14866134426b",
    "critical": "d8af44ed54231733e70dc085c23a439abd19aaa4e01270782d0717809d795d77",
    "meanfield": "865257d64e1868cc8e3d05bf5101b8028984aa684c90280d05f0235b337bdff9",
    "sweep": "1a8b4d415bdd1bf1055bee2647187b336b83437f06569876f7201c75a9470bff",
    "deriv": "3d75db860e999b75ea7020706c1953443363d101d64bd9fbfeac8d4af7246bd3",
    "spectrum": "020c22010c7ccd21f7ce00e779ae42418dce1a5b42372b8b6a76cda18a49f885",
    "ed": "ef9d8a59deccd914459cb86c828674548836123d6a9bf47aaa3d47d901b9472d",
    "measure": "edc4795917918c933acdf5ef20e2517a3994ba2a9e0cba38b45f219431666f35",
}


@pytest.mark.parametrize("command", HELP_GOLDEN)
def test_help_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(["--help"] if command == "iddm" else [command, "--help"])
    assert exited.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == HELP_GOLDEN[command]
