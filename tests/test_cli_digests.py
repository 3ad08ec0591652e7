"""Frozen sha256 digests of CLI stdout and of an emitted certificate.

Each command runs in-process through `cli.main`; its report on stdout is
canonical JSON, so any change to a report, a certificate or an exit code
shows up here as a digest or exit-code mismatch.  A report may only change
when a schema bump says so; these digests are then retaken on purpose.
"""

import hashlib

import pytest

from operahedra import cli

MACLANE_QUERY = [
    "--maclane", "((ab)c)d",
    "--w1", "beta@0.1.2 beta@0.1",
    "--w2", "beta@0.1 beta@0.1.2 beta@1.2",
]

REPORTS = {
    "gen_linear7": (
        ["gen", "--linear", "7"],
        "35d9b2b2216be6902b8a316505cc112c09260f0af4218b9e5fb71c401c2950d1",
    ),
    "morse_all_trees6": (
        ["check", "morse", "--all-trees", "6"],
        "f9299fd0e8fe8d839c37336cb922d480da3e85ec1852d5d1bfed2dd5ce1edad1",
    ),
    "confluence_all_trees6": (
        ["check", "confluence", "--all-trees", "6", "--strategies", "5"],
        "2917b0314118a23be4bf54b6f74c1f4c3fa2f9523ca644edcbdc1e992dde6f96",
    ),
    "normalize_maclane": (
        ["normalize", "--maclane", "((ab)c)d"],
        "1a03c8f1028687c19311b147756ed3d356ee82fae8dc6ce85b89aa9dcbfe3833",
    ),
}

WITNESS_REPORT = "d0cbb396417c143bfc3533a9f02deda4e2d57adf9d4a023b7c0f4c5c2f8e4d51"
WITNESS_CERT = "3ecb71531bca0aba512c7ce6472d1b31ab6e5cd312304ee3de347b7cc12e8ea3"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_digest(name, capsys):
    argv, digest = REPORTS[name]
    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_witness_report_and_certificate_digests(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    assert cli.main(["witness", *MACLANE_QUERY, "--emit-cert", str(cert)]) == 0
    assert sha256(capsys.readouterr().out) == WITNESS_REPORT
    assert sha256(cert.read_text()) == WITNESS_CERT
