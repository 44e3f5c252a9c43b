"""SHA-256 pins of CLI output bytes: reports, diagnoses, maps and the dictionary.

Each digest was taken from the program's output before the map pipeline,
the per-fault diagnosis path and the fault serializer were merged into one
owner each; any change to these bytes is a change of the output contract.
"""

import hashlib
import json
from pathlib import Path

import pytest

from chipletbist.cli import main

REPO = Path(__file__).resolve().parents[1]
CONFIG = REPO / "configs" / "campaign_16x16_hex.json"


def sha256(data) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def run_cli(capsys, *argv):
    status = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert status == 0, captured.err
    return captured.out


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    # The shipped config names a relative report path; keep it out of the repo.
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_simulate_report_and_metrics_bytes(in_tmp, capsys):
    out = run_cli(capsys, "simulate", "--config", CONFIG)
    assert sha256((in_tmp / "campaign_report.json").read_bytes()) == (
        "311ce845e422fd3c2dba0ba84823a823ce2709fc62cd02f0098f9a5c0394736d"
    )
    assert sha256(out) == "e2387bf6bc9a022ed7cfffcb912e821906b381d428947db391b4cbdae6516b2f"


def test_simulate_csv_metrics_bytes(in_tmp, capsys):
    out = run_cli(capsys, "simulate", "--config", CONFIG, "--out", "r.json", "--format", "csv")
    assert out == (
        "injected,detected,detection_rate,inter_block_wired_or_escape_rate\n"
        "200,190,0.95,1.0\n"
    )
    assert sha256((in_tmp / "r.json").read_bytes()) == (
        "311ce845e422fd3c2dba0ba84823a823ce2709fc62cd02f0098f9a5c0394736d"
    )


@pytest.mark.parametrize(
    "extra,digest",
    [
        ((), "2511c0eb1e5f0c7e55f6f2d17468b3794401fb31be42c4760e2f4e156dc09d11"),
        (("--seed", "7"), "70e9b9e7ae8bede170beb02e27703b51bf78c648c8061a6f20e1d30a5f0930c0"),
    ],
)
def test_simulate_report_to_stdout_bytes(in_tmp, capsys, extra, digest):
    data = json.loads(CONFIG.read_text(encoding="utf-8"))
    del data["output"]
    (in_tmp / "c.json").write_text(json.dumps(data), encoding="utf-8")
    assert sha256(run_cli(capsys, "simulate", "--config", "c.json", *extra)) == digest


def test_diagnose_bytes(in_tmp, capsys):
    run_cli(capsys, "simulate", "--config", CONFIG)
    out = run_cli(capsys, "diagnose", "--report", "campaign_report.json")
    assert sha256(out) == "dd36ea81a24571f925492c63984671f924c1bc3df6c046b87a51b9713cb477c1"


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("--kind", "hexagonal", "--rows", 16, "--cols", 16, "--pitch-um", 20, "--blocks", 4),
            "03b770f6f20aebaef223db49eacea8f7c806b8b4af898fabc7dc3ae07c33d241",
        ),
        (
            (
                "--kind", "rectangular", "--rows", 9, "--cols", 7, "--pitch-um", 7.5,
                "--radius-factor", 1.0, "--blocks", 3,
            ),
            "0eccf4b6a3ec9cf7c398aba773b1cae96a16095e11d0bbfe63bb257386f58fd2",
        ),
    ],
)
def test_gen_map_bytes(capsys, argv, digest):
    assert sha256(run_cli(capsys, "gen-map", *argv)) == digest


@pytest.mark.parametrize(
    "fmt,digest",
    [
        ("text", "e1abb561d79fc3c3a9644a446b1b2821880b5cda1dc3e26082da671eb1207ce3"),
        ("json", "0d14b63f7024136d09f0f8ac5ab8ac2c6881945de23e4cc84210c3b7f61ec08b"),
        ("csv", "dde74e1d81fae3c767f614a43bd75ac8fa2e357c3956fa72f7721340b127ec28"),
    ],
)
def test_dictionary_bytes(capsys, fmt, digest):
    assert sha256(run_cli(capsys, "dictionary", "--format", fmt)) == digest
