"""scripts/full_verify.py: one `ucfam verify` run per ground size, exit codes passed through."""
import runpy
import sys
from pathlib import Path

import pytest

from ucfam.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "full_verify.py"


def run_script(monkeypatch, tmp_path, *argv):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *argv, "--outdir", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return exc.value.code


@pytest.mark.parametrize(
    "argv,code",
    [
        (("--max-n", "5", "--samples", "0"), 2),  # random mode without samples
        (("--max-n", "17", "--samples", "1"), 3),  # past the sampler's ground limit
        (("--max-n", "0", "--parallel", "0"), 2),
    ],
    ids=["no-samples", "over-capacity", "no-workers"],
)
def test_failed_run_stops_with_its_exit_code(monkeypatch, tmp_path, capsys, argv, code):
    assert run_script(monkeypatch, tmp_path, *argv) == code


def test_reports_match_cli(monkeypatch, tmp_path, capsys):
    assert run_script(monkeypatch, tmp_path, "--max-n", "2") == 0
    out = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"verify-n{n}-exhaustive.json" for n in range(3)
    ]
    for n in range(3):
        assert f"== n = {n} (exhaustive)" in out
        assert main(["verify", "--n", str(n), "--json"]) == 0
        assert (tmp_path / f"verify-n{n}-exhaustive.json").read_text() == capsys.readouterr().out
