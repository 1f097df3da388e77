"""Smoke runs of the two command-line scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.fixture
def run_script(monkeypatch, capsys):
    def run(name, *args):
        monkeypatch.setattr("sys.argv", [name, *args])
        _main(name)()
        return capsys.readouterr().out.splitlines()

    return run


def test_certify_corpus(run_script, tmp_path):
    lines = run_script(
        "certify_corpus", "--out", str(tmp_path), "--seed", "1", "--count", "3", "--n-max", "7"
    )
    assert "w5-join-w5: certified (k=3, tree depth 2)" in lines
    assert "toft1: lambda > 3, outside the certified class" in lines
    assert lines[-1] == "8 certified, 3 outside class"
    assert (tmp_path / "w5.hgr").exists()


def test_sweep_bound(run_script):
    lines = run_script("sweep_bound", "--seed", "1", "--count", "30", "--n-max", "7")
    assert lines[0] == "30 instances, 16 tight (53.3%)"
    assert lines[1].split() == ["lambda", "tight", "slack"]
