import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
COMPARE = ROOT / "tools" / "output_compare.py"


def load_tool(name):
    """tools/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_faults_counts_factor_applications_as_columns(monkeypatch):
    # the tool sets BLAS thread counts and sys.path as it loads: on copies
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    # the held factor's start on (N, 3), then one column per PCG iteration
    shapes = [(2562, 3), (2562,), (2562,), (2562, 1), (2562, 2)]
    assert load_tool("step_faults").columns(shapes) == 3 + 1 + 1 + 1 + 2


def test_output_compare_reads_bitwise_or_the_relative_gap(tmp_path):
    kept = np.linspace(-1.0, 2.0, 7)
    moved = np.linspace(0.5, 4.0, 5)
    np.savez(tmp_path / "a.npz", **{"run/kept": kept, "run/moved": moved,
                                     "run/file": np.frombuffer(b"abc", dtype=np.uint8)})
    np.savez(tmp_path / "b.npz", **{"run/kept": kept.copy(), "run/moved": moved + 1e-12,
                                     "run/file": np.frombuffer(b"abd", dtype=np.uint8)})
    done = subprocess.run([sys.executable, str(COMPARE), str(tmp_path / "a.npz"),
                           str(tmp_path / "b.npz")], capture_output=True, text=True)
    rows = dict(line.split() for line in done.stdout.splitlines())
    assert rows["run/kept"] == "bitwise"
    # max|a - b| / max|a|, printed to four digits
    gap = np.max(np.abs((moved + 1e-12) - moved)) / np.max(np.abs(moved))
    assert float(rows["run/moved"]) == pytest.approx(gap, rel=1e-3)
    assert rows["run/file"] == "differs"
    assert done.returncode == 1


def test_output_compare_reads_a_layout_only_change_as_reshaped(tmp_path):
    flat = np.linspace(-1.0, 2.0, 6)
    np.savez(tmp_path / "a.npz", **{"run/x": flat, "run/v": flat})
    np.savez(tmp_path / "b.npz", **{"run/x": flat.reshape(2, 3), "run/v": flat[:3]})
    done = subprocess.run([sys.executable, str(COMPARE), str(tmp_path / "a.npz"),
                           str(tmp_path / "b.npz")], capture_output=True, text=True)
    rows = dict(line.split(maxsplit=1) for line in done.stdout.splitlines())
    assert rows["run/x"] == "reshaped (6,) -> (2, 3)"
    assert rows["run/v"] == "shape (6,) -> (3,)"
    assert done.returncode == 1


def test_src_lines_counts_each_kind(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        '"""Module docstring,\n\non three lines."""\n'  # 3 docstring lines, one blank
        "\n"
        "# a comment\n"
        "x = 1  # code with a comment\n"
        "\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        "    return x\n")
    assert load_tool("src_lines").count(module) == {"total": 11, "code": 3, "docstring": 4,
                                         "comment": 1, "blank": 3}


def test_src_lines_rows_add_up_to_each_file():
    tool = load_tool("src_lines")
    paths = sorted(tool.SRC.glob("*.py"))
    assert paths
    for path in paths:
        row = tool.count(path)
        assert sum(row[kind] for kind in tool.KINDS[1:]) == row["total"], path.name
        assert row["total"] == path.read_bytes().count(b"\n"), path.name  # as wc -l counts
