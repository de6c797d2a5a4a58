import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

COMPARE = Path(__file__).resolve().parents[1] / "tools" / "output_compare.py"


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
