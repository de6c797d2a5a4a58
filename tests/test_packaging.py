import tomllib
from fnmatch import fnmatch
from pathlib import Path

import esfem

ROOT = Path(__file__).resolve().parents[1]


def test_every_data_file_is_package_data():
    # a non-editable install ships only files matching these globs
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["esfem"]
    package = Path(esfem.__file__).parent
    files = [f.relative_to(package).as_posix()
             for f in (package / "data").rglob("*") if f.is_file()]
    assert files
    assert [f for f in files if not any(fnmatch(f, g) for g in globs)] == []
