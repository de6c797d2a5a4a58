import ast
import re
import sys
import tomllib
from fnmatch import fnmatch
from pathlib import Path

import esfem

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_every_data_file_is_package_data():
    # a non-editable install ships only files matching these globs
    globs = PYPROJECT["tool"]["setuptools"]["package-data"]["esfem"]
    package = Path(esfem.__file__).parent
    files = [f.relative_to(package).as_posix()
             for f in (package / "data").rglob("*") if f.is_file()]
    assert files
    assert [f for f in files if not any(fnmatch(f, g) for g in globs)] == []


def test_every_module_the_tests_import_is_declared():
    # installing the package with its test extra must be enough to run tests/
    project = PYPROJECT["project"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    imported = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"esfem"}
    assert third_party
    assert sorted(third_party - declared) == []
