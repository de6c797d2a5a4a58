"""Count the lines of each module of src/esfem by kind.

    python3 tools/src_lines.py

Prints one row per module and a total row: all lines (as ``wc -l``
counts them), code, docstring, comment and blank lines.  A docstring line
is a line of a module, class or function docstring, blank or not; a
comment line holds only a ``#`` comment; code is every other non-blank
line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "esfem"
KINDS = ("total", "code", "docstring", "comment", "blank")


def count(path):
    text = path.read_text()
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    row = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        kind = ("docstring" if number in doc else "blank" if not line.strip()
                else "comment" if line.strip().startswith("#") else "code")
        row[kind] += 1
    row["total"] = len(lines)
    return row


def main():
    rows = {path.name: count(path) for path in sorted(SRC.glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, row in rows.items():
        print(f"{name:<16}" + "".join(f"{row[kind]:>11,}" for kind in KINDS))


if __name__ == "__main__":
    main()
