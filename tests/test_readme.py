"""README.md, checked offline against the tree it describes.

The "Library layout" table names each module of the package once, with its
role in one sentence; the module docstrings say the rest.  Every `tools/`,
`tests/`, `perfbench/` and `corpus/` path the README names exists, so it
cannot point at a file that has gone.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def layout_rows() -> dict[str, str]:
    """The module each row of the layout table names, and its role."""
    section = README.partition("\n## Library layout\n")[2].partition("\n## ")[0]
    rows = re.findall(r"^\| `hypersim\.(\w+)` \| (.*) \|$", section, re.M)
    assert rows, "README has no Library layout table"
    return dict(rows)


def test_the_layout_table_names_exactly_the_package_modules():
    modules = {path.stem for path in (ROOT / "src" / "hypersim").glob("*.py")} - {"__init__"}
    assert set(layout_rows()) == modules


def test_each_layout_row_is_one_sentence():
    for module, role in layout_rows().items():
        text = re.sub(r"`[^`]*`", "code", role)
        assert text.endswith(".") and not re.search(r"[.;]\s", text), module


def test_every_path_the_readme_names_exists():
    paths = {p.rstrip(".") for p in re.findall(r"\b(?:tools|tests|perfbench|corpus)/[\w./*-]*", README)}
    assert {"tools/bench_ab.py", "tests/data/k1.kr", "corpus/"} <= paths
    for path in paths:
        assert any(ROOT.glob(path.rstrip("/"))), path
