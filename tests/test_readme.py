"""The README's feature list names only what the package exports."""

import re
from pathlib import Path

import conecross

README = Path(__file__).resolve().parent.parent / "README.md"


def feature_list(text):
    """The bullet list under "What it does:", up to the first paragraph
    that is not a bullet."""
    after = text.split("What it does:", 1)[1].lstrip("\n")
    return re.split(r"\n\n(?!- )", after, maxsplit=1)[0]


def test_feature_list_names_exported_functions():
    features = feature_list(README.read_text())
    named = [
        name
        for group in re.findall(r"\(([^()]*)\)", features)
        for name in re.findall(r"`([^`]+)`", group)
    ]
    assert len(named) >= 10
    assert [name for name in named if name not in conecross.__all__] == []
