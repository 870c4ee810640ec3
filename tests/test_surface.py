"""The package's public surface is the list in the README's Library section."""

import re
from pathlib import Path

import heiswhit

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_surface():
    """Backquoted names in the bullet list under "The package exports"."""
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = library.split("The package exports", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"`(\w+)`", block)


def test_all_is_the_readme_list_and_star_binds_it():
    names = readme_surface()
    assert len(names) == len(set(names))
    assert sorted(heiswhit.__all__) == sorted(names)
    assert all(getattr(heiswhit, name, None) is not None for name in names)
    star = {}
    exec("from heiswhit import *", star)
    star.pop("__builtins__")
    assert sorted(star) == sorted(names)
