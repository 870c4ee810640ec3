"""The package's public surface is the list in the README's Library section,
and the CLI's flags are the table in its Command line section."""

import dataclasses
import inspect
import re
from pathlib import Path

import heiswhit
from heiswhit import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# Every keyword with a default on the public surface: the callables in
# __all__, and the __init__ and public methods of its classes.  A new knob
# is added here on purpose or not at all.
KEYWORDS = {
    "ModulusFn.__init__": ("coeff", "exponent"),
    "PiecewiseCm.breakpoint_jumps": ("up_to",),
    "Poly.__init__": ("coeffs",),
    "Poly.deriv_at": ("order",),
    "WhitneyField.combine": ("ca", "cb"),
    "check_cm": ("window",),
    "check_cm_via_w": ("window",),
    "finiteness_check": ("window", "full_enum"),
    "synthesize": ("force", "window"),
}


def readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_surface():
    """Backquoted names in the bullet list under "The package exports"."""
    library = readme_section("Library")
    block = library.split("The package exports", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"`(\w+)`", block)


def surface_keywords():
    """{qualified name: keywords with a default} over the public surface."""
    callables = {}
    for name in heiswhit.__all__:
        obj = getattr(heiswhit, name)
        if not inspect.isclass(obj):
            callables[name] = obj
            continue
        callables[f"{name}.__init__"] = obj.__init__
        for attr, member in vars(obj).items():
            member = getattr(member, "__func__", member)  # class and static methods
            if not attr.startswith("_") and inspect.isfunction(member):
                callables[f"{name}.{attr}"] = member
    out = {}
    for name, fn in callables.items():
        try:
            params = inspect.signature(fn).parameters.values()
        except ValueError:  # a builtin __init__
            continue
        keywords = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if keywords:
            out[name] = keywords
    return out


def test_all_is_the_readme_list_and_star_binds_it():
    names = readme_surface()
    assert len(names) == len(set(names))
    assert sorted(heiswhit.__all__) == sorted(names)
    assert all(getattr(heiswhit, name, None) is not None for name in names)
    star = {}
    exec("from heiswhit import *", star)
    star.pop("__builtins__")
    assert sorted(star) == sorted(names)


def test_every_keyword_of_the_surface_is_in_the_table():
    assert surface_keywords() == KEYWORDS


def readme_flags():
    """(flag, variable, default) cells of the Command line section's table."""
    table = readme_section("Command line").split("\n| Flag |", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]  # below the header's rest and the rule
    cells = [[c.strip() for c in row.strip("|").split("|")] for row in rows]
    return [(flag.strip("`"), var.strip("`"), default) for flag, var, default in cells]


def test_readme_flag_table_is_cli_flags():
    table = readme_flags()
    assert [(flag, var) for flag, var, _ in table] == [
        (flag, cli.env_name(flag)) for flag, _, _ in cli.FLAGS
    ]
    defaults = {f.name: f.default for f in dataclasses.fields(cli.RunConfig)}
    for (_, dest, _), (_, _, cell) in zip(cli.FLAGS, table):
        default = defaults[dest]
        if default is dataclasses.MISSING:
            assert cell.startswith("required")
        elif default is False:
            assert cell == "off"
        elif default is not None:
            assert cell.startswith(f"`{default}`")
