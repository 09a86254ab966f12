import inspect

import pytest

from dilshape import cli, errors
from dilshape.errors import (
    DegeneracyError,
    DilshapeError,
    FormatError,
    ValidationError,
    WindowError,
)

CATEGORIES = (ValidationError, DegeneracyError, WindowError, FormatError)

# The exit codes and stderr prefixes documented in FORMATS.md, "Exit codes".
DOCUMENTED = {
    ValidationError: (2, "validation error"),
    DegeneracyError: (3, "degeneracy"),
    WindowError: (4, "window/grid error"),
    FormatError: (5, "i/o error"),
}


def test_every_error_has_exactly_one_category():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, DilshapeError)
               and c is not DilshapeError and c not in CATEGORIES]
    assert len(classes) >= 20
    for cls in classes:
        assert sum(issubclass(cls, cat) for cat in CATEGORIES) == 1, cls


@pytest.mark.parametrize("category", CATEGORIES, ids=lambda c: c.__name__)
def test_main_maps_category_to_code_and_prefix(monkeypatch, capsys, category):
    def fail(args):
        raise category("boom")

    monkeypatch.setattr(cli, "cmd_gen", fail)
    code, prefix = DOCUMENTED[category]
    assert cli.main(["gen", "ar", "-o", "unused.csv"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_main_maps_os_error_to_io(monkeypatch, capsys):
    def fail(args):
        raise FileNotFoundError("nope.json")

    monkeypatch.setattr(cli, "cmd_gen", fail)
    assert cli.main(["gen", "ar", "-o", "unused.csv"]) == 5
    assert capsys.readouterr().err == "i/o error: nope.json\n"
