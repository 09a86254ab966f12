"""The package export list against the modules it re-exports."""

import inspect

import pytest

import dilshape
from dilshape import corr, curves, dilation, errors, liegroup, shape


def test_every_export_resolves_once():
    assert len(set(dilshape.__all__)) == len(dilshape.__all__)
    for name in dilshape.__all__:
        assert hasattr(dilshape, name), name


@pytest.mark.parametrize("module", [corr, dilation, liegroup, curves, shape, errors],
                         ids=lambda m: m.__name__)
def test_public_definitions_are_exported(module):
    public = [name for name, obj in vars(module).items()
              if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert public
    assert sorted(set(public) - set(dilshape.__all__)) == []
    for name in public:
        assert getattr(dilshape, name) is getattr(module, name), name
