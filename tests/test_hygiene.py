"""Source hygiene: every module compiles without a warning."""

import pathlib
import warnings

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "probterm"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    # an invalid escape such as "\ " warns at compile time, and the warning
    # grows stricter with each Python release
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
