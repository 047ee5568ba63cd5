"""The runnable examples under ``examples/`` keep working.

All four examples must import, so a renamed or deleted API they use fails
here.  The two fast ones (``quickstart``, ``failure_recovery``; well under
a second each) also run ``main()`` end to end.  ``bandwidth_scaling`` and
``scalable_namespace`` sweep cluster sizes for tens of seconds, so they
are only imported.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
ALL = ("quickstart", "failure_recovery", "bandwidth_scaling",
       "scalable_namespace")
RUN = ("quickstart", "failure_recovery")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_example_is_covered():
    assert {p.stem for p in EXAMPLES.glob("*.py")} == set(ALL)


@pytest.mark.parametrize("name", ALL)
def test_example_imports(name):
    assert callable(load(name).main)


@pytest.mark.parametrize("name", RUN)
def test_example_runs(name, capsys):
    load(name).main()
    assert "simulated time" in capsys.readouterr().out
