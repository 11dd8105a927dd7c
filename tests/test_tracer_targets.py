"""The benchmark tracer's targets exist under the names it patches.

perfbench/tracer.py wraps functions by module and attribute name, and lists
a name it cannot find as missing instead of failing, so a rename in the
package would only show up as a zero metric in a benchmark run. This guard
checks only that every target imports and resolves to a callable, not that
the pipeline still calls it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize(
    "module_name, attr_path",
    [(t[0], t[1]) for t in TARGETS],
    ids=[f"{t[0]}.{t[1]}" for t in TARGETS],
)
def test_tracer_target_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
