"""The traced benchmark patches public names of skewstab by string.

bench/spans.py lists them in TARGETS; a rename in src/ must fail here,
not silently break the traced per-layer run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _load_spans()


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for _name, module, attr in SPANS_MODULE.TARGETS]
)
def test_traced_target_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_berkovich_module_resolves():
    # every public function of this module is traced
    importlib.import_module(SPANS_MODULE.BERKOVICH)
