"""The benchmark's tracer patches package attributes by name; each must exist.

``perfbench/spans.py`` is loaded from its path and only read: a target
that a refactor renames or deletes would otherwise show up only as a
``missing_targets`` entry in a traced benchmark run.
"""

import importlib
import importlib.util

import pytest

from conftest import REPO_ROOT


def _instruments():
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.INSTRUMENTS


TARGETS = [target for _, targets, _ in _instruments() for target in targets]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[".".join(target) for target in TARGETS])
def test_tracer_target_exists(module, attr):
    assert hasattr(importlib.import_module(f"healthval.{module}"), attr)
