"""The traced benchmark run wraps program functions by name; pin them.

``perfbench/launcher.py`` looks up every entry of its ``LAYERS`` table as
``module`` + attribute path and reads the request id out of positional
arguments.  A rename or a reordered signature in ``src/`` would otherwise
only show up as a traced run that silently records nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"


@pytest.fixture(scope="module")
def launcher():
    mp = pytest.MonkeyPatch()
    # Unset, importing the launcher only defines its tables: no wrapping.
    mp.delenv("PERFBENCH_TRACE_DIR", raising=False)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_launcher", LAUNCHER
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        mp.undo()


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_layer_resolves_to_a_callable(launcher):
    assert launcher.LAYERS
    for name, module_name, attr, _rid_of, _note in launcher.LAYERS:
        target = _resolve(module_name, attr)
        assert callable(target), name


def test_request_ids_sit_where_the_extractors_read_them(launcher):
    for name, module_name, attr, rid_of, _note in launcher.LAYERS:
        if rid_of is None:
            continue
        params = list(inspect.signature(_resolve(module_name, attr)).parameters)
        if rid_of is launcher._rid_from_query:
            # args[4] of (self, method, path, body, query, ...).
            assert params[:5] == ["self", "method", "path", "body", "query"], name
        else:
            # args[1] of (self, request_or_payload, ...).
            assert len(params) >= 2 and params[0] == "self", name
