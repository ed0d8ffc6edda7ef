"""The names perfbench/tracer.py wraps and rebinds exist in tautrel.

The tracer is loaded from its file and only read: nothing is installed.
A refactor that deletes or renames a traced name fails here, not only in
the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolve(module_name, path):
    target = importlib.import_module("tautrel." + module_name)
    for part in path.split("."):
        target = getattr(target, part)
    return target


@pytest.mark.parametrize("module_name, path, metric", tracer.TRACED)
def test_traced_path_resolves(module_name, path, metric):
    if path.endswith("*"):
        module = importlib.import_module("tautrel." + module_name)
        prefix = path[:-1]
        assert any(name.startswith(prefix) and callable(value)
                   for name, value in vars(module).items()), path
    else:
        assert callable(resolve(module_name, path)), path


@pytest.mark.parametrize("module_name, path, metric", tracer.CACHES)
def test_cache_has_cache_info(module_name, path, metric):
    assert callable(resolve(module_name, path).cache_info)


@pytest.mark.parametrize("module_name, path", tracer.REBOUND)
def test_rebound_name_exists(module_name, path):
    assert callable(resolve(module_name, path))
