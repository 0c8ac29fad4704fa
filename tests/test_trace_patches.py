"""The benchmark tracer's patch targets exist in the package.

``perfbench/trace.py`` wraps functions by ``(module, name)``; a refactor
that renames or deletes one breaks traced benchmark runs.  This reads
the tracer's table and edits nothing.
"""
import importlib.util
import sys
from pathlib import Path

TRACE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves_to_a_callable():
    patches = load_tracer().PATCHES
    missing = [f"{module.__name__}.{name}" for module, name, _ in patches
               if not callable(getattr(module, name, None))]
    assert patches
    assert missing == []
