"""The benchmark tracer's patch targets exist in the package and are used there.

``perfbench/trace.py`` wraps functions by ``(module, name)``; a refactor
that renames or deletes one breaks traced benchmark runs, and a target
that the package itself no longer looks up is kept only for the tracer.
This reads the tracer's table and the package source and edits nothing.
"""
import ast
import importlib.util
import sys
from pathlib import Path

import randmcp

ROOT = Path(__file__).resolve().parent.parent
TRACE_PATH = ROOT / "perfbench" / "trace.py"
SRC = ROOT / "src" / "randmcp"

# Patch targets that no package code looks up where the tracer patches
# them: names kept in ``src/`` only so that the tracer can wrap them
# (ROADMAP item 1, step 4).  Add to this list only knowingly.
TRACER_ONLY = {
    "randmcp.glm.stack_designs",
    "randmcp.inference.contrast_matrix",
    "randmcp.inference.optimal_contrast",
}


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


def _looked_up(module, name, trees) -> bool:
    """Whether package code looks ``name`` up in ``module``'s namespace.

    A use is the bare name in the module's own file or ``<module>.<name>``
    anywhere in the package; its ``def`` and imports bind the name without
    using it.  A function that the package exports from the module that
    defines it is public, with callers outside the package.
    """
    fn = getattr(module, name)
    if getattr(randmcp, name, None) is fn and fn.__module__ == module.__name__:
        return True
    short = module.__name__.rsplit(".", 1)[-1]
    own = Path(module.__file__).resolve()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == name \
                    and isinstance(node.value, ast.Name) and node.value.id == short:
                return True
            if path == own and isinstance(node, ast.Name) and node.id == name:
                return True
    return False


def test_tracer_only_targets_are_listed():
    trees = {path.resolve(): ast.parse(path.read_text()) for path in SRC.rglob("*.py")}
    unused = {f"{module.__name__}.{name}" for module, name, _ in load_tracer().PATCHES
              if not _looked_up(module, name, trees)}
    assert unused == TRACER_ONLY
