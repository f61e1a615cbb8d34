"""Every module-level function and class in src/ has a caller.

A name counts as used when a module under src/, bench/ or demos/ reads
it, as a bare name or as an attribute, outside the name's own
definition. Imports are not uses, so an ``__init__`` re-export keeps
nothing alive. Names that only tests call must be deleted or listed in
KEPT with the reason they stay. Every name that the traced benchmark
run wraps must exist.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KEPT = {
    "crf_log_partition": "acceptance criterion 1 checks it against "
                         "brute-force enumeration",
    "crf_viterbi": "acceptance criterion 1 checks it against brute-force "
                   "enumeration",
    "crf_loss_grad": "acceptance criterion 2 checks its gradient by finite "
                     "differences",
    "crf_sequence_score": "brute-force oracle of tests/test_crf.py",
}


def _read_names(node, skip=None) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    names.discard(skip)
    return names


def test_every_src_definition_has_a_caller():
    defined = {}
    used = set()
    for top in ("src", "bench", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    if top == "src":
                        defined[node.name] = path.relative_to(ROOT)
                    used |= _read_names(node, skip=node.name)
                else:
                    used |= _read_names(node)
    unused = {name: str(path) for name, path in defined.items()
              if name not in used}
    # Exact match: a kept name that gains a caller leaves the list.
    assert unused.keys() == KEPT.keys(), unused


def test_every_traced_name_resolves():
    # The traced benchmark run wraps each ``Wrap(module, attr, ...)`` of
    # bench/layers.py and stops at the first name that no longer exists.
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text("utf-8"))
    wraps = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "Wrap"]
    assert len(wraps) == 23
    for node in wraps:
        module, attr = (ast.literal_eval(arg) for arg in node.args[:2])
        assert hasattr(importlib.import_module(module), attr), (module, attr)
