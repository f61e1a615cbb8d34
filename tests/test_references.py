"""Every module-level function and class in src/ has a caller.

A name counts as used when a module under src/, bench/ or demos/ reads
it, as a bare name or as an attribute, outside the name's own
definition. Imports are not uses, so an ``__init__`` re-export keeps
nothing alive. Names that only tests call must be deleted or listed in
KEPT with the reason they stay. Every name that the traced benchmark
run wraps must exist, and the commands must call the wrapper it sets.
"""

import ast
import functools
import importlib
from pathlib import Path

from vidtriage import cli

ROOT = Path(__file__).resolve().parent.parent

KEPT = {
    "crf_log_partition": "acceptance criterion 1 checks it against "
                         "brute-force enumeration",
    "crf_viterbi": "acceptance criterion 1 checks it against brute-force "
                   "enumeration",
    "crf_loss_grad": "acceptance criterion 2 checks its gradient by finite "
                     "differences",
    "blstm_loss_grad": "acceptance criterion 2 checks its gradient by "
                       "finite differences",
    "crf_sequence_score": "brute-force oracle of tests/test_crf.py",
    "__getattr__": "the PEP 562 hook of a module that loads names on first "
                   "access; Python calls it, no source line does",
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


def _traced_names() -> list[tuple[str, str]]:
    """The (module, attribute) of each ``Wrap`` of bench/layers.py."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text("utf-8"))
    return [tuple(ast.literal_eval(arg) for arg in node.args[:2])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "Wrap"]


def test_every_traced_name_resolves():
    # The traced benchmark run wraps each ``Wrap(module, attr, ...)`` of
    # bench/layers.py and stops at the first name that no longer exists.
    wraps = _traced_names()
    assert len(wraps) == 23
    for module, attr in wraps:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def _counting(calls: dict, name: str, fn):
    """``fn``, adding 1 to ``calls[name]`` on each call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_tagger_commands_call_the_wrappers_set_on_cli(
        tmp_path, corpus_paths, monkeypatch, capsys):
    # cli binds its tagger entry points on first use; the commands must
    # still call whatever the traced run has set in cli's namespace.
    names = [attr for module, attr in _traced_names()
             if module == "vidtriage.cli"]
    assert len(names) == 6
    calls = dict.fromkeys(names, 0)
    for name in names:
        monkeypatch.setattr(cli, name, _counting(calls, name,
                                                 getattr(cli, name)))
    work = ["--work-dir", str(tmp_path / "work")]
    for argv in (
            ["ingest", *(f"--{k}={path}" for k, path in corpus_paths.items())],
            ["build-ner-corpus"]):
        assert cli.main([*argv, *work]) == 0, argv
    # Each tagger command and the wrapped names it calls.
    for argv, called in [
        (["train-tagger", "--arch=crf", "--epochs=1", "--seed=1"],
         {"train_crf", "save_model"}),
        (["train-tagger", "--arch=blstm", "--epochs=1", "--seed=1"],
         {"train_blstm", "save_model"}),
        (["tag"], {"load_model"}),
        (["eval-tagger"], {"load_model", "evaluate_tagger",
                           "evaluate_tagger_spans"}),
    ]:
        before = dict(calls)
        assert cli.main([*argv, *work]) == 0, argv
        assert {n for n in names if calls[n] > before[n]} == called, argv
    capsys.readouterr()


def test_each_tag_and_conll_write_is_one_traced_call(
        tmp_path, corpus_paths, monkeypatch, capsys):
    # crf.tag_s, blstm.tag_us_per_token, medterm.project_s and
    # medterm.conll_io_s time the spans of these names: tag must decode
    # all its sentences in one tagger call and write its CoNLL file in
    # one writer call, and build-ner-corpus must project its sentences
    # in one call and write its corpus in one call.
    traced = [(module, attr) for module, attr in _traced_names()
              if attr in ("tag_with_crf", "tag_with_blstm", "project_labels",
                          "write_conll")]
    assert len(traced) == 4
    calls = dict.fromkeys((attr for _, attr in traced), 0)
    for module, attr in traced:
        module = importlib.import_module(module)
        monkeypatch.setattr(module, attr,
                            _counting(calls, attr, getattr(module, attr)))
    work = ["--work-dir", str(tmp_path / "work")]
    for argv, called in [
        (["ingest", *(f"--{k}={path}" for k, path in corpus_paths.items())],
         {}),
        (["build-ner-corpus"], {"project_labels": 1, "write_conll": 1}),
        (["train-tagger", "--arch=crf", "--epochs=1", "--seed=1"], {}),
        (["train-tagger", "--arch=blstm", "--epochs=1", "--seed=1"], {}),
        (["tag", "--arch=crf"], {"tag_with_crf": 1, "write_conll": 1}),
        (["tag", "--arch=blstm"], {"tag_with_blstm": 1, "write_conll": 1}),
    ]:
        before = dict(calls)
        assert cli.main([*argv, *work]) == 0, argv
        assert {n: calls[n] - before[n] for n in calls
                if calls[n] > before[n]} == called, argv
    capsys.readouterr()
