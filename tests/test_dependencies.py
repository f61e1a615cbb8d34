"""The declared dependencies match what the code imports.

numpy is the one runtime dependency; scipy is an oracle for the tests
only, and importing the command line must not load it. Each stage is its
own process, so importing the command line loads no numpy either, and
the stages that only read and write text run without it.
"""

import ast
import json
import os
import shutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports(top: Path) -> set[str]:
    """Top-level names of every absolute import under ``top`` that is not
    the standard library or the package itself."""
    names = set()
    for path in top.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"vidtriage"}


def _requirement_names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower()
            for r in requirements}


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_src_imports_are_the_runtime_dependencies(project):
    runtime = _requirement_names(project["dependencies"])
    assert _third_party_imports(ROOT / "src") == runtime == {"numpy"}
    assert _third_party_imports(ROOT / "demos") <= runtime


def test_test_imports_lie_within_runtime_and_test_extras(project):
    declared = _requirement_names(project["dependencies"]
                                  + project["optional-dependencies"]["test"])
    # The tests import their sibling modules (criterion8) by name.
    siblings = {path.stem for path in (ROOT / "tests").glob("*.py")}
    assert _third_party_imports(ROOT / "tests") - siblings <= declared


def test_cli_import_loads_no_scipy():
    code = ("import sys, vidtriage.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.strip() == "[]"


def _run_python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout


def test_cli_import_loads_no_numpy_classifier_or_tagger():
    heavy = ("numpy", "vidtriage.classify", "vidtriage.seqtag.crf",
             "vidtriage.seqtag.blstm", "vidtriage.seqtag.model_io",
             "vidtriage.seqtag._trainutil")
    code = ("import sys, vidtriage.cli; "
            f"print(sorted(m for m in sys.modules if m in {heavy!r}))")
    assert _run_python(code).strip() == "[]"


# Runs each argv of the JSON list in argv[1] through the command line with
# numpy made unimportable, and prints the exit codes.
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
from vidtriage.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_text_stages_and_help_run_without_numpy(tmp_path, corpus_paths,
                                                fixture_dir, capsys):
    from vidtriage.cli import build_parser, main

    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action.choices, dict))
    helps = [["--help"], *([name, "--help"] for name in commands)]
    stages = [
        ["ingest", *(f"--{name}={path}" for name, path in corpus_paths.items()),
         f"--keywords={fixture_dir / 'corpus' / 'search_results.jsonl'}"],
        ["build-ner-corpus"],
        *(["report", "--table", table] for table in ("2", "5", "7")),
    ]
    evals = tmp_path / "eval"
    evals.mkdir()
    (evals / "tagger_metrics.tsv").write_text(
        "model\tprecision\trecall\tf_measure\tn_test_sentences\n"
        "crf\t0.9\t0.8\t0.85\t4\nblstm\t0.7\t0.6\t0.65\t4\n")
    (evals / "clf_metrics.tsv").write_text(
        "target\tprecision_pos\trecall_pos\tf_measure_pos\tprecision_neg"
        "\trecall_neg\tf_measure_neg\taccuracy\tn_test_videos\n"
        + "".join(f"{t}\t0.5\t0.25\t0.3\t0.75\t1\t0.8\t0.6\t2\n"
                  for t in ("medical_info", "understandability",
                            "recommendation")))
    trees = {}
    for side in ("numpy", "none"):
        work = tmp_path / side
        shutil.copytree(evals, work / "eval")
        argvs = [[*argv, f"--work-dir={work}"] for argv in stages]
        if side == "numpy":
            assert [main(argv) for argv in argvs] == [0] * len(argvs)
        else:
            codes = _run_python(_WITHOUT_NUMPY, json.dumps(argvs + helps))
            assert json.loads(codes.splitlines()[-1]) \
                == [0] * (len(argvs) + len(helps))
        trees[side] = {p.relative_to(work): p.read_bytes()
                       for p in sorted(work.rglob("*")) if p.is_file()}
    capsys.readouterr()
    assert len(trees["none"]) == 4 + 1 + 2 + 3
    assert trees["none"] == trees["numpy"]
