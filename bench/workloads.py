"""The two workloads, their set-up, and the pass loop that measures them.

Load model: a closed loop with one client. One process calls the
``vidtriage`` CLI entry point in-process, one stage after another, each
stage starting when the previous one returns. A *pass* is the workload's
whole stage list on a fresh work directory; passes repeat until the run's
time is up, and every metric is the median over passes. Stage times are
at the reference host speed (see ``calibrate``); raw wall times go to the
run record.

tagger-train
    500 videos x 1 description sentence (the 500 sentences of the
    criterion-3 corpus, spread over enough videos that the classifier
    metrics hold across seeds) through the full pipeline, with both
    taggers trained inside the pass on fixed epoch budgets. Training is
    most of the pass.
triage-bulk
    1000 videos x 10 sentences through every stage except training the
    taggers; set-up trains both taggers on a separate 30-video corpus and
    each pass copies the two model files into its work directory. Tagging,
    featurizing and the logistic classifiers dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import calibrate
import checks
import layers
from spans import Tracer

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPS = 3
# Minimum passes per run, untraced and traced (a traced run alternates).
MIN_PASSES = 3
MIN_TRACED_PASSES = 4
# Never start a pass after this multiple of --seconds, even if short.
MAX_OVERRUN = 2.5
# triage-bulk: seed of the set-up tagger corpus, relative to the run seed.
TAGGER_SEED_OFFSET = 100_003
# Token F the taggers must reach on their held-out videos (criterion 3).
TOKEN_F_FLOOR = 0.90


@dataclass(frozen=True)
class Shape:
    n_videos: int
    sentences_per_video: int


@dataclass(frozen=True)
class Spec:
    corpus: Shape
    # Per-arch train-tagger flags; empty on triage-bulk, which trains in set-up.
    train_flags: tuple[tuple[str, tuple[str, ...]], ...]
    setup_corpus: Optional[Shape] = None
    setup_train_flags: tuple[tuple[str, tuple[str, ...]], ...] = ()


# Patience is set no smaller than any epoch budget, so every seed trains
# exactly the budgeted epochs and the work does not depend on when early
# stopping would fire.
PATIENCE = 20

SPECS = {
    "tagger-train": Spec(
        Shape(500, 1),
        train_flags=(("crf", ("--epochs", "4")),
                     ("blstm", ("--epochs", "16"))),
    ),
    "triage-bulk": Spec(
        Shape(1000, 10),
        train_flags=(),
        setup_corpus=Shape(30, 10),
        setup_train_flags=(("crf", ("--epochs", "3")),
                           ("blstm", ("--epochs", "15", "--lr", "1.0"))),
    ),
}


@dataclass(frozen=True)
class Stage:
    key: str
    argv: tuple[str, ...]
    checks: tuple[Callable[[], list[str]], ...] = ()


def _stage(key: str, work: Path, *argv, checks=()) -> Stage:
    return Stage(key, tuple(str(a) for a in (*argv, "--work-dir", work)),
                 tuple(checks))


def _ingest(corpus: Path, work: Path) -> Stage:
    return _stage("ingest", work, "ingest",
                  "--videos", corpus / "videos.jsonl",
                  "--transcripts", corpus / "transcripts.jsonl",
                  "--ocr", corpus / "ocr.jsonl",
                  "--labels", corpus / "labels.jsonl",
                  "--keywords", corpus / "search_results.jsonl")


def _build_ner(corpus: Path, work: Path) -> Stage:
    return _stage("build-ner-corpus", work, "build-ner-corpus",
                  "--dictionary", corpus / "dictionary.tsv")


def _train_taggers(flags, work: Path, seed: int, config: Path) -> list[Stage]:
    stages = [
        _stage(f"train-tagger:{arch}", work, "train-tagger", "--arch", arch,
               "--seed", seed, "--config", config, *extra)
        for arch, extra in flags
    ]
    stages.append(_stage(
        "eval-tagger", work, "eval-tagger",
        checks=(lambda: checks.check_tagger_f(work, TOKEN_F_FLOOR),)))
    stages.append(_stage("report:2", work, "report", "--table", "2",
                         checks=(lambda: checks.check_report(work, "2"),)))
    return stages


def _triage(work: Path, seed: int, ids: list[str]) -> list[Stage]:
    """Tag, assemble, fit, classify, evaluate and report."""
    stages = [
        # blstm last, so assemble reads the default architecture's counts.
        _stage(f"tag:{arch}", work, "tag", "--arch", arch,
               checks=(lambda arch=arch: checks.check_tagged(work, arch, ids),))
        for arch in ("crf", "blstm")
    ]
    stages.append(_stage("assemble", work, "assemble"))
    stages += [
        _stage(f"train-clf:{target}", work, "train-clf", "--target", target,
               "--seed", seed)
        for target in checks.TARGETS
    ]
    stages.append(_stage(
        "classify", work, "classify",
        checks=(lambda: checks.check_predictions(work, ids),
                lambda: checks.check_pvalues(work))))
    stages.append(_stage("eval:clf", work, "eval", "--kind", "clf",
                         checks=(lambda: checks.check_clf_metrics(work),)))
    stages += [
        _stage(f"report:{table}", work, "report", "--table", table,
               checks=(lambda table=table: checks.check_report(work, table),))
        for table in ("5", "6", "7")
    ]
    return stages


def pass_stages(spec: Spec, setup: "Setup", work: Path, seed: int) -> list[Stage]:
    stages = [_ingest(setup.corpus, work), _stage("featurize", work, "featurize"),
              _build_ner(setup.corpus, work)]
    if spec.train_flags:
        stages += _train_taggers(spec.train_flags, work, seed, setup.config)
    return stages + _triage(work, seed, setup.ids)


# ------------------------------------------------------------ running


@dataclass
class StageTimes:
    """Start and end (perf_counter) of every stage call of one group."""

    windows: dict[str, tuple[float, float]]

    def wall_s(self) -> dict[str, float]:
        return {key: end - start for key, (start, end) in self.windows.items()}

    def ref_s(self, host: calibrate.HostSpeed) -> dict[str, float]:
        """Stage times at the reference host speed."""
        return {key: host.ref_s(start, end)
                for key, (start, end) in self.windows.items()}


def _run_checks(stage_checks) -> list[str]:
    """Problems the checks found; a check that raises is one problem."""
    problems = []
    for check in stage_checks:
        try:
            problems += check()
        except Exception as exc:   # missing or malformed output
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    return problems


class Runner:
    """Calls CLI stages in-process and keeps the failure tally."""

    def __init__(self, host: calibrate.HostSpeed):
        from vidtriage import cli
        self.main = cli.main
        self.host = host
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, stages: list[Stage], group: str,
            tracer: Optional[Tracer] = None) -> Optional[StageTimes]:
        """Time every stage in order; None once a stage has failed."""
        times = StageTimes({})
        for i, stage in enumerate(stages):
            self.attempted += 1
            run_id = f"{group}/{i:02d}"
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    rc = self.main(list(stage.argv))
                else:
                    rc = tracer.root(run_id, stage.key, self.main,
                                     list(stage.argv))
            times.windows[stage.key] = (t0, time.perf_counter())
            problems = [f"exit code {rc}"] if rc != 0 else \
                _run_checks(stage.checks)
            if problems:
                self.failures.append(f"{group} {stage.key}: "
                                     + "; ".join(problems))
                return None
        if tracer is not None:
            for i, (start, end) in enumerate(times.windows.values()):
                tracer.scale[f"{group}/{i:02d}"] = \
                    self.host.ref_s(start, end) / (end - start)
        return times


@dataclass
class Setup:
    root: Path
    corpus: Path
    config: Path
    ids: list[str]
    seconds: float = 0.0       # at the reference host speed
    wall_s: float = 0.0
    times: Optional[StageTimes] = None
    tagger_work: Optional[Path] = None


def set_up(spec: Spec, root: Path, seed: int, src: Path, runner: Runner,
           tracer: Optional[Tracer]) -> Setup:
    """Import in a fresh interpreter, generate the corpus, train if needed."""
    from vidtriage.synth import SynthConfig, write_synthetic_corpus

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import vidtriage.cli"],
                   env=dict(os.environ, PYTHONPATH=str(src)),
                   check=True, timeout=120)
    corpus = root / "corpus"
    write_synthetic_corpus(corpus, SynthConfig(
        seed=seed, n_videos=spec.corpus.n_videos,
        sentences_per_video=spec.corpus.sentences_per_video))
    config = root / "pipeline.json"
    config.write_text(json.dumps({"tagger": {"patience": PATIENCE}}) + "\n")
    setup = Setup(root, corpus, config, checks.video_ids(corpus))
    if spec.setup_corpus is not None:
        tcorpus = root / "tagger-corpus"
        write_synthetic_corpus(tcorpus, SynthConfig(
            seed=seed + TAGGER_SEED_OFFSET,
            n_videos=spec.setup_corpus.n_videos,
            sentences_per_video=spec.setup_corpus.sentences_per_video))
        setup.tagger_work = root / "tagger-work"
        stages = [_ingest(tcorpus, setup.tagger_work),
                  _build_ner(tcorpus, setup.tagger_work),
                  *_train_taggers(spec.setup_train_flags, setup.tagger_work,
                                  seed, config)]
        with tracer.installed() if tracer else contextlib.nullcontext():
            setup.times = runner.run(stages, root.name, tracer)
    t1 = time.perf_counter()
    setup.seconds = runner.host.ref_s(t0, t1)
    setup.wall_s = t1 - t0
    return setup


# ------------------------------------------------------------ metrics


def end_to_end_values(stage_s: dict[str, float], work: Path,
                      n_videos: int) -> dict[str, float]:
    """The end-to-end metrics one pass (or set-up repetition) yields."""
    out = {}
    prep = ("ingest", "featurize", "build-ner-corpus")
    if all(k in stage_s for k in prep):
        out["pipeline_s"] = sum(stage_s.values())
        out["prep_videos_per_s"] = n_videos / sum(stage_s[k] for k in prep)
    clf = [v for k, v in stage_s.items() if k.startswith("train-clf:")]
    if clf:
        out["train_clf_s"] = sum(clf)
    if "eval:clf" in stage_s:
        out["clf_accuracy_mean"] = checks.clf_accuracy_mean(work)
    for arch in ("crf", "blstm"):
        if f"train-tagger:{arch}" in stage_s:
            out[f"train_{arch}_s"] = stage_s[f"train-tagger:{arch}"]
            out[f"{arch}_token_f"] = checks.tagger_f(work)[arch]
        if f"tag:{arch}" in stage_s:
            tokens = checks.conll_tokens(work / "ner" / f"tagged_{arch}.conll")
            out[f"tag_{arch}_tokens_per_s"] = tokens / stage_s[f"tag:{arch}"]
    return out


def _times_only(values: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in values.items() if k.endswith("_s")}


def _median_by_name(primary: list[dict], fallback: list[dict]) -> dict:
    """Median of each metric over ``primary``, else over ``fallback``."""
    out = {}
    for name in {n for d in primary + fallback for n in d}:
        values = [d[name] for d in primary if name in d] \
            or [d[name] for d in fallback if name in d]
        out[name] = statistics.median(values)
    return out


@dataclass
class Outcome:
    attempted: int
    metrics: dict[str, float]
    digest: str
    failures: list[str]
    passes: list[dict]
    wall: dict[str, float]      # the time metrics in raw wall-clock time
    scale: dict[str, float]     # per stage: reference time / wall time
    spans: list[dict]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 run_dir: Path, src: Path, ledger: checks.DigestLedger,
                 code_digest: str) -> Outcome:
    with calibrate.HostSpeed() as host:
        return _run(SPECS[name], seed, seconds, trace, run_dir, src, ledger,
                    f"{name}/seed{seed}/{code_digest}", host)


def _run(spec: Spec, seed: int, seconds: float, trace: bool, run_dir: Path,
         src: Path, ledger: checks.DigestLedger, ledger_key: str,
         host: calibrate.HostSpeed) -> Outcome:
    runner = Runner(host)
    tracer = Tracer(layers.WRAPS) if trace else None

    setups, setup_groups, setup_values, setup_wall = [], [], [], []
    for k in range(SETUP_REPS):
        first = len(tracer.spans) if tracer else 0
        s = set_up(spec, run_dir / f"setup-{k}", seed, src, runner, tracer)
        setups.append(s)
        if s.times is not None:
            n_videos = spec.setup_corpus.n_videos
            setup_values.append(end_to_end_values(
                s.times.ref_s(host), s.tagger_work, n_videos))
            setup_wall.append(_times_only(end_to_end_values(
                s.times.wall_s(), s.tagger_work, n_videos)))
            if tracer is not None:
                setup_groups.append(layers.layer_values(
                    tracer.totals(first, len(tracer.spans)), s.tagger_work))
    if len({checks.tree_digest(s.root) for s in setups}) != 1:
        runner.failures.append("set-up repetitions wrote different files")
    setup = setups[0]
    for s in setups[1:]:
        shutil.rmtree(s.root)

    passes, pass_groups, digests = [], [], set()
    start = time.perf_counter()
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    i = 0
    while not runner.failures:
        elapsed = time.perf_counter() - start
        # A traced run needs an untraced and a traced pass at the least.
        if (i >= min_passes and elapsed >= seconds) or \
                (i >= 1 + trace and elapsed >= MAX_OVERRUN * seconds):
            break
        traced = trace and i % 2 == 1
        work = run_dir / f"pass-{i}"
        if setup.tagger_work is not None:
            shutil.copytree(setup.tagger_work / "models", work / "models")
        first = len(tracer.spans) if tracer else 0
        with tracer.installed() if traced else contextlib.nullcontext():
            times = runner.run(pass_stages(spec, setup, work, seed),
                               work.name, tracer if traced else None)
        if times is None:
            break
        ref_s, wall_s = times.ref_s(host), times.wall_s()
        values = end_to_end_values(ref_s, work, len(setup.ids))
        wall_values = _times_only(
            end_to_end_values(wall_s, work, len(setup.ids)))
        if traced:
            pass_groups.append(layers.layer_values(
                tracer.totals(first, len(tracer.spans)), work))
        digests.add(checks.tree_digest(work))
        passes.append({"traced": traced, "wall_s": wall_s, "ref_s": ref_s,
                       "values": values, "wall_values": wall_values})
        shutil.rmtree(work)
        i += 1

    if len(digests) > 1:
        runner.failures.append(f"passes wrote different files: {sorted(digests)}")
    digest = checks.tree_digest(setup.root) + ":" + ",".join(sorted(digests))
    if not runner.failures:
        mismatch = ledger.check(ledger_key, digest)
        if mismatch:
            runner.failures.append(mismatch)

    untraced = [p["values"] for p in passes if not p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    wall = _median_by_name([p["wall_values"] for p in plain], setup_wall)
    wall["setup_s"] = statistics.median(s.wall_s for s in setups)
    scale = {"setup": statistics.median(s.seconds / s.wall_s for s in setups)}
    for stage in plain[0]["wall_s"] if plain else ():
        scale[stage] = statistics.median(
            p["ref_s"][stage] / p["wall_s"][stage] for p in plain)
    if trace:
        # Layers that run only in set-up (tagger training on triage-bulk)
        # are taken over the set-up repetitions.
        metrics = _median_by_name(pass_groups, setup_groups)
        traced_s = [p["values"]["pipeline_s"] for p in passes if p["traced"]]
        if traced_s and untraced:
            metrics["trace.overhead_frac"] = (
                statistics.median(traced_s)
                / statistics.median(p["pipeline_s"] for p in untraced) - 1.0)
    else:
        metrics = _median_by_name(untraced, setup_values)
        metrics["setup_s"] = statistics.median(s.seconds for s in setups)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    return Outcome(
        attempted=runner.attempted + 1,   # the stage calls and the digest check
        metrics=metrics,
        digest=digest,
        failures=runner.failures,
        passes=passes,
        wall=wall,
        scale=scale,
        spans=tracer.dump() if tracer else [],
    )
