"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tagger-train --seed 1 --seconds 30 --trace 0

Run from the repository root: the pipeline is imported from ``src/``.
The corpus is generated from ``--seed``; passes repeat for ``--seconds``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are its per-layer ones, from a run that wraps the
pipeline's public functions in spans. Times are scaled to a reference
host speed (see ``calibrate.py``). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the host facts, the time metrics in raw wall-clock
seconds, and each stage's scale factor (reference / wall). The full
record of the run, and the spans of a traced run, are written under
``bench/_out/``.
"""

import os

# One BLAS thread, set before numpy is first imported.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def host_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def code_digest() -> str:
    """Digest of the program and benchmark sources the run executes."""
    import checks
    h = hashlib.sha256(checks.tree_digest(SRC, exclude=("__pycache__",))
                       .encode())
    for path in sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vidtriage" / "__init__.py").is_file():
        print(f"error: no pipeline sources at {SRC / 'vidtriage'}; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks
    import workloads

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = BENCH / "_out"
    run_dir = BENCH / "_work" / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), run_dir,
            SRC, checks.DigestLedger(out_dir / "digests.json"), code_digest())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()   # only when no other run is using it

    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing and not outcome.failures:
        outcome.failures.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": outcome.metrics[m["name"]],
                           "unit": m["unit"]}
               for m in wanted if m["name"] in outcome.metrics}
    host = host_facts()

    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "digest": outcome.digest, "failures": outcome.failures,
              "passes": outcome.passes, "metrics": metrics,
              "wall": outcome.wall, "scale": outcome.scale}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.spans:
        (out_dir / f"spans-{tag}.json").write_text(
            json.dumps(outcome.spans) + "\n")

    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload}  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"host": host, "wall": outcome.wall,
                      "scale": outcome.scale}, sort_keys=True))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
