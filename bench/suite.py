"""Run every workload over several seeds and summarize each metric.

    python3 bench/suite.py                       # both workloads, seed 1
    python3 bench/suite.py --seeds 1-10 --traced-seeds 1-3 \\
        --out bench/results/BENCH_0.json
    python3 bench/suite.py --seeds 1-10 --baseline bench/results/BENCH_0.json \\
        --out bench/results/BENCH_0_repeat.json

Every workload of BENCHMARK.json runs for its ``run_seconds``, each run in
a fresh ``bench/run.py`` process, so peak memory belongs to one workload.
For every metric the summary prints the median over the runs, the first
and third quartiles (``statistics.quantiles(n=4)``) and their distance as
a share of the median, next to the metric's bound. The quartile spread is
taken over seeds, as the acceptance check takes it. ``--baseline`` also
prints each end-to-end median's change against an earlier summary, as a
share of that summary's median, with "worse" marked where the change
exceeds the bound in the worse direction. Next to the reference-speed
times, the summary keeps the raw wall-clock medians of the same metrics
and each stage's median scale factor (reference time / wall time).
``--out`` writes all of it, every run's values and the host facts as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def medians(dicts: list[dict]) -> dict[str, float]:
    """Median of each key over the dicts that have it."""
    names = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", type=parse_seeds,
                        help="seeds of the untraced runs, e.g. 1-10 or 1,4")
    parser.add_argument("--traced-seeds", default="", type=parse_seeds,
                        help="seeds of the traced runs (default: none)")
    parser.add_argument("--baseline", type=Path,
                        help="an earlier --out file to compare medians with")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = declared["run_seconds"]
    e2e = {m["name"]: m for m in declared["end_to_end"]}
    baseline = (json.loads(args.baseline.read_text("utf-8"))["workloads"]
                if args.baseline else {})
    runs: dict[str, list[dict]] = {}
    host = None
    for trace, seeds in ((0, args.seeds), (1, args.traced_seeds)):
        for seed in seeds:
            for workload in (w["name"] for w in declared["workloads"]):
                result = run_once(workload, seed, seconds, trace)
                detail = result.pop("detail")
                host = detail.pop("host")
                result.update(seed=seed, trace=trace, **detail)
                runs.setdefault(workload, []).append(result)
                print(f"# {workload} seed {seed} trace {trace}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      flush=True)

    summary: dict[str, dict] = {}
    all_ok = True
    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'vs base':>8s}  unit")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        all_ok &= all(r["correct"] for r in results)
        print(f"  {'failed_stage_frac':34s} {failed / attempted:12.6g}"
              f"{'':>49s}  fraction ({failed}/{attempted})")
        per_metric: dict[str, dict] = {}
        for r in results:
            for name, m in r["metrics"].items():
                entry = per_metric.setdefault(name, {"unit": m["unit"],
                                                     "values": []})
                entry["values"].append(m["value"])
        base = baseline.get(workload, {}).get("metrics", {})
        for name, entry in per_metric.items():
            entry.update(summarize(entry["values"]))
            bound = e2e[name]["bound"] if name in e2e else None
            mark = "" if bound is None else f"{bound:6.2f}"
            versus = ""
            if name in base and name in e2e:
                change = entry["median"] / base[name]["median"] - 1.0
                entry["change_vs_baseline"] = change
                worse = -change if e2e[name]["better"] == "higher" else change
                versus = f"{change:+8.3f}" + (" worse" if worse > bound else "")
                all_ok &= worse <= bound
            print(f"  {name:34s} {entry['median']:12.6g} {entry['q1']:12.6g} "
                  f"{entry['q3']:12.6g} {entry['spread']:7.3f} {mark:>6s} "
                  f"{versus:>8s}  {entry['unit']}")
        untraced = [r for r in results if r["trace"] == 0]
        wall = medians([r["wall"] for r in untraced])
        scale = medians([r["scale"] for r in untraced])
        if wall:
            print("  raw wall-clock medians: " + ", ".join(
                f"{k} {v:.6g}" for k, v in wall.items()))
            print("  stage scale factors (reference / wall): " + ", ".join(
                f"{k} {v:.3f}" for k, v in scale.items()))
        summary[workload] = {"failed_stage_frac": failed / attempted,
                             "metrics": per_metric, "wall_medians": wall,
                             "stage_scale_medians": scale}

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "host": host, "seconds": seconds, "seeds": args.seeds,
            "traced_seeds": args.traced_seeds,
            "baseline": str(args.baseline) if args.baseline else None,
            "workloads": summary, "runs": runs,
        }, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
