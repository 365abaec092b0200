"""Steadiness check: run a workload N times and compare the spread of each
end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload eval-reload --runs 5
    python3 perfbench/steady.py --workload all --runs 10 --save set1.json
    python3 perfbench/steady.py --workload all --runs 10 --save set2.json --against set1.json
    python3 perfbench/steady.py --markdown set1.json set2.json

Runs are sequential, with seeds first-seed .. first-seed+N-1. For every
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the spread (q3 - q1) / median, the largest deviation of one run from the
median, and the bound. With --against it also prints how far each median
moved the worse way. --markdown renders saved sets as the tables in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, *spec()["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["info"] = [line[5:] for line in lines[:-1] if line.startswith("info ")]
    result["seed"] = seed
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "max_dev": max(abs(v - med) for v in values) / med if med else 0.0}


def worse_by(old: float, new: float, better: str) -> float:
    """Share by which `new` is worse than `old` (negative when better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def table(runs: list[dict], against: list[dict] | None = None) -> list[str]:
    metrics = {m["name"]: m for m in spec()["end_to_end"] + spec()["per_layer"]}
    names = list(runs[0]["metrics"])
    head = f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} " \
           f"{'maxdev':>7s} {'bound':>6s}"
    lines = [head + ("  shift" if against else "")]
    for name in names:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        bound = metrics[name].get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = " ok" if s["spread"] <= bound / 3 else (
                " within bound" if s["spread"] <= bound else " OVER BOUND")
        line = (f"{name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                f"{s['spread']:7.3f} {s['max_dev']:7.3f} "
                f"{bound if bound is not None else '-':>6}")
        if against:
            old = statistics.median(r["metrics"][name]["value"] for r in against)
            shift = worse_by(old, s["median"], metrics[name]["better"])
            line += f" {shift:+6.3f}" + (" WORSE THAN BOUND" if bound and shift > bound else "")
        lines.append(line + flag)
    shares = {r["failed"] / r["attempted"] for r in runs}
    lines.append(f"failed share per run: {sorted(shares)}; "
                 f"attempted: {[r['attempted'] for r in runs]}")
    return lines


def markdown(sets: list[Path]) -> None:
    loaded = [json.loads(p.read_text(encoding="utf-8")) for p in sets]
    spec_metrics = {m["name"]: m for m in spec()["end_to_end"] + spec()["per_layer"]}
    for workload, runs in loaded[0].items():
        print(f"\n#### {workload}\n")
        cols = " | ".join(f"{p.stem} median [q1, q3] (spread)" for p in sets)
        shift_col = " median shift |" if len(sets) > 1 else ""
        print(f"| metric | unit | bound | {cols} |{shift_col}")
        print("|---" * (3 + len(sets) + (len(sets) > 1)) + "|")
        for name in runs[0]["metrics"]:
            m = spec_metrics[name]
            cells, medians = [], []
            for data in loaded:
                s = summarize([r["metrics"][name]["value"] for r in data[workload]])
                medians.append(s["median"])
                cells.append(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                             f"({s['spread']:.3f})")
            shift = (f" {worse_by(medians[0], medians[-1], m['better']):+.3f} |"
                     if len(sets) > 1 else "")
            print(f"| `{name}` | {m['unit']} | {m.get('bound', '-')} | {' | '.join(cells)} |"
                  + shift)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write every run's result as JSON")
    parser.add_argument("--against", type=Path, help="a set saved earlier, to compare medians")
    parser.add_argument("--markdown", type=Path, nargs="+", help="render saved sets")
    args = parser.parse_args(argv)
    if args.markdown:
        markdown(args.markdown)
        return 0
    names = [w["name"] for w in spec()["workloads"]] if args.workload == "all" else [args.workload]
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    saved = {}
    for name in names:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(name, args.first_seed + i, spec()["run_seconds"], args.trace))
            print(f"{name} seed {runs[-1]['seed']}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        saved[name] = runs
        print(f"\n== {name}: {args.runs} runs, trace {args.trace}")
        print("\n".join(table(runs, earlier.get(name))), flush=True)
        if args.save:
            args.save.parent.mkdir(parents=True, exist_ok=True)
            args.save.write_text(json.dumps(saved, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
