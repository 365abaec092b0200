"""The graphkd benchmark: one workload, run through the real CLI, timed and checked.

    python3 perfbench/run.py --workload build-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Set-up (synthetic data, and for
eval-reload the graphs file and checkpoints) is made `setup_reps` times and
its median is `setup_s`. Then the workload's round of CLI commands repeats
until `--seconds` have passed, always finishing the round it is in. Every
command is a fresh process, as a user's separate invocation would be, so
none inherits a warm cache from another.

A fixed numpy/Python probe runs before the first command, after each one,
and every PROBE_EVERY_S while one runs: the command is stopped (SIGSTOP)
for the probe and continued after it, and the pause is not counted in its
time. Each command's time is scaled by PROBE_REF_S over the mean of its
probes, which takes out the host's drift over the command. The host's
speed flips between two levels within a second, so short probes taken
often track it better than long ones taken seldom; the raw probe
time is reported as `host.probe_s`. Traced commands are probed only before
and after, since a pause would land inside their spans. Rates and times are medians over set-up repetitions and
rounds. Outputs are checked (see checks.py) before anything is reported.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, holding the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One BLAS thread, in this process and in every command it starts: the
# program's matrices are small, and nproc is 2.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import (SPLITS, WORKLOADS, Command, round_commands,  # noqa: E402
                       setup_commands, student_name, teacher_name, toy)

ROOT = HERE.parent
RUN_DEADLINE_S = 170.0
PROBE_REF_S = 0.005
PROBE_EVERY_S = 0.05
PROBE_LOOPS = 100
MB = 1e6

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "build_samples_per_s": "samples/s",
    "graphs_file_mb": "MB", "teacher_steps_per_s": "sample-steps/s",
    "student_steps_per_s": "sample-steps/s", "eval_samples_per_s": "samples/s",
    "peak_rss_mb": "MB", "teacher_micro_f1": "fraction", "student_micro_f1": "fraction",
    "kd_f1_ratio": "ratio",
}

# Per-layer metric -> (unit, numerator key, denominator key or None).
PER_LAYER = {
    "datagen.generate_s": ("s", "datagen.generate", None),
    "datagen.ingest_s": ("s", "datagen.ingest", None),
    "embeddings.embed_s": ("s", "embeddings.embed", None),
    "embeddings.embed_calls": ("count", "embeddings.embed#", None),
    "embeddings.retrieve_s": ("s", "embeddings.retrieve", None),
    "embeddings.retrieve_calls": ("count", "embeddings.retrieve#", None),
    "graphs.edges_s": ("s", "graphs.edges", None),
    "graphs.write_s": ("s", "graphs.write", None),
    "graphs.read_s": ("s", "graphs.read", None),
    "graphs.read_calls": ("count", "graphs.read#", None),
    "graphs.normalize_s": ("s", "graphs.normalize", None),
    "autodiff.backward_s": ("s/step", "autodiff.backward", "steps"),
    "autodiff.optimizer_s": ("s/step", "autodiff.optimizer", "steps"),
    "autodiff.tape_records_per_step.teacher": ("count", "tape.teacher", "tapesteps.teacher"),
    "autodiff.tape_records_per_step.mlp_kd": ("count", "tape.mlp_kd", "tapesteps.mlp_kd"),
    "autodiff.tape_records_per_step.mlp_plain": ("count", "tape.mlp_plain",
                                                 "tapesteps.mlp_plain"),
    "autodiff.tape_records_per_step.transformer_kd": ("count", "tape.transformer_kd",
                                                      "tapesteps.transformer_kd"),
    "teacher.forward_s": ("s/step", "teacher.forward@teacher.train", "steps.teacher"),
    "teacher.val_s": ("s", "teacher.logits", None),
    "distill.forward_s": ("s/step", "distill.forward@distill.train", "steps.student"),
    "distill.kd_loss_s": ("s/step", "distill.kd_loss", "steps.student"),
    "distill.soft_labels_s": ("s", "distill.soft_labels", None),
    "distill.val_s": ("s", "distill.logits@distill.train", None),
    "evaluate.predict_s": ("s", "evaluate.predict", None),
    "evaluate.report_s": ("s", "evaluate.report", None),
    "serialization.checkpoint_write_s": ("s", "serialization.checkpoint_write", None),
    "serialization.checkpoint_read_s": ("s", "serialization.checkpoint_read", None),
    "cli.gen_synth_s": ("s", "cli.gen-synth", None),
    "cli.build_graphs_s": ("s", "cli.build-graphs", None),
    "cli.train_teacher_s": ("s", "cli.train-teacher", None),
    "cli.distill_s": ("s", "cli.distill", None),
    "cli.eval_s": ("s", "cli.eval", None),
    "cli.compare_s": ("s", "cli.compare", None),
    "host.probe_s": ("s", None, None),
}

_PROBE_RNG = np.random.Generator(np.random.PCG64(20241105))
_PROBE_A = _PROBE_RNG.standard_normal((8, 16))
_PROBE_W = _PROBE_RNG.standard_normal((16, 16))
_PROBE_ROW = _PROBE_RNG.standard_normal(64).tolist()


def probe() -> float:
    """Fixed work in the mix the program does -- small matmuls, a generator
    seeded per call, dict updates and JSON floats -- timed. It calls no
    program code, so a change to the program cannot move it."""
    start = perf_counter()
    table: dict[int, float] = {}
    for i in range(PROBE_LOOPS):
        h = np.maximum(_PROBE_A @ _PROBE_W, 0.0)
        table[i & 63] = table.get(i & 63, 0.0) + float(h.sum())
        np.random.Generator(np.random.PCG64(i)).standard_normal(16)
        if i % 4 == 0:
            json.loads(json.dumps(_PROBE_ROW))
    return perf_counter() - start


@dataclass
class Done:
    """A finished command: wall time without pauses, probe scale, trace."""

    command: Command
    wall: float
    scale: float
    code: int
    trace: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


class Runner:
    def __init__(self, work: Path, trace: bool, deadline: float):
        self.work = work
        self.trace = trace
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        **BLAS_ENV)
        self.probes: list[float] = []
        self.done: list[tuple[Done, list[float]]] = []
        self.count = 0

    def probe(self) -> float:
        self.probes.append(probe())
        return self.probes[-1]

    def run(self, cmd: Command, cwd: Path) -> Done:
        self.count += 1
        log = self.work / f"cmd{self.count:04d}.log"
        trace_file = self.work / f"cmd{self.count:04d}.trace.json"
        if self.trace:
            argv = [sys.executable, str(HERE / "tracecli.py"), str(trace_file), "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "graphkd.cli", *cmd.argv]
        samples = [self.probes[-1] if self.probes else self.probe()]
        paused = 0.0
        with open(log, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while not poller.poll(PROBE_EVERY_S * 1000):
                    if perf_counter() > self.deadline:
                        proc.kill()
                        break
                    # Spans timed inside a traced command would count the
                    # pause, so traced commands are only probed around.
                    if self.trace:
                        continue
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status = os.waitpid(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(status):  # it ended before the signal
                        proc.returncode = os.waitstatus_to_exitcode(status)
                        break
                    paused_at = perf_counter()
                    samples.append(self.probe())
                    os.kill(proc.pid, signal.SIGCONT)
                    paused += perf_counter() - paused_at
                code = proc.wait()
            finally:
                os.close(pidfd)
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = perf_counter() - start - paused
        samples.append(self.probe())
        done = Done(cmd, wall, PROBE_REF_S / statistics.fmean(samples), code)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"command failed ({code}): graphkd {' '.join(cmd.argv)}\n{tail}",
                  file=sys.stderr)
        elif self.trace:
            done.trace = json.loads(trace_file.read_text(encoding="utf-8"))
        self.done.append((done, samples))
        return done

    def phase(self, cmds: list[Command], cwd: Path) -> list[Done]:
        cwd.mkdir(parents=True, exist_ok=True)
        finished = []
        for cmd in cmds:
            finished.append(self.run(cmd, cwd))
            if finished[-1].code != 0:
                break
        return finished


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def rate(phases: list[list[Done]], stage: str, per: str) -> float:
    """Median over phases of (work / scaled wall) for one CLI stage."""
    values = []
    for phase in phases:
        chosen = [d for d in phase if d.command.stage == stage]
        if chosen:
            work = sum(getattr(d.command, per) for d in chosen)
            values.append(work / sum(d.seconds for d in chosen))
    return statistics.median(values)


def layer_totals(phase: list[Done]) -> dict[str, float]:
    """Scaled per-layer times, counts and step totals of one phase."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for d in phase:
        add(f"cli.{d.command.stage}", d.seconds)
        if d.command.model:
            add("steps", d.command.steps)
            add("steps.teacher" if d.command.model == "teacher" else "steps.student",
                d.command.steps)
            add(f"tape.{d.command.model}", d.trace.get("tape_records", 0))
            add(f"tapesteps.{d.command.model}", d.trace.get("tape_steps", 0))
        for key, (seconds, calls) in d.trace.get("spans", {}).items():
            name, parent = key.split("|")
            add(name, seconds * d.scale)
            add(f"{name}#", calls)
            add(f"{name}@{parent}", seconds * d.scale)
    out["evaluate.predict"] = (out.get("evaluate.model", 0.0)
                               - out.get("evaluate.report@evaluate.model", 0.0))
    return out


def per_layer(setups: list[list[Done]], rounds: list[list[Done]],
              probes: list[float]) -> dict[str, float]:
    """Each layer's work over one workload pass: the median set-up plus the
    median round. Per-step values divide by the steps of that pass."""
    totals = [layer_totals(p) for p in setups], [layer_totals(p) for p in rounds]

    def value(key):
        return sum(statistics.median(t.get(key, 0.0) for t in group) for group in totals)

    metrics = {}
    for name, (unit, num, den) in PER_LAYER.items():
        if num is None:
            metrics[name] = statistics.median(probes)
        elif den is None:
            metrics[name] = value(num)
        else:
            steps = value(den)
            metrics[name] = value(num) / steps if steps else 0.0
    return metrics


def end_to_end(setups, rounds, graphs: Path, quality: dict) -> dict[str, float]:
    phases = setups + rounds
    kd, plain = quality["student_kd"], quality["student_plain"]
    return {
        "setup_s": statistics.median(sum(d.seconds for d in p) for p in setups),
        "pipeline_s": statistics.median(sum(d.seconds for d in p) for p in rounds),
        "build_samples_per_s": rate(phases, "build-graphs", "samples"),
        "graphs_file_mb": graphs.stat().st_size / MB,
        "teacher_steps_per_s": rate(phases, "train-teacher", "steps"),
        "student_steps_per_s": rate(phases, "distill", "steps"),
        "eval_samples_per_s": rate(phases, "eval", "samples"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / MB,
        "teacher_micro_f1": statistics.fmean(quality["teachers"]),
        "student_micro_f1": statistics.fmean(kd),
        "kd_f1_ratio": statistics.fmean(kd) / statistics.fmean(plain),
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.blake2b(p.read_bytes(), digest_size=16).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def check_outputs(w, seed: int, work: Path, made: Path, round_dirs: list[Path]) -> dict:
    """Run every check; return the test-split quality and the KD deltas."""
    from graphkd import distill, graphs, teacher, verification

    data = work / "setup0" / "data"
    for r in range(1, w.setup_reps):
        checks.require(digest_dir(work / f"setup{r}" / "data") == digest_dir(data)
                       and digest_dir(work / f"setup{r}") == digest_dir(made),
                       f"set-up repetition {r} is not byte-identical to the first")
    for rd in round_dirs[1:]:
        checks.require(digest_dir(rd) == digest_dir(round_dirs[0]),
                       f"{rd.name} is not byte-identical to round0")
    out = made if w.train_in_setup else round_dirs[0]
    reports = round_dirs[0]

    subgraphs, _ = graphs.read_graphs(out / "graphs.jsonl")
    checks.check_graphs(out / "graphs.jsonl", data, w.k, subgraphs)
    checks.check_gradients(verification)

    by_split = {s: [sg for sg in subgraphs if sg.split == s] for s in SPLITS}
    correct: dict[tuple[str, str], np.ndarray] = {}

    def accuracy(name: str, split: str) -> float:
        if (name, split) not in correct:
            predict, _ = distill.load_predictor(out / f"{name}.gkdc")
            correct[name, split] = checks.correct_vector(predict, by_split[split])
        return float(correct[name, split].mean())

    test_labels = np.bincount([sg.label for sg in by_split["test"]])
    majority = test_labels.max() / test_labels.sum()
    teachers = []
    for seed_t in w.teacher_seeds:
        f1 = accuracy(teacher_name(seed_t), "test")
        checks.require(f1 > majority, f"{teacher_name(seed_t)} test F1 {f1:.4f} is not above "
                                      f"the majority-class rate {majority:.4f}")
        teachers.append(f1)
    if any(kd > 0 for _, kd, _ in w.students):
        params = [teacher.load_teacher(out / f"{teacher_name(s)}.gkdc")[0]
                  for s in w.teacher_seeds]
        checks.check_soft_labels(distill.compute_soft_labels(params, by_split["train"]))
    for checkpoint, split in w.evals:
        checks.check_report(reports / f"{checkpoint}.{split}.json", accuracy(checkpoint, split))

    quality = {"teachers": teachers, "student_kd": [], "student_plain": [], "deltas": {}}
    for kind in sorted({k for k, _, _ in w.students}):
        pairs = [(student_name(k, 1.0, s), student_name(k, 0.0, s))
                 for k, kd, s in w.students if k == kind and kd > 0]
        for a, b in pairs:
            quality["student_kd"].append(accuracy(a, "test"))
            quality["student_plain"].append(accuracy(b, "test"))
        quality["deltas"][kind] = checks.paired_bootstrap(
            [correct[a, "test"] for a, _ in pairs], [correct[b, "test"] for _, b in pairs],
            seed) + (len(by_split["test"]), len(pairs))
    return quality


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every stage for the benchmark's own test")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default .perfbench/<workload> in the checkout)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    # Turn SIGTERM into SystemExit so that `finally` kills a running (or
    # stopped) command before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "graphkd" / "cli.py").is_file():
        print(f"error: no graphkd sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    w = WORKLOADS[args.workload]
    if args.size == "toy":
        w = toy(w)
    work = Path(args.workdir) if args.workdir else ROOT / ".perfbench" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, bool(args.trace), started + RUN_DEADLINE_S)

    def finished(phase, cmds):
        return len(phase) == len(cmds) and all(d.code == 0 for d in phase)

    setups, rounds, round_dirs = [], [], []
    ok = True
    made = work / "setup0"
    cmds = setup_commands(w, args.seed)
    for r in range(w.setup_reps):
        setups.append(runner.phase(cmds, work / f"setup{r}"))
        ok = finished(setups[-1], cmds)
        if not ok:
            break
    measure_start = perf_counter()
    while ok and (not rounds or perf_counter() - measure_start < args.seconds):
        out = work / f"round{len(rounds)}"
        cmds = round_commands(w, "../setup0")
        rounds.append(runner.phase(cmds, out))
        round_dirs.append(out)
        ok = finished(rounds[-1], cmds)

    attempted = sum(len(p) for p in setups + rounds)
    failed = sum(d.code != 0 for p in setups + rounds for d in p)
    result = {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    if ok:
        try:
            quality = check_outputs(w, args.seed, work, made, round_dirs)
            result["correct"] = True
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:  # an output the checks could not even read is wrong too
            traceback.print_exc()
    if result["correct"]:
        graphs_path = (made if w.train_in_setup else round_dirs[0]) / "graphs.jsonl"
        e2e = end_to_end(setups, rounds, graphs_path, quality)
        for kind, (mean, low, high, n, pairs) in quality["deltas"].items():
            print(f"info kd-delta {kind}: {mean:+.4f} (95% CI {low:+.4f} .. {high:+.4f}; "
                  f"paired bootstrap over n={n} test samples, {pairs} seed pair(s))")
        print("info " + json.dumps({"rounds": len(rounds), "pipeline_s": e2e["pipeline_s"],
                                    "raw_pipeline_s": statistics.median(
                                        sum(d.wall for d in p) for p in rounds),
                                    "deltas": quality["deltas"],
                                    "commands": [(d.command.stage, d.wall, len(samples),
                                                  statistics.fmean(samples))
                                                 for d, samples in runner.done]}))
        if args.trace:
            values, units = per_layer(setups, rounds, runner.probes), PER_LAYER
        else:
            values, units = e2e, END_TO_END
        result["metrics"] = {name: {"value": values[name],
                                    "unit": units[name][0] if args.trace else units[name]}
                             for name in units}
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
