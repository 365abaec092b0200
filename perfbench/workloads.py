"""Workload definitions: which `graphkd` CLI commands a run makes, and at what size.

Every workload runs the same pipeline shape (gen-synth -> build-graphs ->
train-teacher -> distill -> eval -> compare); what differs is the size of
each stage and which stages are set-up (untimed inputs) and which are the
timed round. A round is repeated unchanged until the run's time is up.
BENCHMARK.json says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int
    triplets_per_class: int
    k: int
    teacher_seeds: tuple[int, ...]
    teacher_epochs: int
    # (student kind, kd weight, training seed)
    students: tuple[tuple[str, float, int], ...]
    student_epochs: int
    # (checkpoint name, split)
    evals: tuple[tuple[str, str], ...]
    # (baseline report, treated report), names as produced by `evals`
    compares: tuple[tuple[str, str], ...]
    # eval-reload makes its graphs file and checkpoints during set-up.
    train_in_setup: bool = False
    setup_reps: int = 3


def teacher_name(seed: int) -> str:
    return f"teacher{seed}"


def student_name(kind: str, kd_weight: float, seed: int) -> str:
    return f"{kind}-{'kd' if kd_weight > 0 else 'kd0'}-s{seed}"


def report_name(checkpoint: str, split: str) -> str:
    return f"{checkpoint}.{split}"


def _students(kinds, seeds):
    return tuple((kind, kd, seed) for seed in seeds for kind in kinds for kd in (1.0, 0.0))


def _kd_pairs(kinds):
    """Test-split evals of each kind's seed-0 kd=0 and KD students, and
    the kd=0 vs KD comparison of each pair."""
    evals = tuple((student_name(k, kd, 0), "test") for k in kinds for kd in (0.0, 1.0))
    compares = tuple((report_name(*evals[i]), report_name(*evals[i + 1]))
                     for i in range(0, len(evals), 2))
    return evals, compares


_MLP_EVALS, _MLP_COMPARES = _kd_pairs(("mlp",))
_BOTH_EVALS, _BOTH_COMPARES = _kd_pairs(("mlp", "transformer"))

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="build-wide",
            samples=2100, triplets_per_class=16, k=4,
            teacher_seeds=(0,), teacher_epochs=1,
            students=(("mlp", 1.0, 0), ("mlp", 0.0, 0)), student_epochs=1,
            evals=_MLP_EVALS, compares=_MLP_COMPARES,
        ),
        Workload(
            name="distill-seeds",
            samples=800, triplets_per_class=8, k=3,
            teacher_seeds=(0, 1), teacher_epochs=3,
            students=_students(("mlp", "transformer"), (0, 1)), student_epochs=3,
            evals=_BOTH_EVALS, compares=_BOTH_COMPARES,
        ),
        Workload(
            name="eval-reload",
            samples=600, triplets_per_class=8, k=3,
            teacher_seeds=(0,), teacher_epochs=3,
            students=(("mlp", 1.0, 0), ("mlp", 0.0, 0)), student_epochs=3,
            evals=tuple((c, s) for c in ("teacher0", "mlp-kd-s0", "mlp-kd0-s0") for s in SPLITS),
            compares=(("teacher0.test", "mlp-kd-s0.test"),) + _MLP_COMPARES,
            train_in_setup=True,
        ),
    )
}


def toy(w: Workload) -> Workload:
    """The same workload shrunk to seconds, for the benchmark's own test."""
    return replace(
        w, samples=120, triplets_per_class=4,
        teacher_seeds=w.teacher_seeds[:1], teacher_epochs=2, student_epochs=1,
        students=tuple(s for s in w.students if s[2] == w.students[0][2]),
        setup_reps=1)


@dataclass(frozen=True)
class Command:
    """One CLI invocation. `steps` counts train sample-steps, `samples` the
    samples a build or eval command processes."""

    stage: str
    argv: tuple[str, ...]
    steps: int = 0
    samples: int = 0
    model: str = ""


def gen_synth(w: Workload, seed: int, data: str) -> Command:
    return Command("gen-synth", (
        "gen-synth", "--out", data, "--samples", str(w.samples),
        "--triplets-per-class", str(w.triplets_per_class), "--seed", str(seed)))


def train_split_size(w: Workload) -> int:
    # gen-synth splits 70 / 10 / 20 by index.
    return round(w.samples * 0.7)


def split_size(w: Workload, split: str) -> int:
    train = train_split_size(w)
    val = round(w.samples * 0.1)
    return {"train": train, "val": val, "test": w.samples - train - val}[split]


def pipeline(w: Workload, data: str, made: str) -> list[Command]:
    """Build, train, distill, eval and compare, in dependency order. Paths
    are relative to the directory a command runs in, so that repeated
    set-ups and rounds write byte-identical files: graphs and checkpoints
    go to `made`, reports to the working directory."""
    graphs = f"{made}/graphs.jsonl"
    cmds = [Command("build-graphs", (
        "build-graphs", "--manifest", f"{data}/manifest.jsonl",
        "--embeddings", f"{data}/visual.gemb",
        "--triplets", f"{data}/triplets.tsv",
        "--triplet-embeddings", f"{data}/triplets.gemb",
        "--k", str(w.k), "--out", graphs), samples=w.samples)]
    train = train_split_size(w)
    teachers = []
    for seed in w.teacher_seeds:
        path = f"{made}/{teacher_name(seed)}.gkdc"
        teachers.append(path)
        cmds.append(Command("train-teacher", (
            "train-teacher", "--graphs", graphs, "--epochs", str(w.teacher_epochs),
            "--seed", str(seed), "--out", path),
            steps=train * w.teacher_epochs, model="teacher"))
    for kind, kd, seed in w.students:
        cmds.append(Command("distill", (
            "distill", "--graphs", graphs, "--teacher", ",".join(teachers),
            "--student", kind, "--kd-weight", str(kd), "--epochs", str(w.student_epochs),
            "--seed", str(seed), "--out", f"{made}/{student_name(kind, kd, seed)}.gkdc"),
            steps=train * w.student_epochs, model=f"{kind}_{'kd' if kd > 0 else 'plain'}"))
    for checkpoint, split in w.evals:
        cmds.append(Command("eval", (
            "eval", "--model", f"{made}/{checkpoint}.gkdc", "--graphs", graphs,
            "--split", split, "--report", f"{report_name(checkpoint, split)}.json"),
            samples=split_size(w, split)))
    for baseline, treated in w.compares:
        cmds.append(Command("compare", (
            "compare", "--baseline", f"{baseline}.json", "--treated", f"{treated}.json",
            "--out", f"compare.{baseline}.{treated}.json")))
    return cmds


def setup_commands(w: Workload, seed: int) -> list[Command]:
    """Run in a set-up directory: synthetic data into `data`, and for
    eval-reload the graphs file and checkpoints beside it."""
    cmds = [gen_synth(w, seed, "data")]
    if w.train_in_setup:
        cmds += [c for c in pipeline(w, "data", ".") if c.stage not in ("eval", "compare")]
    return cmds


def round_commands(w: Workload, setup: str) -> list[Command]:
    """The timed round, run in its own directory; `setup` is the relative
    path of the first set-up directory."""
    if w.train_in_setup:
        return [c for c in pipeline(w, f"{setup}/data", setup)
                if c.stage in ("eval", "compare")]
    return pipeline(w, f"{setup}/data", ".")
