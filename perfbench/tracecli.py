"""Run one `graphkd` CLI command with timers wrapped around its layers.

    python3 perfbench/tracecli.py TRACE_OUT -- <graphkd cli arguments>

Each wrapped function records a span total and call count keyed by its own
name and the name of the innermost wrapped function that called it, so the
parent process can split, say, teacher forward passes made while training
from those made for validation. `backward` also records the tape length of
each step. Spans stay in memory and are written to TRACE_OUT as JSON when
the command ends. Nothing in the package changes; only module attributes
of this process are rebound.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). A function imported by name into another
# module is wrapped where it is looked up, since that is the name the
# caller's code resolves at run time.
WRAPPED = (
    ("datagen", "generate_synthetic", "datagen.generate"),
    ("datagen", "ingest_manifest", "datagen.ingest"),
    ("graphs", "toy_embed", "embeddings.embed"),
    ("graphs", "top_k_triplets", "embeddings.retrieve"),
    ("graphs", "build_edges", "graphs.edges"),
    ("graphs", "write_graphs", "graphs.write"),
    ("graphs", "read_graphs", "graphs.read"),
    ("teacher", "normalize_adjacency", "graphs.normalize"),
    ("distill", "normalize_adjacency", "graphs.normalize"),
    ("teacher", "backward", "autodiff.backward"),
    ("distill", "backward", "autodiff.backward"),
    ("teacher", "optimizer_step", "autodiff.optimizer"),
    ("distill", "optimizer_step", "autodiff.optimizer"),
    ("teacher", "train_teacher", "teacher.train"),
    ("teacher", "teacher_forward", "teacher.forward"),
    ("teacher", "teacher_logits", "teacher.logits"),
    ("distill", "train_student", "distill.train"),
    ("distill", "student_forward", "distill.forward"),
    ("distill", "student_logits", "distill.logits"),
    ("distill", "kd_loss", "distill.kd_loss"),
    ("distill", "compute_soft_labels", "distill.soft_labels"),
    ("evaluate", "evaluate_model", "evaluate.model"),
    ("evaluate", "build_report", "evaluate.report"),
    ("evaluate", "write_report", "evaluate.report"),
    ("evaluate", "comparison_report", "evaluate.report"),
    ("evaluate", "write_comparison", "evaluate.report"),
    ("teacher", "write_checkpoint", "serialization.checkpoint_write"),
    ("distill", "write_checkpoint", "serialization.checkpoint_write"),
    ("teacher", "read_checkpoint", "serialization.checkpoint_read"),
    ("distill", "read_checkpoint", "serialization.checkpoint_read"),
)


class Tracer:
    def __init__(self):
        self.stack: list[str] = []
        self.spans: dict[str, list] = {}  # "name|parent" -> [seconds, calls]
        self.tape_records = 0
        self.tape_steps = 0

    def wrap(self, fn, name: str):
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            key = f"{name}|{stack[-1] if stack else ''}"
            stack.append(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                entry = spans.setdefault(key, [0.0, 0])
                entry[0] += elapsed
                entry[1] += 1
        return timed

    def count_tape(self, fn):
        @functools.wraps(fn)
        def counted(tape, loss):
            self.tape_records += len(tape.records)
            self.tape_steps += 1
            return fn(tape, loss)
        return counted

    def install(self, package) -> None:
        for module_name, attr, name in WRAPPED:
            module = getattr(package, module_name)
            fn = getattr(module, attr)
            if attr == "backward":
                fn = self.count_tape(fn)
            setattr(module, attr, self.wrap(fn, name))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": self.spans,
            "tape_records": self.tape_records,
            "tape_steps": self.tape_steps,
        }), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracecli.py TRACE_OUT -- <graphkd cli arguments>", file=sys.stderr)
        return 1
    import graphkd
    from graphkd import cli
    for module_name in {m for m, _, _ in WRAPPED}:
        __import__(f"graphkd.{module_name}")
    tracer = Tracer()
    tracer.install(graphkd)
    try:
        return cli.run(argv[2:])
    finally:
        tracer.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
