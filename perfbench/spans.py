"""Spans and counts around the calls `landmark_frames.experiment` makes.

`experiment` imports its callees by name (`from .decoder import
viterbi`), so a wrapper must replace the name inside that module, not
the function in the module that defines it. `Tracer.install` swaps each
name for a wrapper that times the call on the tracer's `Recorder`;
`Tracer.uninstall` puts the originals back.

With `--jobs N > 1` the per-utterance pipeline runs in pool workers.
`pipeline_one` (the wrapper for `experiment._pipeline_one`) records the
worker's spans on a fresh `Recorder` and returns them with the result;
`CountingPool.map`, which replaces the executor `experiment` builds,
merges them into the parent's recorder and hands back the plain result.
Both are module-level because the pool pickles `pipeline_one` by name;
forked workers find the parent's tracer in `_tracer`.
"""

import hashlib
import os
import pickle
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import landmark_frames.experiment as experiment


class Recorder:
    """Calls, total and self time per span name, plus free counters.

    Self time is a span's duration minus the time of the spans opened
    inside it in the same process.
    """

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.child = Counter()
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.inputs = set()
        self._open = []

    @contextmanager
    def span(self, name, also=(), sample=False):
        """Time the body under name; names in also get the same call, not nested."""
        inner = [0.0]
        self._open.append(inner)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._open.pop()
            if self._open:
                self._open[-1][0] += elapsed
            for key in (name, *also):
                self.calls[key] += 1
                self.total[key] += elapsed
            self.child[name] += inner[0]
            if sample:
                self.samples[name].append(elapsed)

    def export(self) -> dict:
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.total[name] - self.child[name],
                }
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "samples": {name: list(v) for name, v in sorted(self.samples.items())},
            "inputs": sorted(self.inputs),
        }

    def merge(self, data: dict) -> None:
        for name, s in data["spans"].items():
            self.calls[name] += s["calls"]
            self.total[name] += s["total_s"]
            self.child[name] += s["total_s"] - s["self_s"]
        self.counts.update(data["counts"])
        for name, values in data["samples"].items():
            self.samples[name].extend(values)
        self.inputs.update(data["inputs"])


_tracer = None  # this process's Tracer; module-level so pool workers can reach it


class Tracer:
    """Patches `landmark_frames.experiment` so its layer calls are recorded.

    pid is the process that owns the recorder; any other process running
    `pipeline_one` is a pool worker and ships its spans back.
    """

    def __init__(self, pid):
        self.rec = Recorder()
        self.pid = pid
        self.saved = {}

    def install(self) -> None:
        global _tracer
        for name, wrapper in self._wrappers().items():
            self.saved[name] = getattr(experiment, name)
            setattr(experiment, name, wrapper)
        _tracer = self

    def uninstall(self) -> None:
        global _tracer
        for name, original in self.saved.items():
            setattr(experiment, name, original)
        self.saved.clear()
        _tracer = None

    def _span(self, name, fn, also=None):
        """Wrap fn in a span; also(args) names extra keys timed with it."""
        def wrapper(*args, **kwargs):
            with self.rec.span(name, also(args) if also else ()):
                return fn(*args, **kwargs)
        return wrapper

    def _count_input(self, key, fn):
        """Wrap fn, adding the length of its first argument to counter key."""
        def wrapper(*args, **kwargs):
            self.rec.counts[key] += len(args[0])
            return fn(*args, **kwargs)
        return wrapper

    def _wrappers(self) -> dict:
        e = experiment
        rec = lambda: self.rec  # noqa: E731 - a worker swaps the recorder per task
        decode, score, serialize, write = (
            e.viterbi, e.align_edit, e.write_score_matrix, e.atomic_write_text
        )

        def viterbi(matrix, model, weights=None, beam=None):
            # Identify the input outside the span so hashing is not decode time.
            rec().inputs.add(f"{hashlib.sha1(matrix.values.tobytes()).hexdigest()}:{beam!r}")
            rec().counts["decoder.frames"] += matrix.T
            with rec().span("decoder.viterbi", sample=True):
                return decode(matrix, model, weights=weights, beam=beam)

        def align_edit(ref, hyp, utterance_id=""):
            rec().counts["scoring.edit_cells"] += (len(ref) + 1) * (len(hyp) + 1)
            with rec().span("scoring.align_edit"):
                return score(ref, hyp, utterance_id)

        def write_score_matrix(matrix):
            with rec().span("corpus_io.serialize"):
                data = serialize(matrix)
            rec().counts["corpus_io.checksum_bytes"] += len(data)
            return data

        def atomic_write_text(path, text):
            rec().counts["corpus_io.files_written"] += 1
            rec().counts["corpus_io.bytes_written"] += len(text.encode("utf-8"))
            with rec().span("corpus_io.write"):
                return write(path, text)

        read = "corpus_io.bytes_read"
        return {
            "compute_outcomes": self._span("experiment.compute_outcomes", e.compute_outcomes),
            "ProcessPoolExecutor": CountingPool,
            "_pipeline_one": pipeline_one,
            "gen_corpus": self._span("synth.gen_corpus", e.gen_corpus),
            "load_corpus_dir": self._span("corpus_io.read", e.load_corpus_dir),
            "read_score_matrix": self._count_input(read, e.read_score_matrix),
            "parse_alignment": self._count_input(read, e.parse_alignment),
            "read_manner_table": self._count_input(read, e.read_manner_table),
            "read_transition_model": self._count_input(read, e.read_transition_model),
            "annotate": self._span("landmarks.annotate", e.annotate),
            "realize_strategy": self._span("strategy.realize", e.realize_strategy),
            "adjust_mask_to_rate": self._span("strategy.adjust", e.adjust_mask_to_rate),
            "apply_replacement": self._span(
                "strategy.replace", e.apply_replacement,
                also=lambda args: (f"strategy.replace.{args[2]}",),
            ),
            "apply_weights": self._span("strategy.weights", e.apply_weights),
            "write_score_matrix": write_score_matrix,
            "write_mask": self._span("corpus_io.serialize", e.write_mask),
            "atomic_write_text": atomic_write_text,
            "viterbi": viterbi,
            "align_edit": align_edit,
            "merge_reports": self._span("scoring.merge_reports", e.merge_reports),
            "wilcoxon_signed_rank": self._span("stats.wilcoxon", e.wilcoxon_signed_rank),
            "welch_t": self._span("stats.welch", e.welch_t),
            "cv_folds": self._span("stats.cv_folds", e.cv_folds),
        }


def pipeline_one(task):
    """Stand-in for `experiment._pipeline_one`; in a worker, returns (result, spans)."""
    tracer = _tracer
    run = tracer.saved["_pipeline_one"]
    if tracer.pid == os.getpid():
        return run(task)
    outer, tracer.rec = tracer.rec, Recorder()
    try:
        result = run(task)
    finally:
        inner, tracer.rec = tracer.rec, outer
    return result, inner.export()


class CountingPool(ProcessPoolExecutor):
    """The executor `experiment` builds, counting starts and task bytes."""

    def __init__(self, *args, **kwargs):
        _tracer.rec.counts["experiment.pool_starts"] += 1
        super().__init__(*args, **kwargs)

    def map(self, fn, tasks, chunksize=1):
        rec = _tracer.rec
        tasks = list(tasks)
        # The pool pickles each chunk of tasks as one message.
        rec.counts["experiment.task_bytes"] += sum(
            len(pickle.dumps(tasks[i:i + chunksize])) for i in range(0, len(tasks), chunksize)
        )
        with rec.span("experiment.pool_wait"):
            shipped = list(super().map(fn, tasks, chunksize=chunksize))
        results = []
        for result, spans in shipped:
            rec.merge(spans)
            results.append(result)
        return results
