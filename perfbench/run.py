"""Benchmark of the landmark-frames `run` and `sweep` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is run from
its `src` directory. Each run sets up the workload's inputs from the
seed, then runs the workload's command in a fresh interpreter again and
again until S seconds have passed, timing each command from outside
with its CPU time and peak RSS taken from wait4, and timing set-up once
more after each command. Every command's exit status, requested report
rows and output digest are checked; digests must agree across the run.

Times are reported on a nominal machine clock. perfbench/reference.py,
a fixed job that uses no program code, runs before the first set-up and
after every command and set-up; a step's times are multiplied by
REF_NOMINAL_S over the mean of the reference times around it. On the
2-vCPU machine this was written on, identical commands ran up to 50%
slower for minutes at a time and the reference slowed with them: over
74 commands the quartile spread of run-s24's wall time was 42% raw and
12% scaled. Raw times are kept in the run's record.

--trace 0 prints the end-to-end metrics. --trace 1 also runs the
command once more under perfbench/trace_cmd.py and prints per-layer
metrics from its spans. Timed commands are never traced.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. An operation is one command
run; error rows inside a report are program output, reported by
completed_frac. Everything else the run measured, with machine info
and workload properties, is written to .perfbench/results/.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
STATE = ROOT / ".perfbench"

CLI = ["-m", "landmark_frames.cli"]
COMMAND_TIMEOUT_S = 150
REF_NOMINAL_S = 0.5
BASELINE = "identity"
REPLACEMENT_METHODS = ("copy", "fill_0", "fill_const", "upsample")

WORKLOADS = {
    # The run shape of ROADMAP "Recent": S=24, all four replacement methods.
    "run-s24": {
        "command": "run",
        "jobs": 1,
        "utterances": 200,
        "config": {
            "strategies": [
                "regular:P=2,D=1",
                "regular:P=3,D=1,method=upsample",
                "landmark:keep,r=1,method=fill_const",
                "random:match=keep,r=1,method=fill_0",
                "hybrid:P=2,D=1,overweight=1.5",
            ],
            "comparison": "landmark:keep,r=1,method=fill_const",
            "folds": 10,
            "synth": {"n_utterances": 200},
        },
    },
    # Repeats the same preparation 40 times. Its known failure
    # (random:match=keep at drop rate 0.1) is part of the workload.
    "sweep-drop": {
        "command": "sweep",
        "jobs": 2,
        "utterances": 50,
        "sweep": {"parameter": "drop_rate", "values": [0.1, 0.3, 0.5, 0.7], "repeats": 10},
        "config": {
            "strategies": ["landmark:keep", "random:match=keep"],
            "comparison": "landmark:keep",
            "synth": {"n_utterances": 50},
        },
    },
    # S=96 read from a corpus directory written by the synth command.
    "run-s96-disk": {
        "command": "run",
        "jobs": 1,
        "utterances": 60,
        "corpus": {"n_phones": 32, "utterance_length": 16, "n_utterances": 60},
        "config": {
            "strategies": [
                "regular:P=2,D=1",
                "landmark:keep,r=1,method=fill_const",
                "overweight:factor=3.0,r=1",
            ],
        },
    },
}

END_TO_END_UNITS = {
    "evals_per_s": "evals/s",
    "cpu_ms_per_eval": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "completed_frac": "ratio",
}


class CheckFailed(Exception):
    """The command's outputs are missing or inconsistent."""


def program_env() -> dict:
    env = dict(os.environ)
    env.pop("LANDMARK_FRAMES_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(args, log: Path):
    """Run the interpreter on args; return (exit status, wall s, rusage).

    The rusage from wait4 covers the child and every descendant it
    reaped, so pool workers count toward CPU time and peak RSS. The
    child leads its own process group, killed whole on timeout.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=program_env(),
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class Clock:
    """Reference runs between timed steps, giving each step its scale factor.

    The reference runs as many copies at once as the command has worker
    processes, so it loads the machine the way the command does.
    """

    def __init__(self, work: Path, copies: int):
        self.work = work
        self.copies = copies
        self.refs = []
        self.tick()

    def tick(self) -> float:
        """Run the reference; return the factor for the steps since the last tick."""
        outs = [self.work / f"reference{len(self.refs)}-{i}" for i in range(self.copies)]
        start = time.perf_counter()
        procs = [
            subprocess.Popen([sys.executable, str(BENCH / "reference.py"), str(out)], cwd=ROOT,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for out in outs
        ]
        try:
            statuses = [proc.wait(timeout=COMMAND_TIMEOUT_S) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        wall = time.perf_counter() - start
        if any(statuses):
            raise CheckFailed(f"reference job exited {statuses}")
        for out in outs:
            shutil.rmtree(out)
        self.refs.append(wall)
        return REF_NOMINAL_S / statistics.mean(self.refs[-2:])


def run_checked(args, log: Path) -> None:
    status, _, _ = spawn(args, log)
    if status != 0:
        raise CheckFailed(f"{' '.join(args[:3])} exited {status}: {log.read_text()[-500:]}")


def prepare(workload: dict, seed: int, dest: Path) -> Path:
    """Write the workload's inputs under dest and return the config path.

    Set-up, as setup_s times it, is the config write, the synth command
    for a corpus workload, and check_inputs.py loading the config in a
    fresh interpreter. The config write alone takes 0.1 to 0.7 ms and
    varied fourfold between runs, too little and too noisy to gate; the
    interpreter start and the program's imports make set-up a cost the
    program can move. The corpus directory is not loaded here, since
    the timed command loads it.
    """
    dest.mkdir(parents=True)
    config = {"seed": seed, **workload["config"]}
    if "corpus" in workload:
        synth_cfg = dest / "synth.cfg"
        synth_cfg.write_text("".join(f"{k} = {v}\n" for k, v in workload["corpus"].items()))
        corpus = dest / "corpus"
        run_checked(
            [*CLI, "synth", "--config", str(synth_cfg),
             "--seed", str(seed), "--out", str(corpus)],
            dest / "synth.log",
        )
        config["data_dir"] = str(corpus)
    path = dest / "config.json"
    path.write_text(json.dumps(config, indent=1) + "\n")
    run_checked([str(BENCH / "check_inputs.py"), str(path)], dest / "check.log")
    return path


def command_args(workload: dict, config: Path, out: Path) -> list:
    """landmark-frames arguments of the workload's timed command."""
    args = [workload["command"], "--config", str(config),
            "--out", str(out), "--jobs", str(workload["jobs"])]
    if workload["command"] == "sweep":
        sweep = workload["sweep"]
        args += ["--parameter", sweep["parameter"],
                 "--values", ",".join(str(v) for v in sweep["values"]),
                 "--repeats", str(sweep["repeats"])]
    return args


def row_names(workload: dict) -> list:
    """Strategy cell of every report row the command must write, in order."""
    strategies = workload["config"]["strategies"]
    if workload["command"] == "sweep":
        return [BASELINE] + [s for _ in workload["sweep"]["values"] for s in strategies]
    return [BASELINE] + strategies


def row_errors(path: Path, names: list) -> list:
    """Error cell of each report row, read without a CSV parser.

    Strategy cells hold bare commas, so the reports do not parse as
    CSV. Each row must start with its expected strategy; seven numeric
    cells follow, then the error text when the errors column exists.
    """
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]
    if len(rows) != len(names):
        raise CheckFailed(f"{path.name} has {len(rows)} rows, expected {len(names)}")
    errors = []
    for line, name in zip(rows, names):
        if not line.startswith(name + ","):
            raise CheckFailed(f"{path.name}: row {line[:60]!r} is not {name!r}")
        cells = line[len(name) + 1:].split(",", 7)
        errors.append(cells[7] if len(cells) == 8 else "")
    return errors


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(workload: dict, out: Path) -> dict:
    """Digest, requested rows and failed rows of one command's output.

    Rows are the configured strategies (per swept value for a sweep);
    the baseline row is not counted, since its failure is fatal.
    """
    names = row_names(workload)
    if workload["command"] == "sweep":
        digest_file = out / "sweep.csv"
        failed = sum(1 for e in row_errors(digest_file, names)[1:] if e)
    else:
        digest_file = out / "checksums.txt"
        row_errors(out / "report.csv", names)
        failed = sum(
            (out / f"strategy_{i:02d}" / "error.txt").exists() for i in range(len(names) - 1)
        )
        listed = [line.split("  ", 1) for line in digest_file.read_text().splitlines()]
        for digest, rel in listed:
            if sha256(out / rel) != digest:
                raise CheckFailed(f"checksums.txt does not match {rel}")
    requested = len(names) - 1
    utterances = workload["utterances"]
    ok = requested - failed
    if workload["command"] == "sweep":
        evals = utterances + ok * utterances * workload["sweep"]["repeats"]
    else:
        evals = (1 + ok) * utterances
    return {"digest": sha256(digest_file), "rows": requested, "failed_rows": failed, "evals": evals}


def workload_properties(config_path: Path) -> dict:
    """Input properties that repeat exactly for a seed."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from landmark_frames.experiment import load_corpus_dir, load_experiment_config
    from landmark_frames.synth import gen_corpus

    config = load_experiment_config(config_path.read_text())
    if config.data_dir is not None:
        corpus = load_corpus_dir(config.data_dir)
    else:
        corpus = gen_corpus(config.synth, config.seed)
    frames = [u.matrix.T for u in corpus.utterances]
    refs = [len(u.alignment.phones()) for u in corpus.utterances]
    live = np.isfinite(corpus.model.trans).sum(axis=0)
    return {
        "S": int(corpus.model.S),
        "utterances": len(frames),
        "total_frames": int(sum(frames)),
        "mean_T": float(np.mean(frames)),
        "mean_ref_len": float(np.mean(refs)),
        "mean_live_predecessors": float(live.mean()),
    }


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(trace: dict, scale: float, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from a trace taken at the given scale factor.

    Walls are of the traced and untraced commands, already scaled.
    """
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return scale * spans.get(name, {}).get("total_s", 0.0)

    viterbi_s = total("decoder.viterbi")
    frames = counts.get("decoder.frames", 0)
    durations = sorted(scale * d for d in trace["samples"].get("decoder.viterbi", []))
    decodes = calls("decoder.viterbi")
    m = {
        "experiment.compute_outcomes.calls": (calls("experiment.compute_outcomes"), "count"),
        "experiment.compute_outcomes.self_s": (
            scale * spans.get("experiment.compute_outcomes", {}).get("self_s", 0.0), "s"),
        "experiment.pool_starts": (counts.get("experiment.pool_starts", 0), "count"),
        "experiment.task_bytes": (counts.get("experiment.task_bytes", 0), "bytes"),
        "synth.gen_corpus.calls": (calls("synth.gen_corpus"), "count"),
        "synth.gen_corpus_s": (total("synth.gen_corpus"), "s"),
        "landmarks.annotate.calls": (calls("landmarks.annotate"), "count"),
        "landmarks.annotate_s": (total("landmarks.annotate"), "s"),
        "strategy.realize_s": (total("strategy.realize"), "s"),
        "strategy.adjust_s": (total("strategy.adjust"), "s"),
        "strategy.replace_s": (total("strategy.replace"), "s"),
        "strategy.weights_s": (total("strategy.weights"), "s"),
    }
    for method in REPLACEMENT_METHODS:
        m[f"strategy.replace.{method}_s"] = (total(f"strategy.replace.{method}"), "s")
    m.update({
        "decoder.viterbi.calls": (decodes, "count"),
        "decoder.viterbi_s": (viterbi_s, "s"),
        "decoder.frames": (frames, "count"),
        "decoder.us_per_frame": (1e6 * viterbi_s / frames if frames else 0.0, "us"),
        "decoder.call_p50_ms": (1e3 * percentile(durations, 50), "ms"),
        "decoder.call_p99_ms": (1e3 * percentile(durations, 99), "ms"),
        "decoder.share": (viterbi_s / (scale * trace["wall_s"]), "ratio"),
        "decoder.unique_input_frac": (
            len(trace["inputs"]) / decodes if decodes else 0.0, "ratio"),
        "scoring.align_edit.calls": (calls("scoring.align_edit"), "count"),
        "scoring.align_edit_s": (total("scoring.align_edit"), "s"),
        "scoring.edit_cells": (counts.get("scoring.edit_cells", 0), "count"),
        "scoring.merge_reports.calls": (calls("scoring.merge_reports"), "count"),
        "scoring.merge_reports_s": (total("scoring.merge_reports"), "s"),
        "corpus_io.files_written": (counts.get("corpus_io.files_written", 0), "count"),
        "corpus_io.bytes_written": (counts.get("corpus_io.bytes_written", 0), "bytes"),
        "corpus_io.write_s": (total("corpus_io.write"), "s"),
        "corpus_io.serialize_s": (total("corpus_io.serialize"), "s"),
        "corpus_io.checksum_bytes": (counts.get("corpus_io.checksum_bytes", 0), "bytes"),
        "corpus_io.read_s": (total("corpus_io.read"), "s"),
        "corpus_io.bytes_read": (counts.get("corpus_io.bytes_read", 0), "bytes"),
        "stats.wilcoxon.calls": (calls("stats.wilcoxon"), "count"),
        "stats.wilcoxon_s": (total("stats.wilcoxon"), "s"),
        "stats.welch_s": (total("stats.welch"), "s"),
        "stats.cv_folds_s": (total("stats.cv_folds"), "s"),
        "trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "landmark_frames" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workload, tag, work, results)
    except CheckFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload: dict, tag: str, work: Path, results: Path) -> int:
    clock = Clock(work, workload["jobs"])

    def set_up(i: int):
        start = time.perf_counter()
        config = prepare(workload, args.seed, work / f"setup{i}")
        return config, time.perf_counter() - start

    config, seconds = set_up(0)
    setup_times = [(seconds, clock.tick())]  # (raw seconds, scale)
    properties = workload_properties(config)

    samples, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not attempted or time.perf_counter() - start < args.seconds:
        out = work / f"out{attempted}"
        log = work / f"out{attempted}.log"
        attempted += 1
        status, wall, usage = spawn([*CLI, *command_args(workload, config, out)], log)
        try:
            if status != 0:
                raise CheckFailed(f"exit status {status}: {log.read_text()[-500:]}")
            outputs = check_outputs(workload, out)
        except (CheckFailed, OSError, ValueError) as e:
            failed += 1
            problems.append(f"command {attempted}: {e}")
            break
        # Outputs are deleted when the run ends, not between commands: in
        # one test, deleting run-s24's 1,237 files right before the next
        # command raised that command's system time from 0.07 to 0.6 s.
        samples.append({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "sys_s": usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss / 1024.0,
            **outputs,
        })
        # Set-up is timed again after every command, so its median spans
        # the same stretch of machine load as the commands' medians.
        repeat, seconds = set_up(attempted)
        shutil.rmtree(repeat.parent)
        scale = clock.tick()
        setup_times.append((seconds, scale))
        samples[-1]["scale"] = scale
    if not samples:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 1

    digests = sorted({s["digest"] for s in samples})
    if len(digests) > 1:
        problems.append(f"outputs differ between identical commands: {digests}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine_info(),
        "properties": properties,
        "setup": [{"raw_s": t, "scale": k} for t, k in setup_times],
        "references_s": clock.refs,
        "commands": samples,
    }
    untraced_wall = statistics.median(s["wall_s"] * s["scale"] for s in samples)

    if args.trace:
        spans_path = results / f"{tag}.spans.json"
        out = work / "traced"
        attempted += 1
        status, traced_wall, _ = spawn(
            [str(BENCH / "trace_cmd.py"), str(spans_path), *command_args(workload, config, out)],
            work / "traced.log",
        )
        scale = clock.tick()
        try:
            if status != 0:
                raise CheckFailed(f"traced command exited {status}")
            traced = check_outputs(workload, out)
            if traced["digest"] not in digests:
                raise CheckFailed("traced outputs differ from untraced outputs")
            trace = json.loads(spans_path.read_text())
        except (CheckFailed, OSError, ValueError) as e:
            failed += 1
            problems.append(f"traced command: {e}")
            print("error: " + "; ".join(problems), file=sys.stderr)
            return 1
        metrics = layer_metrics(trace, scale, scale * traced_wall, untraced_wall)
        record.update(traced_wall_s=traced_wall, traced_scale=scale)
    else:
        completed = [(s["rows"] - s["failed_rows"]) / s["rows"] for s in samples]
        values = {
            "evals_per_s": statistics.median(
                s["evals"] / (s["wall_s"] * s["scale"]) for s in samples),
            "cpu_ms_per_eval": statistics.median(
                1e3 * s["cpu_s"] * s["scale"] / s["evals"] for s in samples),
            "setup_s": statistics.median(t * k for t, k in setup_times),
            "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in samples),
            "completed_frac": statistics.median(completed),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        record["failed_frac"] = 1.0 - values["completed_frac"]
        record["raw"] = {
            "evals_per_s": statistics.median(s["evals"] / s["wall_s"] for s in samples),
            "cpu_ms_per_eval": statistics.median(1e3 * s["cpu_s"] / s["evals"] for s in samples),
            "setup_s": statistics.median(t for t, _ in setup_times),
        }

    correct = not problems
    record.update(correct=correct, problems=problems, digests=digests, metrics=metrics)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(samples)} commands, median wall "
          f"{statistics.median(s['wall_s'] for s in samples):.3f} s "
          f"({untraced_wall:.3f} s scaled), digest {digests[0][:16]}")
    print("properties " + json.dumps(properties))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in record.get("raw", {}).items():
        print(f"  {name + ' (raw)':36s} {value:.6g} {END_TO_END_UNITS[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
