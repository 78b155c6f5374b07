"""Command-line interface.

Subcommands cover both single-artifact steps (annotate, mask,
transform, decode, score, stats) and whole experiments (synth, run,
sweep). Exit codes: 0 on success, 1 for unusable configuration or
command lines, 2 when processing fails at runtime.
"""

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .corpus_io import (
    atomic_write_bytes,
    atomic_write_text,
    format_alignment,
    line_fields,
    parse_alignment,
    read_manner_table,
    read_score_matrix,
    read_score_matrix_text,
    records,
    write_manner_table,
    write_mask,
    write_score_matrix,
    write_score_matrix_text,
)
from .decoder import read_transition_model, viterbi, write_transition_model
from .errors import InvalidConfig, InvalidPattern, LandmarkFramesError, ParseError
from .experiment import SWEEP_PARAMETERS, load_experiment_config, run_experiment, sweep
from .landmarks import (
    DEFAULT_TIMIT_MANNERS,
    AnnotationConfig,
    annotate,
    landmark_fraction,
    read_landmarks,
    write_landmarks,
)
from .scoring import align_edit, write_confusion_csv, write_report_csv
from .stats import welch_t, wilcoxon_signed_rank, write_stats_csv
from .strategy import apply_replacement, apply_weights, parse_strategy, realize_strategy
from .synth import SynthConfig, gen_corpus, parse_synth_config

JOBS_ENV = "LANDMARK_FRAMES_JOBS"


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _resolve_jobs(args) -> int:
    if getattr(args, "jobs", None) is not None:
        jobs = args.jobs
    elif os.environ.get(JOBS_ENV):
        try:
            jobs = int(os.environ[JOBS_ENV])
        except ValueError:
            raise InvalidConfig(f"{JOBS_ENV} must be an integer") from None
    else:
        jobs = 1
    if jobs < 1:
        raise InvalidConfig(f"jobs must be >= 1, got {jobs}")
    return jobs


def _load_matrix(path: str, fmt: str):
    stem = os.path.splitext(os.path.basename(path))[0]
    if fmt == "text":
        return read_score_matrix_text(_read_text(path), stem)
    with open(path, "rb") as fh:
        return read_score_matrix(fh.read(), stem)


def _dump_matrix(path: str, matrix, fmt: str) -> None:
    if fmt == "text":
        atomic_write_text(path, write_score_matrix_text(matrix))
    else:
        atomic_write_bytes(path, write_score_matrix(matrix))


def _write_out(path: str | None, text: str) -> None:
    """Write text to path, or to standard output when no path is given."""
    if path:
        atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


def cmd_synth(args) -> int:
    config = parse_synth_config(_read_text(args.config)) if args.config else SynthConfig()
    corpus = gen_corpus(config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "model.tm"), write_transition_model(corpus.model))
    atomic_write_text(
        os.path.join(args.out, "manners.txt"), write_manner_table(corpus.manner_table) + "\n"
    )
    speaker_lines = []
    for utt in corpus.utterances:
        a = utt.alignment
        speaker_lines.append(f"{a.utterance_id} {a.speaker_id} {a.gender}")
        atomic_write_text(
            os.path.join(args.out, f"{a.utterance_id}.align"), format_alignment(a) + "\n"
        )
        suffix = ".llm.txt" if args.format == "text" else ".llm"
        _dump_matrix(os.path.join(args.out, a.utterance_id + suffix), utt.matrix, args.format)
    atomic_write_text(os.path.join(args.out, "speakers.tsv"), "\n".join(speaker_lines) + "\n")
    print(f"wrote {len(corpus.utterances)} utterances to {args.out}")
    return 0


def _iter_alignment_files(args):
    if args.align:
        yield args.align
        return
    for root, _, names in sorted(os.walk(args.dir)):
        for name in sorted(names):
            if name.lower().endswith((".align", ".phn")):
                yield os.path.join(root, name)


def cmd_annotate(args) -> int:
    if bool(args.align) == bool(args.dir):
        raise InvalidConfig("give exactly one of --align or --dir")
    manner_table = (
        read_manner_table(_read_text(args.manners)) if args.manners else dict(DEFAULT_TIMIT_MANNERS)
    )
    config = AnnotationConfig(args.mode, not args.no_merge_mc)
    paths = list(_iter_alignment_files(args))
    if not paths:
        raise InvalidConfig("no alignment files found")
    # Each input's file under --out; two inputs with one file would overwrite each other.
    targets, owners = {}, {}
    for path in paths if args.out else ():
        rel = os.path.relpath(path, args.dir) if args.dir else os.path.basename(path)
        target = os.path.join(args.out, os.path.splitext(rel)[0].replace(os.sep, "_") + ".landmarks")
        if target in owners:
            raise InvalidConfig(f"{owners[target]} and {path} both map to {target}")
        targets[path] = target
        owners[target] = path
    fractions = []
    for path in paths:
        unit = "samples" if path.lower().endswith(".phn") else args.unit
        stem = os.path.splitext(os.path.basename(path))[0]
        alignment = parse_alignment(_read_text(path), unit, stem)
        landmarks = annotate(alignment, manner_table, config)
        fractions.append(landmark_fraction(landmarks, alignment.num_frames, args.radius))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            atomic_write_text(targets[path], write_landmarks(landmarks) + "\n")
    fraction = float(np.mean(fractions))
    print(f"utterances {len(paths)}")
    print(f"landmark_fraction {fraction!r} radius {args.radius}")
    return 0


def _realize_from_args(args, num_frames: int):
    if args.seed < 0:
        raise InvalidConfig(f"--seed must be >= 0, got {args.seed}")
    spec = parse_strategy(args.strategy)
    landmarks = read_landmarks(_read_text(args.landmarks)) if args.landmarks else None
    rng = np.random.default_rng(args.seed) if spec.needs_rng() else None
    mask, weights, _ = realize_strategy(spec, num_frames, landmarks=landmarks, rng=rng)
    return spec, mask, weights


def cmd_mask(args) -> int:
    if args.frames < 1:
        raise InvalidConfig(f"--frames must be >= 1, got {args.frames}")
    _, mask, _ = _realize_from_args(args, args.frames)
    _write_out(args.out, write_mask(mask) + "\n")
    return 0


def cmd_transform(args) -> int:
    matrix = _load_matrix(args.matrix, args.format)
    spec, mask, weights = _realize_from_args(args, matrix.T)
    modified = apply_weights(apply_replacement(matrix, mask, spec.method), weights)
    _dump_matrix(args.out, modified, args.format)
    print(f"dropped {mask.n_dropped} of {mask.T} frames (method {spec.method})")
    return 0


def cmd_decode(args) -> int:
    matrix = _load_matrix(args.matrix, args.format)
    model = read_transition_model(_read_text(args.model))
    result = viterbi(matrix, model, beam=args.beam)
    _write_out(args.out, f"score {result.score!r}\nphones {' '.join(result.phones)}\n")
    return 0


def _read_hyp_phones(path: str):
    """The phones of a `decode` output (its score line skipped) or of a phone list."""
    phones = []
    for _, fields in line_fields(_read_text(path)):
        if fields[0] != "score":
            phones.extend(fields[1:] if fields[0] == "phones" else fields)
    return phones


def cmd_score(args) -> int:
    stem = os.path.splitext(os.path.basename(args.ref))[0]
    alignment = parse_alignment(_read_text(args.ref), args.unit, stem)
    hyp = _read_hyp_phones(args.hyp)
    report = align_edit(alignment.phones(), hyp, stem)
    _write_out(args.out, write_report_csv([report]))
    if args.confusion:
        atomic_write_text(args.confusion, write_confusion_csv(report))
    return 0


def cmd_stats(args) -> int:
    pairs = []
    for lineno, (a, b) in records(_read_text(args.pairs), "a b", InvalidConfig):
        try:
            pair = (float(a), float(b))
        except ValueError:
            raise InvalidConfig(f"line {lineno}: unparseable value") from None
        if not all(map(math.isfinite, pair)):
            raise InvalidConfig(f"line {lineno}: non-finite value")
        pairs.append(pair)
    if not pairs:
        raise InvalidConfig(f"no pairs in {args.pairs}")
    results = [wilcoxon_signed_rank(pairs, method=args.method)]
    try:
        results.append(welch_t([a for a, _ in pairs], [b for _, b in pairs]))
    except LandmarkFramesError:
        pass
    _write_out(args.out, write_stats_csv(results))
    return 0


def _load_run_config(args):
    config = load_experiment_config(_read_text(args.config))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.format is not None:
        formats = [f.strip() for f in args.format.split(",") if f.strip()]
        overrides["formats"] = formats
    return replace(config, **overrides) if overrides else config


def cmd_run(args) -> int:
    config = _load_run_config(args)
    outcomes = run_experiment(config, args.out, jobs=_resolve_jobs(args))
    failed = [o.strategy for o in outcomes if o.error]
    print(f"wrote report for {len(outcomes)} strategies to {args.out}")
    if failed:
        print("failed strategies: " + "; ".join(failed), file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    config = _load_run_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise InvalidConfig(f"bad sweep values {args.values!r}") from None
    rows = sweep(
        config, args.parameter, values, args.out,
        repeats=args.repeats, jobs=_resolve_jobs(args),
    )
    failed = list(dict.fromkeys(r.strategy for r in rows if r.error))  # each once, in order
    print(f"wrote {args.parameter} sweep over {len(values)} values to {args.out}")
    if failed:
        print("strategies with failures: " + "; ".join(failed), file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    # Bad command lines are configuration errors (exit 1, not argparse's 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="landmark-frames",
        description="Frame-drop and frame-weight decoding experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    p.add_argument("--config", help="synth config file (key = value lines)")
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("binary", "text"), default="binary")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("annotate", help="derive landmarks from alignments")
    p.add_argument("--align", help="one alignment file")
    p.add_argument("--dir", help="directory tree of .align/.phn files")
    p.add_argument("--manners", help="phone manner table (default: built-in TIMIT)")
    p.add_argument("--unit", choices=("frames", "samples"), default="frames")
    p.add_argument("--mode", choices=("boundary", "offset"), default="boundary")
    p.add_argument("--radius", type=int, default=0, help="widen landmarks by this many frames")
    p.add_argument("--no-merge-mc", action="store_true", help="keep separate events at manner changes")
    p.add_argument("--out", help="directory for .landmarks files")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("mask", help="materialize a strategy's drop mask")
    p.add_argument("--strategy", required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--landmarks", help="landmark file for landmark strategies")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("transform", help="apply a strategy to a score matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--landmarks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("binary", "text"), default="binary")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("decode", help="Viterbi-decode a score matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--beam", type=float)
    p.add_argument("--format", choices=("binary", "text"), default="binary")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="score a decoded phone sequence")
    p.add_argument("--ref", required=True, help="reference alignment file")
    p.add_argument("--hyp", required=True, help="decode output or phone list")
    p.add_argument("--unit", choices=("frames", "samples"), default="frames")
    p.add_argument("--out")
    p.add_argument("--confusion", help="also write the confusion table here")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("stats", help="significance tests on paired values")
    p.add_argument("--pairs", required=True, help="file with two values per line")
    p.add_argument("--method", choices=("auto", "exact", "approx"), default="auto")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--format", help="report formats, e.g. csv,svg")
    p.add_argument("--jobs", type=int, help=f"worker processes (or ${JOBS_ENV})")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep one knob across values")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--parameter", choices=SWEEP_PARAMETERS, required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--format", help="report formats, e.g. csv,svg")
    p.add_argument("--jobs", type=int, help=f"worker processes (or ${JOBS_ENV})")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, InvalidPattern, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (LandmarkFramesError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
