"""End-to-end experiment driver.

A run decodes one corpus under the untouched baseline plus any number
of strategies, scores every decode against the reference alignments,
and writes a report directory: the summary CSV, per-strategy error
breakdowns, decoded sequences, drop masks, transformed-matrix
checksums, significance tests, a plot, and checksums. Reruns with the
same config are byte-identical.
"""

import hashlib
import json
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain
from math import ceil
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .corpus_io import (
    GENDERS,
    Corpus,
    Utterance,
    atomic_write_text,
    format_csv,
    parse_alignment,
    read_manner_table,
    read_score_matrix,
    read_score_matrix_text,
    records,
    write_mask,
    write_score_matrix,
)
from .decoder import read_transition_model, viterbi, viterbi_batch
from .errors import FormatError, InvalidConfig, LandmarkFramesError, ShapeError
from .landmarks import AnnotationConfig, annotate
from .scoring import (
    align_edit,
    edit_distance,
    merge_reports,
    per_increment,
    pooled_per,
    write_confusion_csv,
    write_report_csv,
)
from .stats import cv_folds, summarize_cv, welch_t, wilcoxon_signed_rank, write_stats_csv
from .strategy import (
    WEIGHT_KEYS,
    adjust_mask_to_rate,
    apply_replacement,
    apply_weights,
    parse_strategy,
    realize_strategy,
)
from .synth import SynthConfig, gen_corpus

REPORT_COLUMNS = ("strategy", "drop_rate", "per", "delta_per", "mean", "stdev", "p_wilcoxon", "p_t")

BASELINE = "identity"

SWEEP_PARAMETERS = ("overweight", "drop_rate")

REPORT_FORMATS = ("csv", "svg")

# A sweep task holds utterances up to this many lattice cells: T * S
# each, plus 3 * P for its share of the predecessor table tiled for the
# batch and of the candidate buffer (three 8-byte cells per predecessor
# cell). That is about 200 utterances of the synthetic S=24 corpus.
TASK_CELLS = 1 << 19

# Tasks queued per worker, so that no worker waits while the parent
# realizes the next groups. One is enough, and each more holds another
# task's masks in the parent, whose peak RSS is the sweep's.
_QUEUED_PER_WORKER = 1

# Stream labels keep every rng derivation independent of scheduling.
_STREAM_FOLDS = 1
_STREAM_STRATEGY = 2
_STREAM_ADJUST = 3


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    """One experiment: a corpus and the strategies to decode it under.

    The baseline is always the untouched matrices; comparison names the
    strategy that significance tests pair against (default: baseline).
    """

    seed: int = 0
    strategies: list[str] = field(default_factory=list)
    comparison: str = BASELINE
    folds: int = 10
    beam: float | None = None
    annotation: str = "boundary"
    merge_mc: bool = True
    formats: list[str] = field(default_factory=lambda: list(REPORT_FORMATS))
    tag: str | None = None
    synth: SynthConfig = field(default_factory=SynthConfig)
    data_dir: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")
        if self.folds < 2:
            raise InvalidConfig("folds must be >= 2")
        if self.beam is not None and not self.beam > 0:
            raise InvalidConfig("beam must be positive")
        if self.tag is not None and "".join(self.tag.splitlines()) != self.tag:
            raise InvalidConfig(f"tag {self.tag!r} holds a line break")
        AnnotationConfig(self.annotation, self.merge_mc)  # validates the mode
        if not self.formats:
            raise InvalidConfig("formats must not be empty")
        for fmt in self.formats:
            if fmt not in REPORT_FORMATS:
                raise InvalidConfig(f"unknown report format {fmt!r}")
        # Validate strategy strings eagerly so config errors fail fast.
        for s in self.strategies:
            parse_strategy(s)
        if self.comparison != BASELINE and self.comparison not in self.strategies:
            raise InvalidConfig(f"comparison {self.comparison!r} is not a configured strategy")


def _fits(value, kind) -> bool:
    """Whether a JSON value has the declared field type kind; an int is no bool, but is a float."""
    if get_origin(kind) is UnionType:
        return any(_fits(value, k) for k in get_args(kind))
    if get_origin(kind) is list:
        return isinstance(value, list) and all(_fits(v, *get_args(kind)) for v in value)
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _check_keys(cls, raw: dict, where: str) -> None:
    """Refuse a key of raw that is no field of cls, or whose value does not fit the field's type."""
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = set(raw) - set(kinds)
    if unknown:
        raise InvalidConfig(f"unknown {where} keys: {sorted(unknown)}")
    for key, value in raw.items():
        kind = kinds[key]
        if is_dataclass(kind):
            kind = dict  # a nested block, checked on its own
        if not _fits(value, kind):
            name = kind.__name__ if isinstance(kind, type) else str(kind)
            raise InvalidConfig(f"{where} key {key!r} must be {name}, got {value!r}")


def _unique_keys(pairs: list) -> dict:
    """One JSON object, refusing a key given twice in it (json.loads would keep the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidConfig(f"config key {key!r} given twice")
        obj[key] = value
    return obj


def load_experiment_config(text: str) -> ExperimentConfig:
    """Parse the JSON experiment description; each value must have its field's type."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise InvalidConfig(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise InvalidConfig("config must be a JSON object")
    _check_keys(ExperimentConfig, raw, "config")
    kwargs = dict(raw)
    if "synth" in raw:
        if raw.get("data_dir") is not None:
            raise InvalidConfig("synth is ignored when data_dir is set")
        _check_keys(SynthConfig, raw["synth"], "synth")
        kwargs["synth"] = SynthConfig(**raw["synth"])
    return ExperimentConfig(**kwargs)


def _read_speakers(text: str, aligns) -> dict:
    """stem -> (speaker, gender) from "stem speaker gender" lines; aligns are the .align names."""
    speakers = {}
    for lineno, (stem, speaker, gender) in records(text, "stem speaker gender"):
        if gender not in GENDERS:
            raise FormatError(f"line {lineno}: bad gender {gender!r}")
        if stem in speakers:
            raise FormatError(f"line {lineno}: utterance {stem!r} listed twice")
        if f"{stem}.align" not in aligns:
            raise FormatError(f"line {lineno}: utterance {stem!r} has no .align")
        speakers[stem] = (speaker, gender)
    return speakers


def load_corpus_dir(path: str) -> Corpus:
    """Load a decoding corpus from a directory.

    Expects model.tm, manners.txt, and per-utterance <stem>.align plus
    <stem>.llm (else text <stem>.llm.txt) pairs; speakers.tsv ("stem
    speaker gender") is optional, and an utterance it does not list is
    its own F speaker. A malformed speakers.tsv line, one that repeats a
    stem or names a stem with no .align, an .align without its matrix
    or with a phone that no senone emits and manners.txt does not call
    silence, or a matrix whose frame or senone count disagrees with its
    alignment or the model fails here, naming the file and utterance.
    """
    def read(name, parse, *args, utterance=None):
        """parse(contents of name, *args); its errors name the file and utterance."""
        mode, encoding = ("rb", None) if name.endswith(".llm") else ("r", "utf-8")
        try:
            with open(os.path.join(path, name), mode, encoding=encoding) as fh:
                return parse(fh.read(), *args)
        except (LandmarkFramesError, UnicodeDecodeError) as e:
            where = name if utterance is None else f"{name}: utterance {utterance!r}"
            kind = type(e) if isinstance(e, LandmarkFramesError) else FormatError  # not UTF-8
            raise kind(f"{where}: {e}") from None

    model = read("model.tm", read_transition_model)
    manner_table = read("manners.txt", read_manner_table)
    aligns = {name for name in os.listdir(path) if name.endswith(".align")}
    if not aligns:
        raise InvalidConfig(f"no .align files in {path}")
    listed = os.path.exists(os.path.join(path, "speakers.tsv"))
    speakers = read("speakers.tsv", _read_speakers, aligns) if listed else {}
    utterances, emitted = [], {*model.senone_phones, *_silence_phones(manner_table)}
    for stem in sorted(os.path.splitext(name)[0] for name in aligns):
        speaker, gender = speakers.get(stem, (stem, "F"))
        alignment = read(
            f"{stem}.align", parse_alignment, "frames", stem, speaker, gender, utterance=stem
        )
        bad = [phone for phone, _, _ in alignment.segments if phone not in emitted]
        if bad:
            raise FormatError(f"{stem}.align: utterance {stem!r}: no senone emits phone {bad[0]!r}")
        name = f"{stem}.llm"
        if not os.path.exists(os.path.join(path, name)):
            name += ".txt"  # as `synth --format text` writes it
        parse = read_score_matrix if name.endswith(".llm") else read_score_matrix_text
        try:
            matrix = read(name, parse, stem, utterance=stem)
        except FileNotFoundError:
            raise FormatError(
                f"{stem}.align has no {stem}.llm or {stem}.llm.txt for utterance {stem!r}"
            ) from None
        if matrix.T != alignment.num_frames:
            raise ShapeError(
                f"{name}: utterance {stem!r} has {matrix.T} frames, "
                f"its alignment {alignment.num_frames}"
            )
        if matrix.S != model.S:
            raise ShapeError(
                f"{name}: utterance {stem!r} has {matrix.S} senones, model.tm {model.S}"
            )
        utterances.append(Utterance(alignment, matrix))
    return Corpus(model, manner_table, utterances)


@dataclass
class StrategyOutcome:
    """One summary row plus the per-utterance details behind it."""

    strategy: str
    drop_rate: float | None = None
    per: float | None = None
    delta_per: float | None = None
    mean: float | None = None
    stdev: float | None = None
    p_wilcoxon: float | None = None
    p_t: float | None = None
    error: str | None = None
    value: float | None = None  # swept parameter value, if any
    counts: list | None = None  # (n_ref, errors) per utterance
    reports: list | None = None  # PERReport per utterance; run only
    decodes: list | None = None  # (utterance_id, phones); run only
    masks: list | None = None  # (utterance_id, FrameMask)
    checksums: list | None = None  # (utterance_id, transformed matrix sha256)
    fold_increments: list | None = None  # relative PER increment per live fold
    stat_results: list = field(default_factory=list)


# The corpus of a pool worker, set by _init_worker; the parent never sets it.
_worker_corpus = None


def _init_worker(corpus):
    """Pool initializer: each worker receives the command's corpus once."""
    global _worker_corpus
    _worker_corpus = corpus


def _pipeline_one(task):
    """Pool task: _score_task on the worker's corpus."""
    return _score_task(_worker_corpus, task)


def _score_task(corpus, task):
    """Replace, weight, decode, and score the utterances of one task.

    task is (items, beam, full), items holding (utterance index, mask,
    weights, method) per utterance, so a pool task ships no matrix or
    model; weights None means every weight is 1. A run's task (full)
    holds one utterance, decoded by viterbi, and yields (report,
    hypothesis, digest), digest being the sha256 of the modified matrix.
    A sweep's task holds up to TASK_CELLS of lattice from any number of
    strategies and repeats (see _decode_groups), decoded as one
    viterbi_batch that copies each modified matrix into its lattice and
    keeps none; it yields (n_ref, errors), the only numbers a sweep row
    reads.

    Returns, for each utterance in task order, what it yields or the
    LandmarkFramesError it fails with, whatever the stage. Replacement
    errors name the utterance and the stage; weight and decode errors
    already name the utterance.
    """
    items, beam, full = task
    utterances = [corpus.utterances[ui] for ui, *_ in items]

    def modified():
        for utt, (_, mask, weights, method) in zip(utterances, items):
            try:
                yield _modify(utt, mask, weights, method)
            except LandmarkFramesError as e:
                yield e

    silence = _silence_phones(corpus.manner_table)
    if not full:
        lengths = [utt.matrix.T for utt in utterances]
        decoded = viterbi_batch(modified(), corpus.model, beam, lengths=lengths)
        results = []
        for utt, result in zip(utterances, decoded):
            if not isinstance(result, LandmarkFramesError):
                ref, hyp = _scored_phones(utt, result, silence)
                result = len(ref), edit_distance(ref, hyp)
            results.append(result)
        return results
    results = []
    for utt, matrix in zip(utterances, modified()):
        try:
            if isinstance(matrix, LandmarkFramesError):
                raise matrix
            ref, hyp = _scored_phones(utt, viterbi(matrix, corpus.model, beam=beam), silence)
        except LandmarkFramesError as e:
            results.append(e)
            continue
        digest = hashlib.sha256(write_score_matrix(matrix)).hexdigest()
        results.append((align_edit(ref, hyp, utt.alignment.utterance_id), hyp, digest))
    return results


def _scored_phones(utt, result, silence):
    """(reference, hypothesis) phones of a decode of utt, silence left out."""
    ref = [p for p in utt.alignment.phones() if p not in silence]
    return ref, [p for p in result.phones if p not in silence]


def _modify(utt, mask, weights, method):
    """utt's matrix with its masked frames replaced, then weighted."""
    try:
        matrix = apply_replacement(utt.matrix, mask, method)
    except LandmarkFramesError as e:
        raise type(e)(f"{utt.alignment.utterance_id}: replace: {e}") from None
    return matrix if weights is None else apply_weights(matrix, weights)


def _silence_phones(manner_table: dict) -> frozenset:
    return frozenset(p for p, m in manner_table.items() if m == "silence")


@dataclass
class _Prepared:
    """What every point of one command shares.

    full says whether outcomes carry what `run` writes (reports, decodes
    and the sha256 of every modified matrix) or, for a sweep,
    per-utterance counts only. jobs is the executor's worker count.
    folds are the CV folds of a run; a sweep reads none and builds none.
    memo keeps, for the whole command, what does not depend on the point
    (see _realize_group).
    """

    corpus: Corpus
    landmark_sets: list
    executor: ProcessPoolExecutor | None
    full: bool
    jobs: int
    folds: list | None
    baseline: StrategyOutcome | None = None
    memo: dict = field(default_factory=dict)


def _memoized(memo, key, compute):
    """compute(), kept in memo under key. Errors are never kept."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _realize_group(raw, prep, config, stream_index, rep=0, adjust_rate=None):
    """Realize and adjust the masks of one group, raw at repeat rep, in this process.

    It queues nothing; _decode_groups packs the items into tasks. Returns
    (masks, items): masks holds (utterance id, mask) and items a
    task item (see _score_task) per utterance, in corpus order. Realize
    and adjust errors raise here, prefixed with the utterance and the
    stage.

    A task carries weights only when some weight is not 1, read-only;
    otherwise None. prep.memo keeps what does not depend on the point:
    each utterance's realization, keyed by raw, stream_index and, for a
    strategy that draws from an rng, rep, with its read-only map of
    protected frames (None when it protects none or, as in a run or an
    overweight sweep, no point of the command adjusts rates); and its
    adjust seed, keyed by rep and stream_index. The rate adjustment
    itself runs at every point.
    """
    spec = parse_strategy(raw)
    rng_rep = rep if spec.needs_rng() else None
    items, masks = [], []
    for ui, utt in enumerate(prep.corpus.utterances):
        uid = utt.alignment.utterance_id
        landmarks = prep.landmark_sets[ui]

        def realize():
            rng = None
            if spec.needs_rng():
                rng = np.random.default_rng((config.seed, _STREAM_STRATEGY, rep, stream_index, ui))
            mask, weights, protected = realize_strategy(
                spec, utt.matrix.T, landmarks=landmarks, rng=rng
            )
            weights.flags.writeable = protected.flags.writeable = False
            unit = (weights == 1.0).all()
            keep = adjust_rate is not None and protected.any()
            return mask, None if unit else weights, protected if keep else None

        stage = "realize"
        try:
            mask, weights, protected = _memoized(
                prep.memo, ("realize", raw, stream_index, rng_rep, ui), realize
            )
            if adjust_rate is not None:
                stage = "adjust"
                target_n = int(np.floor(adjust_rate * mask.T + 0.5))
                seed = _memoized(
                    prep.memo, ("seed", rep, stream_index, ui),
                    lambda: _derive_seed(config.seed, _STREAM_ADJUST, rep, stream_index, ui),
                )
                mask = adjust_mask_to_rate(mask, target_n, protected, seed=seed)
        except LandmarkFramesError as e:
            raise type(e)(f"{uid}: {stage}: {e}") from None
        masks.append((uid, mask))
        items.append((ui, mask, weights, spec.method))
    return masks, items


def _collect_strategy(raw, masks, results, prep):
    """The outcome of a submitted strategy, once every decode is back.

    results holds what _score_task returned for each utterance; the
    first error among them, in utterance order, raises. Its delta_per
    compares its PER with the baseline's; the baseline itself, collected
    before prep.baseline is set, compares with itself.
    """
    for result in results:
        if isinstance(result, LandmarkFramesError):
            raise result
    drop_rate = float(np.mean([m.drop_rate for _, m in masks]))
    outcome = StrategyOutcome(raw, drop_rate=drop_rate, masks=masks)
    if not prep.full:
        outcome.counts = results
    else:
        outcome.reports = [r for r, _, _ in results]
        outcome.counts = [(r.n_ref, r.errors) for r in outcome.reports]
        outcome.decodes = [(uid, phones) for (uid, _), (_, phones, _) in zip(masks, results)]
        outcome.checksums = [(uid, digest) for (uid, _), (_, _, digest) in zip(masks, results)]
    outcome.per = pooled_per(outcome.counts)
    base = outcome if prep.baseline is None else prep.baseline
    outcome.delta_per = per_increment(base.per, outcome.per)
    return outcome


def _utterance_folds(corpus, config):
    """Speaker-disjoint groups of utterance indices from a gender-stratified split."""
    gender = {}  # speaker -> gender, in order of first appearance
    for utt in corpus.utterances:
        sid, g = utt.alignment.speaker_id, utt.alignment.gender
        if gender.setdefault(sid, g) != g:
            raise InvalidConfig(f"speaker {sid!r} has inconsistent gender labels")
    seed = _derive_seed(config.seed, _STREAM_FOLDS)
    return [
        [ui for ui, utt in enumerate(corpus.utterances) if utt.alignment.speaker_id in members]
        for members in map(set, cv_folds(list(gender.items()), k=config.folds, seed=seed))
    ]


@contextmanager
def _prepare(config: ExperimentConfig, jobs: int, full: bool):
    """Build what one command's points share, with its worker pool.

    Loads or synthesizes the corpus, builds a run's folds, annotates
    landmarks when a strategy reads them, starts one pool of jobs
    workers, at most one per utterance (none for one), and decodes and
    scores the baseline once.
    The pool shuts down when the block exits. Bad folds and a failing
    baseline are fatal. full says whether outcomes carry what `run`
    writes (see _Prepared).
    """
    if config.data_dir is not None:
        corpus = load_corpus_dir(config.data_dir)
    else:
        corpus = gen_corpus(config.synth, config.seed)
    folds = _utterance_folds(corpus, config) if full else None

    landmark_sets = [None] * len(corpus.utterances)
    if any(parse_strategy(s).needs_landmarks() for s in config.strategies):
        ann = AnnotationConfig(config.annotation, config.merge_mc)
        landmark_sets = [
            annotate(utt.alignment, corpus.manner_table, ann) for utt in corpus.utterances
        ]

    executor = None
    jobs = min(jobs, len(corpus.utterances))
    if jobs > 1:
        executor = ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(corpus,)
        )
    try:
        prep = _Prepared(corpus, landmark_sets, executor, full, jobs, folds)
        # The baseline has no drops and no rng, so one decode serves every point.
        ((_, submitted),) = _decode_groups(prep, config, [(BASELINE, 0, 0, None)])
        if isinstance(submitted, LandmarkFramesError):
            raise submitted
        baseline = _collect_strategy(BASELINE, *submitted, prep)
        baseline.mean = baseline.stdev = 0.0
        prep.baseline = baseline
        yield prep
    finally:
        if executor is not None:
            executor.shutdown()


def _evaluate(prep: _Prepared, config: ExperimentConfig, points):
    """Yield one outcome per strategy of each point, in order.

    points is a list of (strategies, rep, adjust_rate); adjust_rate, if
    given, renormalizes every strategy mask to that drop rate. A strategy
    None is skipped and yields nothing; the ones after it keep their
    stream index. A failing strategy yields a row with its error message.
    """
    groups = (
        (raw, stream_index, rep, adjust_rate)
        for strategies, rep, adjust_rate in points
        for stream_index, raw in enumerate(strategies, start=1)
        if raw is not None
    )
    for raw, submitted in _decode_groups(prep, config, groups):
        yield _outcome(raw, submitted, prep)


def _decode_groups(prep: _Prepared, config: ExperimentConfig, groups):
    """Yield (raw, (masks, results)), or (raw, error), per group, in order.

    groups holds (raw, stream_index, rep, adjust_rate), each one strategy
    at one repeat; results holds what _score_task returned for each of
    its utterances. The parent realizes each group's masks
    (_realize_group); a realize or adjust error is the group's outcome.

    A run queues each group as one task per utterance. A sweep packs the
    utterances of consecutive groups into tasks of up to TASK_CELLS,
    group boundaries free. Tasks are queued ahead, up to
    _QUEUED_PER_WORKER per worker: the parent realizes the next groups
    while the workers decode, and reads the oldest task's results only
    when the queue is full or the groups run out.
    """
    model = prep.corpus.model
    cost = [utt.matrix.T * model.S + 3 * model.pred.size for utt in prep.corpus.utterances]
    queued, read, waiting = deque(), deque(), deque()
    limit = 0 if prep.executor is None else _QUEUED_PER_WORKER * prep.jobs
    task, cells = [], 0

    def submit(tasks, chunksize=1):
        if prep.executor is None:
            queued.append([_score_task(prep.corpus, t) for t in tasks])
        else:
            queued.append(prep.executor.map(_pipeline_one, tasks, chunksize=chunksize))

    def ready(limit):
        """Each waiting group whose results are all read, reading tasks until at most limit are queued."""
        while True:
            while waiting and len(read) >= waiting[0][2]:
                raw, masks, n = waiting.popleft()
                if isinstance(masks, LandmarkFramesError):
                    yield raw, masks
                else:
                    yield raw, (masks, [read.popleft() for _ in range(n)])
            if len(queued) <= limit:
                return
            for result in queued.popleft():
                read.extend(result)

    for raw, stream_index, rep, adjust_rate in groups:
        try:
            masks, items = _realize_group(raw, prep, config, stream_index, rep, adjust_rate)
        except LandmarkFramesError as e:
            waiting.append((raw, e, 0))
        else:
            waiting.append((raw, masks, len(items)))
            if prep.full:
                tasks = [([item], config.beam, True) for item in items]
                submit(tasks, ceil(len(tasks) / prep.jobs))
            else:
                for item in items:
                    task.append(item)
                    cells += cost[item[0]]
                    if cells >= TASK_CELLS:
                        submit([(task, config.beam, False)])
                        task, cells = [], 0
        yield from ready(limit)
    if task:
        submit([(task, config.beam, False)])
    yield from ready(0)


def _outcome(raw, submitted, prep):
    """The row of a submitted strategy; an error at submit or collect becomes its message."""
    if isinstance(submitted, LandmarkFramesError):
        return StrategyOutcome(raw, error=str(submitted))
    try:
        return _collect_strategy(raw, *submitted, prep)
    except LandmarkFramesError as e:
        return StrategyOutcome(raw, error=str(e))


def _attach_stats(outcomes, folds, comparison):
    """Summarize every row over the folds, then pair each strategy row against the comparison row.

    outcomes[0] is the baseline. Folds whose baseline slice has no errors
    are skipped: the relative increment is undefined there. The skip
    depends only on the baseline, so every row is summarized over the
    same folds.
    """
    base_pers = [(fold, pooled_per([outcomes[0].counts[ui] for ui in fold])) for fold in folds]
    live = [(fold, base_per) for fold, base_per in base_pers if base_per > 0.0]
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        outcome.fold_increments = [
            per_increment(base_per, pooled_per([outcome.counts[ui] for ui in fold]))
            for fold, base_per in live
        ]
        if live:
            outcome.mean, outcome.stdev = summarize_cv(outcome.fold_increments)
    comp = next(o for o in outcomes if o.strategy == comparison)
    for outcome in outcomes[1:]:
        if outcome.error is not None or outcome is comp or comp.error is not None:
            continue
        # Counts of every outcome follow the corpus utterance order.
        pairs = [(s, c) for (_, s), (_, c) in zip(outcome.counts, comp.counts)]
        wilcoxon = wilcoxon_signed_rank(pairs)
        outcome.p_wilcoxon = wilcoxon.p
        outcome.stat_results.append(wilcoxon)
        if len(outcome.fold_increments) >= 2 and len(comp.fold_increments) >= 2:
            try:
                t_result = welch_t(outcome.fold_increments, comp.fold_increments)
                outcome.p_t = t_result.p
                outcome.stat_results.append(t_result)
            except LandmarkFramesError:
                outcome.p_t = None


def compute_outcomes(config: ExperimentConfig, jobs: int = 1):
    """Run the baseline and every strategy, attaching comparison stats.

    Returns (outcomes, corpus); outcomes[0] is the untouched baseline.
    A failing strategy yields a row with its error message instead of
    aborting the run; a failing baseline is fatal.
    """
    with _prepare(config, jobs, full=True) as prep:
        outcomes = [prep.baseline, *_evaluate(prep, config, [(config.strategies, 0, None)])]
    _attach_stats(outcomes, prep.folds, config.comparison)
    return outcomes, prep.corpus


def format_report_csv(outcomes, seed: int, tag: str | None = None) -> str:
    """Summary CSV; the errors column appears only when some row failed."""
    any_error = any(o.error for o in outcomes)
    rows = []
    for o in outcomes:
        cells = [getattr(o, column) for column in REPORT_COLUMNS]
        if any_error:
            cells.append(o.error)
        rows.append(cells)
    comments = [f"seed={seed}"]
    if tag is not None:
        comments.append(f"tag={tag}")
    header = REPORT_COLUMNS + ("errors",) if any_error else REPORT_COLUMNS
    return format_csv(header, rows, comments)


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# Both charts share one 640x360 canvas with the plot area inside these bounds.
_SVG_WIDTH, _SVG_HEIGHT = 640, 360
_LEFT, _RIGHT, _TOP, _BOTTOM = 60, 620, 40, 300


def _svg_chart(title: str, body: list) -> str:
    """Header, title and axes around the chart body, or "no data" if it is empty."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<text x="{_SVG_WIDTH // 2}" y="20" text-anchor="middle" font-size="14">'
        f'{_xml_escape(title)}</text>',
        f'<line x1="{_LEFT}" y1="{_BOTTOM}" x2="{_RIGHT}" y2="{_BOTTOM}" stroke="black"/>',
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_BOTTOM}" stroke="black"/>',
    ]
    if body:
        parts += body
    else:
        parts.append(
            f'<text x="{_SVG_WIDTH // 2}" y="{_SVG_HEIGHT // 2}" text-anchor="middle">no data</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_zero_line(y: float) -> str:
    """The dashed line across the plot area at the height of delta PER 0."""
    return (
        f'<line x1="{_LEFT}" y1="{y:.1f}" x2="{_RIGHT}" y2="{y:.1f}" '
        f'stroke="gray" stroke-dasharray="4"/>'
    )


def format_plot_svg(outcomes) -> str:
    """Minimal deterministic bar chart of delta PER per strategy."""
    rows = [(o.strategy, o.delta_per, o.stdev or 0.0) for o in outcomes if o.delta_per is not None]
    body = []
    if rows:
        peak = max(max(abs(v) + s for _, v, s in rows), 1e-9)
        scale = 120.0 / peak
        zero_y = (_BOTTOM + _TOP) / 2
        slot = (_RIGHT - _LEFT - 20) / len(rows)
        body.append(_svg_zero_line(zero_y))
        for i, (label, value, stdev) in enumerate(rows):
            x = _LEFT + 10 + i * slot
            bar_w = max(slot * 0.6, 4.0)
            top = zero_y - max(value, 0.0) * scale
            h = abs(value) * scale
            body.append(
                f'<rect x="{x:.1f}" y="{top:.1f}" width="{bar_w:.1f}" height="{h:.1f}" '
                f'fill="steelblue"/>'
            )
            if stdev > 0:
                cx = x + bar_w / 2
                y0 = zero_y - (value + stdev) * scale
                y1 = zero_y - (value - stdev) * scale
                body.append(
                    f'<line x1="{cx:.1f}" y1="{y0:.1f}" x2="{cx:.1f}" y2="{y1:.1f}" '
                    f'stroke="black"/>'
                )
            body.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{_BOTTOM + 16}" text-anchor="middle" '
                f'font-size="9">{_xml_escape(label)}</text>'
            )
            body.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{top - 4:.1f}" text-anchor="middle" '
                f'font-size="9">{value:.2f}</text>'
            )
    return _svg_chart("relative PER change", body)


_SWEEP_COLORS = ("steelblue", "firebrick", "seagreen", "darkorange", "purple", "teal")


def format_sweep_svg(rows, parameter: str) -> str:
    """Deterministic line chart: mean delta PER against the swept value."""
    series = {}
    for row in rows:
        if row.value is None or row.delta_per is None:
            continue
        series.setdefault(row.strategy, []).append((row.value, row.delta_per))
    body = []
    points = [p for pts in series.values() for p in pts]
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points] + [0.0]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0

        def sx(v):
            return _LEFT + (v - x_lo) / x_span * (_RIGHT - _LEFT)

        def sy(v):
            return _BOTTOM - (v - y_lo) / y_span * (_BOTTOM - _TOP)

        body.append(_svg_zero_line(sy(0.0)))
        for si, (label, pts) in enumerate(sorted(series.items())):
            color = _SWEEP_COLORS[si % len(_SWEEP_COLORS)]
            pts = sorted(pts)
            coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
            body.append(f'<polyline points="{coords}" fill="none" stroke="{color}"/>')
            for x, y in pts:
                body.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>')
            body.append(
                f'<text x="{_RIGHT - 4}" y="{_TOP + 14 + 14 * si}" text-anchor="end" '
                f'font-size="10" fill="{color}">{_xml_escape(label)}</text>'
            )
        for value in sorted({p[0] for p in points}):
            body.append(
                f'<text x="{sx(value):.1f}" y="{_BOTTOM + 16}" text-anchor="middle" '
                f'font-size="9">{value:g}</text>'
            )
    return _svg_chart(f"relative PER change vs {parameter}", body)


def _report_files(stem: str, rows, config: ExperimentConfig, svg: str):
    """The summary of rows as (relative path, text), in the formats config asks for."""
    if "csv" in config.formats:
        yield f"{stem}.csv", format_report_csv(rows, config.seed, config.tag)
    if "svg" in config.formats:
        yield f"{stem}.svg", svg


def _strategy_files(name: str, outcome: StrategyOutcome):
    """One strategy's directory as (relative path, text) pairs, masks last."""
    yield os.path.join(name, "strategy.txt"), outcome.strategy + "\n"
    if outcome.error is not None:
        yield os.path.join(name, "error.txt"), outcome.error + "\n"
        return
    yield os.path.join(name, "per_utterance.csv"), write_report_csv(outcome.reports)
    merged = merge_reports(outcome.reports, name)
    yield os.path.join(name, "confusion.csv"), write_confusion_csv(merged)
    if outcome.stat_results:
        yield os.path.join(name, "stats.csv"), write_stats_csv(outcome.stat_results)
    decodes = "\n".join(f"{uid} {' '.join(phones)}" for uid, phones in outcome.decodes)
    yield os.path.join(name, "decode.txt"), decodes + "\n"
    checksums = "\n".join(f"{uid} {digest}" for uid, digest in outcome.checksums)
    yield os.path.join(name, "matrix_checksums.txt"), checksums + "\n"
    for uid, mask in outcome.masks:
        yield os.path.join(name, "masks", f"{uid}.mask"), write_mask(mask) + "\n"


def _write_files(out_dir: str, files) -> str:
    """Write each (relative path, text) pair under out_dir.

    Returns the manifest: a "sha256  path" line per file, sorted by
    path, with each digest taken from the text as it was written.
    """
    entries = []
    made = set()
    for rel, text in files:
        path = os.path.join(out_dir, rel)
        parent = os.path.dirname(path)
        if parent not in made:
            os.makedirs(parent, exist_ok=True)
            made.add(parent)
        atomic_write_text(path, text)
        entries.append((rel, hashlib.sha256(text.encode("utf-8")).hexdigest()))
    return "".join(f"{digest}  {rel}\n" for rel, digest in sorted(entries))


def _remove_listed(out_dir: str) -> None:
    """Remove the files that out_dir's checksums.txt lists, then checksums.txt.
    An entry that is absolute or not a file inside out_dir fails before any is removed."""
    listing = os.path.join(out_dir, "checksums.txt")
    if not os.path.isfile(listing):
        return
    root = os.path.join(os.path.realpath(out_dir), "")
    with open(listing, encoding="utf-8") as fh:
        rels = list(records(fh.read(), "sha256  path", lambda e: FormatError(f"{listing}: {e}")))
    for n, (_, rel) in rels:
        path = os.path.realpath(os.path.join(root, rel))
        if os.path.isabs(rel) or not path.startswith(root) or os.path.isdir(path):
            raise FormatError(f"{listing}: line {n}: {rel!r} is not a file inside {out_dir}")
    for path in [*(os.path.join(root, rel) for _, (_, rel) in rels), listing]:
        with suppress(FileNotFoundError):
            os.remove(path)


def run_experiment(config: ExperimentConfig, out_dir: str, jobs: int = 1):
    """Execute a config and persist the report directory.

    Returns the outcome list (baseline first).
    """
    outcomes, _ = compute_outcomes(config, jobs=jobs)
    names = ["baseline"] + [f"strategy_{i:02d}" for i in range(len(outcomes) - 1)]
    files = chain(
        _report_files("report", outcomes, config, format_plot_svg(outcomes)),
        *(_strategy_files(name, outcome) for name, outcome in zip(names, outcomes)),
    )
    _remove_listed(out_dir)
    manifest = _write_files(out_dir, files)
    atomic_write_text(os.path.join(out_dir, "checksums.txt"), manifest)
    return outcomes


def _overweight_variant(raw: str, value: float) -> str:
    """Strategy string with every overweight factor replaced by value."""
    spec = parse_strategy(raw)
    weighted = [(kind, params) for kind, params in spec.parts if kind in WEIGHT_KEYS]
    for kind, params in weighted:
        params[WEIGHT_KEYS[kind]] = float(value)
    if not weighted:
        raise InvalidConfig(f"strategy {raw!r} has no overweight factor to sweep")
    return spec.render()


def _sweep_row(raw, value, runs):
    """raw's row at value: the mean over runs, its outcome per repeat, or its error cell."""
    failed = [(rep, o.error) for rep, o in enumerate(runs) if o.error is not None]
    if failed:
        rep, error = failed[-1]  # the cell counts the failed repeats and names the last
        cell = f"{len(failed)} of {len(runs)} repeats; rep {rep}: {error}"
        return StrategyOutcome(raw, error=cell, value=value)
    mean, stdev = summarize_cv([o.delta_per for o in runs])
    return StrategyOutcome(
        raw,
        drop_rate=float(np.mean([o.drop_rate for o in runs])),
        per=float(np.mean([o.per for o in runs])),
        delta_per=mean,
        mean=mean,
        stdev=stdev,
        value=value,
    )


def _value_rows(value, evaluated, points):
    """The rows of one swept value, from its points' outcomes as evaluated yields them.

    A strategy None at a repeat takes its outcome at repeat 0.
    """
    block = [
        [None if raw is None else next(evaluated) for raw in strategies]
        for strategies, _, _ in points
    ]
    # By position: a strategy listed twice is two rows with their own rng streams.
    return [
        _sweep_row(raw, value, [run[i] or block[0][i] for run in block])
        for i, raw in enumerate(points[0][0])
    ]


def sweep(
    config: ExperimentConfig,
    parameter: str,
    values,
    out_dir: str | None = None,
    repeats: int = 10,
    jobs: int = 1,
):
    """Sweep one knob over values, averaging each point over repeats.

    parameter "overweight" rewrites the factor of overweight/hybrid
    strategies; "drop_rate" renormalizes every strategy mask to
    the target rate via seeded adjustment. Rows hold repeat means; mean and
    stdev summarize the repeat spread. The corpus, its landmarks, the
    baseline decode and the worker pool are prepared once for every
    (value, repeat) point, and a strategy with no rng to draw from is
    decoded once per value of an overweight sweep, its outcome counted
    at every repeat. Sweep rows carry no significance tests and read no
    folds.
    Writes sweep.csv / sweep.svg when out_dir is given.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise InvalidConfig(f"parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}")
    values = [float(v) for v in values]
    if not values:
        raise InvalidConfig("sweep needs at least one value")
    if repeats < 1:
        raise InvalidConfig("repeats must be >= 1")
    if not config.strategies:
        raise InvalidConfig("sweep needs at least one strategy")
    if parameter == "drop_rate":
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"drop rate must lie in [0, 1], got {v}")
    else:
        for v in values:
            if not 0.0 <= v < np.inf:
                raise InvalidConfig(f"overweight factor must be finite and >= 0, got {v}")

    # Built before the corpus loads, so a strategy with nothing to sweep fails fast.
    points = []
    for value in values:
        if parameter == "overweight":
            strategies = [_overweight_variant(raw, value) for raw in config.strategies]
            adjust_rate = None
        else:
            strategies, adjust_rate = config.strategies, value
        # With no rng to draw from and no rate to adjust to, a strategy has
        # the same input at every repeat, so only repeat 0 decodes it.
        again = [
            raw if adjust_rate is not None or parse_strategy(raw).needs_rng() else None
            for raw in strategies
        ]
        points += [(again if rep else strategies, rep, adjust_rate) for rep in range(repeats)]

    rows = []
    # Sweep rows read only per-utterance counts: no reports, decodes or checksums.
    with _prepare(config, jobs, full=False) as prep:
        # One stream over every (value, repeat) point keeps the pool busy.
        evaluated = _evaluate(prep, config, points)
        for v, value in enumerate(values):
            rows += _value_rows(value, evaluated, points[v * repeats:(v + 1) * repeats])

    all_rows = [prep.baseline] + rows
    if out_dir is not None:
        svg = format_sweep_svg(rows, parameter)
        _write_files(out_dir, _report_files("sweep", all_rows, config, svg))
    return all_rows
