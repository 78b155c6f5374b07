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
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import chain, islice

import numpy as np

from .corpus_io import (
    Corpus,
    Utterance,
    atomic_write_text,
    format_csv,
    parse_alignment,
    read_manner_table,
    read_score_matrix,
    write_mask,
    write_score_matrix,
)
from .decoder import read_transition_model, viterbi
from .errors import FormatError, InvalidConfig, LandmarkFramesError, ShapeError
from .landmarks import AnnotationConfig, annotate, landmark_frames
from .scoring import align_edit, merge_reports, per_increment, write_confusion_csv, write_report_csv
from .stats import cv_folds, summarize_cv, welch_t, wilcoxon_signed_rank, write_stats_csv
from .strategy import (
    WEIGHT_KEYS,
    adjust_mask_to_rate,
    apply_replacement,
    apply_weights,
    parse_strategy,
    reads_landmarks,
    realize_strategy,
)
from .synth import SynthConfig, gen_corpus

REPORT_COLUMNS = ("strategy", "drop_rate", "per", "delta_per", "mean", "stdev", "p_wilcoxon", "p_t")

BASELINE = "identity"

SWEEP_PARAMETERS = ("overweight", "drop_rate")

REPORT_FORMATS = ("csv", "svg")

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
    strategies: list = field(default_factory=list)
    comparison: str | None = None
    folds: int = 10
    cv_seed: int | None = None
    beam: float | None = None
    annotation: str = "boundary"
    widen_radius: int = 0
    merge_mc: bool = True
    formats: list = field(default_factory=lambda: list(REPORT_FORMATS))
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
        # Reuses the annotation validation for mode and radius.
        AnnotationConfig(self.annotation, self.widen_radius, self.merge_mc)
        if not self.formats:
            raise InvalidConfig("formats must not be empty")
        for fmt in self.formats:
            if fmt not in REPORT_FORMATS:
                raise InvalidConfig(f"unknown report format {fmt!r}")
        # Validate strategy strings eagerly so config errors fail fast.
        for s in self.strategies:
            parse_strategy(s)
        if self.comparison is not None and self.comparison != BASELINE:
            if self.comparison not in self.strategies:
                raise InvalidConfig(f"comparison {self.comparison!r} is not a configured strategy")


def load_experiment_config(text: str) -> ExperimentConfig:
    """Parse the JSON experiment description."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidConfig(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise InvalidConfig("config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: v for k, v in raw.items() if k != "synth"}
    if "synth" in raw:
        if not isinstance(raw["synth"], dict):
            raise InvalidConfig("synth must be a JSON object")
        # Both would be ignored: the corpus comes from data_dir, or from gen_corpus on seed.
        if raw.get("data_dir") is not None:
            raise InvalidConfig("synth is ignored when data_dir is set")
        if "seed" in raw["synth"]:
            raise InvalidConfig("synth.seed is ignored: the top-level seed seeds the corpus")
        try:
            kwargs["synth"] = SynthConfig(**raw["synth"])
        except TypeError as e:
            raise InvalidConfig(f"bad synth options: {e}") from None
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as e:
        raise InvalidConfig(f"bad config: {e}") from None


def load_corpus_dir(path: str) -> Corpus:
    """Load a decoding corpus from a directory.

    Expects model.tm, manners.txt, and per-utterance <stem>.align plus
    <stem>.llm pairs; speakers.tsv ("stem speaker gender") is optional
    and defaults every utterance to its own F speaker. A malformed
    speakers.tsv line, an .align without its .llm, or a matrix whose
    frame or senone count disagrees with its alignment or the model
    fails here, naming the file and the utterance.
    """
    def read(name, parse, *args, utterance=None):
        """parse(contents of name, *args); its errors name the file and utterance."""
        mode, encoding = ("rb", None) if name.endswith(".llm") else ("r", "utf-8")
        try:
            with open(os.path.join(path, name), mode, encoding=encoding) as fh:
                return parse(fh.read(), *args)
        except LandmarkFramesError as e:
            where = name if utterance is None else f"{name}: utterance {utterance!r}"
            raise type(e)(f"{where}: {e}") from None

    model = read("model.tm", read_transition_model)
    manner_table = read("manners.txt", read_manner_table)
    speakers = {}
    if os.path.exists(os.path.join(path, "speakers.tsv")):
        for lineno, line in enumerate(read("speakers.tsv", str).splitlines(), start=1):
            cells = line.split()
            if not cells:
                continue
            if len(cells) != 3:
                raise FormatError(
                    f"speakers.tsv line {lineno}: expected 'stem speaker gender', got {line!r}"
                )
            speakers[cells[0]] = (cells[1], cells[2])
    stems = sorted(
        os.path.splitext(name)[0]
        for name in os.listdir(path)
        if name.endswith(".align")
    )
    if not stems:
        raise InvalidConfig(f"no .align files in {path}")
    utterances = []
    for stem in stems:
        speaker, gender = speakers.get(stem, (stem, "F"))
        alignment = read(
            f"{stem}.align", parse_alignment, "frames", stem, speaker, gender, utterance=stem
        )
        try:
            matrix = read(f"{stem}.llm", read_score_matrix, stem, utterance=stem)
        except FileNotFoundError:
            raise FormatError(f"{stem}.align has no {stem}.llm for utterance {stem!r}") from None
        if matrix.T != alignment.num_frames:
            raise ShapeError(
                f"{stem}.llm: utterance {stem!r} has {matrix.T} frames, "
                f"its alignment {alignment.num_frames}"
            )
        if matrix.S != model.S:
            raise ShapeError(
                f"{stem}.llm: utterance {stem!r} has {matrix.S} senones, model.tm {model.S}"
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
    reports: list | None = None
    decodes: list | None = None  # (utterance_id, phones)
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
    """Pool task: _score_one on the worker's corpus."""
    return _score_one(_worker_corpus, task)


def _score_one(corpus, task):
    """Replace, weight, decode, and score one utterance.

    task is (utterance index, mask, weights, method, beam, checksum), so
    a pool task ships no matrix or model. Returns (report, hypothesis,
    digest): digest is the sha256 of the modified matrix when checksum is
    true, None otherwise.
    """
    ui, mask, weights, method, beam, checksum = task
    utt = corpus.utterances[ui]
    silence = _silence_phones(corpus.manner_table)
    modified = apply_replacement(utt.matrix, mask, method)
    modified = apply_weights(modified, weights)
    digest = None
    if checksum:
        digest = hashlib.sha256(write_score_matrix(modified)).hexdigest()
    result = viterbi(modified, corpus.model, beam=beam)
    hyp = [p for p in result.phones if p not in silence]
    ref = [p for p in utt.alignment.phones() if p not in silence]
    report = align_edit(ref, hyp, utt.alignment.utterance_id)
    return report, hyp, digest


def _silence_phones(manner_table: dict) -> frozenset:
    return frozenset(p for p, m in manner_table.items() if m == "silence")


def _protection_frames(spec, landmarks, num_frames, default_radius):
    """Landmark frames a rate adjustment must not start dropping."""
    # A random part reads landmarks only to count its drops, so it protects
    # none: a matched control gives back landmark and other drops alike.
    radii = [
        params.get("r", default_radius)
        for kind, params in spec.parts
        if kind != "random" and reads_landmarks(kind, params)
    ]
    if not radii or landmarks is None:
        return ()
    return landmark_frames(landmarks, num_frames, max(radii))


@dataclass
class _Prepared:
    """What every point of one command shares.

    live_folds holds (utterance ids, baseline PER) for the folds whose
    baseline slice has errors. checksums says whether outcomes carry the
    sha256 of every modified matrix; only `run` writes them.
    """

    corpus: Corpus
    landmark_sets: list
    executor: ProcessPoolExecutor | None
    checksums: bool
    baseline: StrategyOutcome | None = None
    live_folds: list = field(default_factory=list)


def _submit_strategy(raw, prep, config, stream_index, rep=0, adjust_rate=None):
    """Realize raw's masks in this process and queue its decodes.

    Returns (masks, results). With a pool, results is the
    executor's map over the utterance tasks, every chunk queued at once;
    without one, the decoded list. Realize and adjust errors raise here,
    prefixed with the utterance and the stage; pool decode errors raise
    when _collect_strategy reads results.
    """
    spec = parse_strategy(raw)
    tasks = []
    masks = []
    for ui, utt in enumerate(prep.corpus.utterances):
        uid = utt.alignment.utterance_id
        landmarks = prep.landmark_sets[ui]
        rng = None
        if spec.needs_rng():
            rng = np.random.default_rng((config.seed, _STREAM_STRATEGY, rep, stream_index, ui))
        stage = "realize"
        try:
            mask, weights = realize_strategy(
                spec, utt.matrix.T, landmarks=landmarks, rng=rng,
                default_radius=config.widen_radius,
            )
            if adjust_rate is not None:
                stage = "adjust"
                target_n = int(np.floor(adjust_rate * mask.T + 0.5))
                protected = _protection_frames(spec, landmarks, mask.T, config.widen_radius)
                mask = adjust_mask_to_rate(
                    mask, target_n, protected,
                    seed=_derive_seed(config.seed, _STREAM_ADJUST, rep, stream_index, ui),
                )
        except LandmarkFramesError as e:
            raise type(e)(f"{uid}: {stage}: {e}") from None
        masks.append((uid, mask))
        tasks.append((ui, mask, weights, spec.method, config.beam, prep.checksums))
    if prep.executor is None:
        results = [_score_one(prep.corpus, t) for t in tasks]
    else:
        results = prep.executor.map(_pipeline_one, tasks, chunksize=8)
    return masks, results


def _collect_strategy(raw, masks, results, prep):
    """The outcome of a submitted strategy, once every decode is back."""
    results = list(results)
    reports = [r for r, _, _ in results]
    decodes = [(uid, phones) for (uid, _), (_, phones, _) in zip(masks, results)]
    checksums = None
    if prep.checksums:
        checksums = [(uid, digest) for (uid, _), (_, _, digest) in zip(masks, results)]
    drop_rate = float(np.mean([m.drop_rate for _, m in masks]))
    return StrategyOutcome(
        raw, drop_rate=drop_rate, reports=reports, decodes=decodes, masks=masks,
        checksums=checksums,
    )


def _utterance_folds(corpus, config):
    """Speaker-disjoint utterance groups from a gender-stratified split."""
    speakers = []
    gender = {}
    for utt in corpus.utterances:
        sid, g = utt.alignment.speaker_id, utt.alignment.gender
        if sid in gender:
            if gender[sid] != g:
                raise InvalidConfig(f"speaker {sid!r} has inconsistent gender labels")
        else:
            gender[sid] = g
            speakers.append((sid, g))
    seed = config.cv_seed if config.cv_seed is not None else _derive_seed(config.seed, _STREAM_FOLDS)
    spec = cv_folds(speakers, k=config.folds, seed=seed)
    folds = []
    for fold in spec.folds:
        members = set(fold)
        folds.append([
            utt.alignment.utterance_id
            for utt in corpus.utterances
            if utt.alignment.speaker_id in members
        ])
    return [f for f in folds if f]


def _fold_increments(live_folds, reports):
    """Relative PER increments per (fold, baseline fold PER) pair."""
    by_id = {r.utterance_id: r for r in reports}
    increments = []
    for fold, base_per in live_folds:
        mod = merge_reports([by_id[u] for u in fold], "fold")
        if mod.per == base_per:
            increments.append(0.0)
        else:
            increments.append(per_increment(base_per, mod.per))
    return increments


@contextmanager
def _prepare(config: ExperimentConfig, jobs: int, adjusts_rate: bool, checksums: bool):
    """Build what one command's points share, with its worker pool.

    Loads or synthesizes the corpus, annotates landmarks when a strategy
    or a rate adjustment reads them, starts one pool of jobs workers
    (none for jobs 1), and decodes and scores the baseline once. The
    pool shuts down when the block exits. A failing baseline is fatal.
    checksums says whether outcomes carry matrix checksums.
    """
    if config.data_dir is not None:
        corpus = load_corpus_dir(config.data_dir)
    else:
        corpus = gen_corpus(config.synth, config.seed)

    need_landmarks = adjusts_rate or any(
        parse_strategy(s).needs_landmarks() for s in config.strategies
    )
    landmark_sets = [None] * len(corpus.utterances)
    if need_landmarks:
        ann = AnnotationConfig(config.annotation, config.widen_radius, config.merge_mc)
        landmark_sets = [
            annotate(utt.alignment, corpus.manner_table, ann) for utt in corpus.utterances
        ]

    executor = None
    if jobs > 1:
        executor = ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(corpus,)
        )
    try:
        prep = _Prepared(corpus, landmark_sets, executor, checksums)
        # The baseline has no drops and no rng, so one decode serves every point.
        baseline = _collect_strategy(BASELINE, *_submit_strategy(BASELINE, prep, config, 0), prep)
        baseline.delta_per = 0.0
        baseline.mean = 0.0
        baseline.stdev = 0.0
        baseline.per = merge_reports(baseline.reports, "baseline").per

        # Folds whose baseline slice has no errors are skipped: the
        # relative increment is undefined there. The skip depends only on
        # the baseline, so every strategy is summarized over the same folds.
        base_by_id = {r.utterance_id: r for r in baseline.reports}
        for fold in _utterance_folds(corpus, config):
            base_per = merge_reports([base_by_id[u] for u in fold], "fold").per
            if base_per > 0.0:
                prep.live_folds.append((fold, base_per))
        baseline.fold_increments = [0.0] * len(prep.live_folds)
        prep.baseline = baseline
        yield prep
    finally:
        if executor is not None:
            executor.shutdown()


def _evaluate(prep: _Prepared, config: ExperimentConfig, points):
    """Yield each point's outcomes: the shared baseline, then one per strategy.

    points is a list of (strategies, rep, adjust_rate); adjust_rate, if
    given, renormalizes every strategy mask to that drop rate. A failing
    strategy yields a row with its error message. The shared baseline
    outcome is never modified.

    The strategies of all points form one stream, and strategy k+1 is
    submitted before strategy k is collected: with a pool, the parent
    realizes masks while the workers decode, and the pool does not drain
    between strategies or points. One strategy is queued ahead, no more.
    """
    def submit(si, raw, rep, adjust_rate):
        try:
            return raw, _submit_strategy(raw, prep, config, si, rep=rep, adjust_rate=adjust_rate)
        except LandmarkFramesError as e:
            return raw, e

    def collect(raw, submitted):
        if isinstance(submitted, LandmarkFramesError):
            return StrategyOutcome(raw, error=str(submitted))
        try:
            outcome = _collect_strategy(raw, *submitted, prep)
            merged = merge_reports(outcome.reports, "strategy")
            outcome.per = merged.per
            if merged.per == prep.baseline.per:
                outcome.delta_per = 0.0
            else:
                outcome.delta_per = per_increment(prep.baseline.per, merged.per)
            outcome.fold_increments = _fold_increments(prep.live_folds, outcome.reports)
            if outcome.fold_increments:
                outcome.mean, outcome.stdev = summarize_cv(outcome.fold_increments)
        except LandmarkFramesError as e:
            outcome = StrategyOutcome(raw, error=str(e))
        return outcome

    def stream():
        pending = None
        for strategies, rep, adjust_rate in points:
            for si, raw in enumerate(strategies, start=1):
                submitted = submit(si, raw, rep, adjust_rate)
                if pending is not None:
                    yield collect(*pending)
                pending = submitted
        if pending is not None:
            yield collect(*pending)

    outcomes = stream()
    for strategies, _, _ in points:
        yield [prep.baseline, *islice(outcomes, len(strategies))]


def _attach_stats(outcomes, comparison):
    """Pair every strategy row against the comparison row (outcomes[0] is the baseline)."""
    comparison = comparison if comparison is not None else BASELINE
    comp = next(o for o in outcomes if o.strategy == comparison)
    for outcome in outcomes[1:]:
        if outcome.error is not None or outcome is comp or comp.error is not None:
            continue
        # Reports of every outcome follow the corpus utterance order.
        pairs = [(s.errors, c.errors) for s, c in zip(outcome.reports, comp.reports)]
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


def compute_outcomes(
    config: ExperimentConfig,
    jobs: int = 1,
    rep: int = 0,
    adjust_rate: float | None = None,
):
    """Run the baseline and every strategy, attaching comparison stats.

    Returns (outcomes, corpus); outcomes[0] is the untouched baseline.
    A failing strategy yields a row with its error message instead of
    aborting the run; a failing baseline is fatal. adjust_rate, if
    given, renormalizes every strategy mask to that drop rate.
    """
    with _prepare(config, jobs, adjusts_rate=adjust_rate is not None, checksums=True) as prep:
        [outcomes] = _evaluate(prep, config, [(config.strategies, rep, adjust_rate)])
    _attach_stats(outcomes, config.comparison)
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


def format_plot_svg(outcomes) -> str:
    """Minimal deterministic bar chart of delta PER per strategy."""
    rows = [(o.strategy, o.delta_per, o.stdev or 0.0) for o in outcomes if o.delta_per is not None]
    body = []
    if rows:
        peak = max(max(abs(v) + s for _, v, s in rows), 1e-9)
        scale = 120.0 / peak
        zero_y = (_BOTTOM + _TOP) / 2
        slot = (_RIGHT - _LEFT - 20) / len(rows)
        body.append(
            f'<line x1="{_LEFT}" y1="{zero_y:.1f}" x2="{_RIGHT}" y2="{zero_y:.1f}" '
            f'stroke="gray" stroke-dasharray="4"/>'
        )
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

        zero_y = sy(0.0)
        body.append(
            f'<line x1="{_LEFT}" y1="{zero_y:.1f}" x2="{_RIGHT}" y2="{zero_y:.1f}" '
            f'stroke="gray" stroke-dasharray="4"/>'
        )
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
    for rel, text in files:
        path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_text(path, text)
        entries.append((rel, hashlib.sha256(text.encode("utf-8")).hexdigest()))
    return "".join(f"{digest}  {rel}\n" for rel, digest in sorted(entries))


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
    folds, the baseline decode and the worker pool are prepared once for
    every (value, repeat) point. Sweep rows carry no significance tests.
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
        # Fail fast if any strategy has nothing to sweep.
        for raw in config.strategies:
            _overweight_variant(raw, values[0])

    rows = []
    # Sweep rows carry no matrix checksums, so none are computed.
    with _prepare(config, jobs, adjusts_rate=parameter == "drop_rate", checksums=False) as prep:
        points = []
        for value in values:
            if parameter == "overweight":
                strategies = [_overweight_variant(raw, value) for raw in config.strategies]
                adjust_rate = None
            else:
                strategies, adjust_rate = config.strategies, value
            points += [(strategies, rep, adjust_rate) for rep in range(repeats)]
        # One stream over every (value, repeat) point keeps the pool busy.
        evaluated = _evaluate(prep, config, points)
        for value, (strategies, _, _) in zip(values, points[::repeats]):
            collected = {raw: [] for raw in strategies}
            errors = {raw: None for raw in strategies}
            for rep in range(repeats):
                outcomes = next(evaluated)
                for outcome in outcomes[1:]:
                    if outcome.error is not None:
                        errors[outcome.strategy] = f"rep {rep}: {outcome.error}"
                    else:
                        collected[outcome.strategy].append(outcome)
            for raw in strategies:
                if errors[raw] is not None:
                    rows.append(StrategyOutcome(raw, error=errors[raw], value=value))
                    continue
                runs = collected[raw]
                deltas = [o.delta_per for o in runs]
                mean, stdev = summarize_cv(deltas)
                rows.append(StrategyOutcome(
                    raw,
                    drop_rate=float(np.mean([o.drop_rate for o in runs])),
                    per=float(np.mean([o.per for o in runs])),
                    delta_per=mean,
                    mean=mean,
                    stdev=stdev,
                    value=value,
                ))

    all_rows = [prep.baseline] + rows
    if out_dir is not None:
        svg = format_sweep_svg(rows, parameter)
        _write_files(out_dir, _report_files("sweep", all_rows, config, svg))
    return all_rows
