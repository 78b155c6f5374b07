import csv
import hashlib
import itertools
import json
import os
import re
import tracemalloc
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landmark_frames import (
    BASELINE,
    NEG_INF,
    ExperimentConfig,
    FormatError,
    FrameMask,
    InvalidConfig,
    InvalidPattern,
    LandmarkFramesError,
    ParseError,
    PERReport,
    ScoreMatrix,
    ShapeError,
    SynthConfig,
    TransitionModel,
    annotate,
    compute_outcomes,
    format_alignment,
    format_plot_svg,
    format_report_csv,
    format_sweep_svg,
    landmark_map,
    load_experiment_config,
    parse_strategy,
    per_increment,
    realize_strategy,
    run_experiment,
    summarize_cv,
    sweep,
    write_manner_table,
    write_mask,
    write_score_matrix,
    write_transition_model,
)
import landmark_frames.experiment as experiment
from landmark_frames.cli import main
from landmark_frames.decoder import index_type
from landmark_frames.experiment import load_corpus_dir
from landmark_frames.scoring import pooled_per
from oracles import reference_outcomes

FAST_SYNTH = dict(n_utterances=10, n_speakers=5, utterance_length=6)


def fast_config(strategies, folds=5, seed=0, comparison=BASELINE, **synth_overrides):
    return ExperimentConfig(
        seed=seed,
        strategies=list(strategies),
        comparison=comparison,
        folds=folds,
        synth=SynthConfig(**{**FAST_SYNTH, **synth_overrides}),
    )


def point_outcomes(config, rep=0, adjust_rate=None, jobs=1):
    """compute_outcomes at one sweep point: repeat rep, masks renormalized to adjust_rate."""
    with experiment._prepare(config, jobs, full=True) as prep:
        point = [(config.strategies, rep, adjust_rate)]
        outcomes = [prep.baseline, *experiment._evaluate(prep, config, point)]
    experiment._attach_stats(outcomes, prep.folds, config.comparison)
    return outcomes


class TestComputeOutcomes:
    def test_baseline_row_is_exactly_zero(self):
        config = fast_config(["regular:P=2,D=1"])
        outcomes, corpus = compute_outcomes(config)
        by_name = {o.strategy: o for o in outcomes}
        assert BASELINE in by_name
        base = by_name[BASELINE]
        assert base.delta_per == 0.0
        assert base.drop_rate == 0.0
        assert base.per > 0.0
        assert len(corpus.utterances) == 10

    def test_period_past_a_c_long_runs_like_one_past_the_frames(self):
        # P = 10**20 does not fit numpy's int64; every period past the longest
        # utterance drops the same frames, so the rows equal P = 10**5's.
        huge, long = (
            [f"regular:P={p},D=1", f"hybrid:P={p},D=2,overweight=1.5"] for p in (10**20, 10**5)
        )
        config = load_experiment_config(json.dumps({
            "strategies": huge, "folds": 5, "synth": FAST_SYNTH,
        }))
        outcomes, corpus = compute_outcomes(config)
        assert max(utt.matrix.T for utt in corpus.utterances) < 10**5
        expected, _ = compute_outcomes(fast_config(long))
        assert [o.error for o in outcomes] == [None] * 3
        for got, want in zip(outcomes, expected):
            assert baseline_fields(got)[1:] == baseline_fields(want)[1:]

    def test_strategies_in_config_order_after_baseline(self):
        config = fast_config(["random:rate=0.3,seed=1", "regular:P=2,D=1"])
        outcomes, _ = compute_outcomes(config)
        assert [o.strategy for o in outcomes] == [
            BASELINE,
            "random:rate=0.3,seed=1",
            "regular:P=2,D=1",
        ]

    def test_dropping_frames_hurts(self):
        config = fast_config(["regular:P=2,D=1"])
        outcomes, _ = compute_outcomes(config)
        by_name = {o.strategy: o for o in outcomes}
        assert by_name["regular:P=2,D=1"].per >= by_name[BASELINE].per
        assert by_name["regular:P=2,D=1"].drop_rate == pytest.approx(0.5, abs=0.02)

    def test_matched_random_copies_landmark_drop_count(self):
        config = fast_config(["landmark:drop", "random:match=drop,seed=9"])
        outcomes, _ = compute_outcomes(config)
        by_name = {o.strategy: o for o in outcomes}
        lm_masks = dict(by_name["landmark:drop"].masks)
        rnd_masks = dict(by_name["random:match=drop,seed=9"].masks)
        assert lm_masks
        for uid, mask in lm_masks.items():
            assert rnd_masks[uid].n_dropped == mask.n_dropped

    def test_bad_strategy_string_fails_at_config(self):
        with pytest.raises(InvalidPattern):
            fast_config(["regular:P=1,D=0"])

    def test_runtime_failure_recorded_not_raised(self):
        config = fast_config(["regular:P=2,D=1", "random:n=100000,seed=0"])
        outcomes, _ = compute_outcomes(config)
        by_name = {o.strategy: o for o in outcomes}
        failed = by_name["random:n=100000,seed=0"]
        assert failed.error
        assert failed.per is None
        assert by_name["regular:P=2,D=1"].per is not None

    def test_zero_baseline_folds_skipped_consistently(self):
        # A trivially easy corpus decodes with zero errors in some
        # folds; increments must come from the same surviving folds for
        # every strategy.
        config = fast_config(
            ["overweight:factor=1.0"],
            folds=3,
            noise_sigma=0.4,
            mean_separation=6.0,
        )
        outcomes, _ = compute_outcomes(config)
        by_name = {o.strategy: o for o in outcomes}
        ow = by_name["overweight:factor=1.0"]
        assert ow.delta_per == 0.0
        if ow.mean is not None:
            assert ow.mean == 0.0
            assert ow.stdev == 0.0

    def test_rep_varies_unseeded_masks(self):
        config = fast_config(["random:rate=0.4"])
        first = point_outcomes(config, rep=0)
        second = point_outcomes(config, rep=1)
        a = dict(first[1].masks)
        b = dict(second[1].masks)
        assert any((a[uid].dropped != b[uid].dropped).any() for uid in a)


class TestReportFormats:
    def test_csv_header_and_seed_line(self):
        outcomes, _ = compute_outcomes(fast_config(["regular:P=2,D=1"]))
        text = format_report_csv(outcomes, seed=7)
        lines = text.splitlines()
        assert lines[0] == "# seed=7"
        assert lines[1] == "strategy,drop_rate,per,delta_per,mean,stdev,p_wilcoxon,p_t"

    def test_error_column_appears_only_on_failure(self):
        clean, _ = compute_outcomes(fast_config(["regular:P=2,D=1"]))
        assert "errors" not in format_report_csv(clean, seed=0).splitlines()[1]
        broken, _ = compute_outcomes(fast_config(["random:n=100000,seed=0"]))
        lines = format_report_csv(broken, seed=0).splitlines()
        assert lines[1].endswith(",errors")
        assert "cannot drop" in lines[-1]

    def test_tag_line(self):
        outcomes, _ = compute_outcomes(fast_config([]))
        text = format_report_csv(outcomes, seed=0, tag="trial")
        assert text.splitlines()[1] == "# tag=trial"

    def test_plot_svg_well_formed(self):
        outcomes, _ = compute_outcomes(fast_config(["regular:P=2,D=1"]))
        svg = format_plot_svg(outcomes)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "regular:P=2,D=1" in svg

    def test_only_requested_formats_are_written(self, tmp_path):
        config = replace(fast_config(["overweight:factor=2.0"]), formats=["csv"])
        run_experiment(config, str(tmp_path / "run"))
        sweep(config, "overweight", [1.0], str(tmp_path / "sweep"), repeats=1)
        assert (tmp_path / "run" / "report.csv").exists()
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        assert not list(tmp_path.rglob("*.svg"))
        assert ".svg" not in (tmp_path / "run" / "checksums.txt").read_text()

    @pytest.mark.parametrize(
        "formats", [["pdf"], ["csv", "pdf"], []], ids=["pdf", "csv-and-pdf", "none"]
    )
    def test_config_rejects_unknown_or_no_format(self, formats):
        with pytest.raises(InvalidConfig):
            replace(fast_config([]), formats=formats)


class TestRunExperiment:
    STRATEGIES = ["regular:P=2,D=1", "landmark:keep,r=1"]

    def run(self, tmp_path, name="out", **kwargs):
        out = tmp_path / name
        config = fast_config(self.STRATEGIES)
        run_experiment(config, str(out), **kwargs)
        return out

    def test_artifact_tree(self, tmp_path):
        out = self.run(tmp_path)
        assert (out / "report.csv").exists()
        assert (out / "report.svg").exists()
        assert (out / "checksums.txt").exists()
        for strategy_dir in ("baseline", "strategy_00", "strategy_01"):
            sub = out / strategy_dir
            assert (sub / "strategy.txt").exists()
            assert (sub / "per_utterance.csv").exists()
            assert (sub / "confusion.csv").exists()
            assert (sub / "decode.txt").exists()
            assert (sub / "matrix_checksums.txt").exists()
            assert (sub / "masks").is_dir()
        for strategy_dir in ("strategy_00", "strategy_01"):
            assert (out / strategy_dir / "stats.csv").exists()

    def test_strategy_txt_contents(self, tmp_path):
        out = self.run(tmp_path)
        assert (out / "baseline" / "strategy.txt").read_text().strip() == BASELINE
        text = (out / "strategy_00" / "strategy.txt").read_text()
        assert text.strip() == "regular:P=2,D=1"

    def test_mask_files_reflect_drop_rate(self, tmp_path):
        out = tmp_path / "out"
        outcomes = run_experiment(fast_config(self.STRATEGIES), str(out))
        masks_dir = out / "strategy_00" / "masks"
        masks = outcomes[1].masks
        assert sorted(os.listdir(masks_dir)) == sorted(f"{uid}.mask" for uid, _ in masks)
        for uid, mask in masks:
            assert (masks_dir / f"{uid}.mask").read_text() == write_mask(mask) + "\n"
        rates = [mask.n_dropped / mask.T for _, mask in masks]
        assert len(rates) == 10
        assert np.mean(rates) == pytest.approx(0.5, abs=0.02)

    def test_checksums_cover_written_files(self, tmp_path):
        out = self.run(tmp_path)
        listed = []
        for line in (out / "checksums.txt").read_text().splitlines():
            digest, rel = line.split("  ", 1)
            assert digest == hashlib.sha256((out / rel).read_bytes()).hexdigest(), rel
            listed.append(rel)
        on_disk = [
            os.path.relpath(os.path.join(root, name), out)
            for root, _, names in os.walk(out)
            for name in names
        ]
        assert sorted(listed) == listed
        assert Counter(listed) == Counter(on_disk) - Counter(["checksums.txt"])
        assert "report.csv" in listed
        assert "baseline/decode.txt" in listed

    def test_writes_go_through_names_the_benchmark_traces(self, tmp_path, monkeypatch):
        # perfbench/spans.py patches names inside landmark_frames.experiment;
        # a write that bypasses them would vanish from the benchmark's counts.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import spans

        tracer = spans.Tracer(pid=os.getpid())
        tracer.install()
        try:
            self.run(tmp_path, jobs=1)
        finally:
            tracer.uninstall()
        data = tracer.rec.export()
        listed = (tmp_path / "out" / "checksums.txt").read_text().splitlines()
        assert data["counts"]["corpus_io.files_written"] == len(listed) + 1
        assert data["spans"]["corpus_io.serialize"]["calls"] > 0

    def test_error_dir_replaces_details(self, tmp_path):
        out = tmp_path / "err"
        config = fast_config(["random:n=100000,seed=0"])
        run_experiment(config, str(out))
        sub = out / "strategy_00"
        assert (sub / "error.txt").exists()
        assert not (sub / "per_utterance.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        first = self.run(tmp_path, "a")
        second = self.run(tmp_path, "b")
        for root, _, files in os.walk(first):
            for name in files:
                rel = os.path.relpath(os.path.join(root, name), first)
                a = open(os.path.join(first, rel), "rb").read()
                b = open(os.path.join(second, rel), "rb").read()
                assert a == b, rel

    def test_detail_csvs_parse_at_header_width(self, tmp_path):
        out = self.run(tmp_path)
        for strategy_dir in ("baseline", "strategy_00", "strategy_01"):
            for name in ("per_utterance.csv", "confusion.csv", "stats.csv"):
                path = out / strategy_dir / name
                if not path.exists():
                    continue
                header, *rows = csv.reader(path.read_text().splitlines())
                assert rows, path
                assert all(len(row) == len(header) for row in rows), path

    @staticmethod
    def files_under(out):
        return sorted(
            os.path.relpath(os.path.join(root, name), out)
            for root, _, names in os.walk(out)
            for name in names
        )

    def test_rerun_with_fewer_strategies_leaves_only_its_files(self, tmp_path):
        out = self.run(tmp_path)
        assert "strategy_01/decode.txt" in self.files_under(out)
        run_experiment(fast_config(self.STRATEGIES[:1]), str(out))
        lines = (out / "checksums.txt").read_text().splitlines()
        listed = [line.split("  ", 1)[1] for line in lines]
        assert self.files_under(out) == sorted([*listed, "checksums.txt"])
        assert not any(rel.startswith("strategy_01") for rel in listed)

    def test_rerun_keeps_files_checksums_does_not_list(self, tmp_path):
        out = self.run(tmp_path)
        (out / "notes.txt").write_text("mine\n")
        (out / "strategy_00" / "notes.txt").write_text("mine too\n")
        before = self.files_under(out)
        self.run(tmp_path)
        assert self.files_under(out) == before
        assert (out / "strategy_00" / "notes.txt").read_text() == "mine too\n"

    @pytest.mark.parametrize("entry", [
        "../outside.txt", "strategy_00/../../outside.txt",
        "{tmp}/outside.txt", "{tmp}/out/report.csv",
    ])
    def test_rerun_refuses_an_entry_outside_out(self, tmp_path, entry):
        # An absolute entry is refused even when it names a file inside out.
        out = self.run(tmp_path)
        (tmp_path / "outside.txt").write_text("not ours\n")
        entry = entry.format(tmp=tmp_path)
        checksums = out / "checksums.txt"
        lines = checksums.read_text().splitlines()
        lines.insert(2, f"{'0' * 64}  {entry}")
        checksums.write_text("\n".join(lines) + "\n")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        message = f"checksums.txt: line 3: '{entry}' is not a file inside"
        with pytest.raises(FormatError, match=re.escape(message)):
            self.run(tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_jobs_do_not_change_output(self, tmp_path):
        serial = self.run(tmp_path, "serial", jobs=1)
        parallel = self.run(tmp_path, "parallel", jobs=2)
        assert (serial / "report.csv").read_bytes() == (parallel / "report.csv").read_bytes()
        assert (serial / "checksums.txt").read_bytes() == (parallel / "checksums.txt").read_bytes()


class TestComparison:
    def test_comparison_row_has_blank_pvalues(self):
        config = fast_config(
            ["regular:P=2,D=1", "regular:P=4,D=1"], comparison="regular:P=4,D=1"
        )
        outcomes, _ = compute_outcomes(config)
        by_name = {o.strategy: o for o in outcomes}
        comp = by_name["regular:P=4,D=1"]
        assert comp.p_wilcoxon is None
        assert comp.p_t is None
        other = by_name["regular:P=2,D=1"]
        assert other.p_wilcoxon is not None

    def test_default_comparison_is_baseline(self):
        assert ExperimentConfig().comparison == BASELINE
        outcomes, _ = compute_outcomes(fast_config(["regular:P=2,D=1"]))
        by_name = {o.strategy: o for o in outcomes}
        assert by_name[BASELINE].p_wilcoxon is None
        assert by_name["regular:P=2,D=1"].p_wilcoxon is not None

    def test_unknown_comparison_rejected(self):
        with pytest.raises(InvalidConfig):
            fast_config(["regular:P=2,D=1"], comparison="landmark:keep")

    def test_null_comparison_refused(self):
        # The baseline has one spelling, its name.
        with pytest.raises(InvalidConfig, match="key 'comparison' must be str, got None"):
            load_experiment_config(json.dumps({"comparison": None}))


class TestSweep:
    def test_unknown_parameter(self):
        with pytest.raises(InvalidConfig):
            sweep(fast_config(["overweight:factor=2.0"]), "beam", [1.0], repeats=1)

    def test_empty_values(self):
        with pytest.raises(InvalidConfig):
            sweep(fast_config(["overweight:factor=2.0"]), "overweight", [], repeats=1)
        with pytest.raises(InvalidConfig, match="^repeats must be >= 1$"):
            sweep(fast_config(["overweight:factor=2.0"]), "overweight", [1.0], repeats=0)

    def test_no_strategies(self):
        with pytest.raises(InvalidConfig):
            sweep(fast_config([]), "overweight", [1.0], repeats=1)

    def test_overweight_needs_sweepable_strategy(self, monkeypatch):
        # Refused before the corpus is built.
        def refuse(*args):
            raise AssertionError("the corpus was built")

        monkeypatch.setattr(experiment, "gen_corpus", refuse)
        config = fast_config(["overweight:factor=2.0", "regular:P=2,D=1"])
        with pytest.raises(InvalidConfig, match="'regular:P=2,D=1' has no overweight factor"):
            sweep(config, "overweight", [1.0], repeats=1)

    def test_drop_rate_bounds(self):
        with pytest.raises(InvalidConfig):
            sweep(fast_config(["regular:P=2,D=1"]), "drop_rate", [1.5], repeats=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_overweight_values_must_be_finite(self, value):
        with pytest.raises(InvalidConfig):
            sweep(fast_config(["overweight:factor=2.0"]), "overweight", [value], repeats=1)

    def test_overweight_unit_factor_is_null_effect(self):
        config = fast_config(["overweight:factor=2.0"])
        rows = sweep(config, "overweight", [1.0, 4.0], repeats=2)
        assert rows[0].strategy == BASELINE
        unit = [r for r in rows[1:] if r.value == 1.0]
        assert unit
        for row in unit:
            assert row.strategy == "overweight:factor=1.0"
            assert row.delta_per == 0.0
            assert row.stdev == 0.0

    def test_drop_rate_rows_monotone_in_rate(self):
        config = fast_config(["random:rate=0.2,seed=3"])
        rows = sweep(config, "drop_rate", [0.1, 0.8], repeats=2)
        by_value = {row.value: row for row in rows[1:]}
        assert by_value[0.8].delta_per > by_value[0.1].delta_per
        assert by_value[0.8].drop_rate == pytest.approx(0.8, abs=0.02)
        assert by_value[0.1].drop_rate == pytest.approx(0.1, abs=0.02)

    def test_overweight_sweep_with_comparison_completes(self):
        strategies = ["overweight:factor=2.0", "hybrid:P=2,D=1,overweight=1.5"]
        config = fast_config(strategies, comparison="overweight:factor=2.0")
        rows = sweep(config, "overweight", [1.0, 3.0], repeats=1)
        assert [(r.strategy, r.error) for r in rows[1:]] == [
            ("overweight:factor=1.0", None),
            ("hybrid:P=2,D=1,overweight=1.0", None),
            ("overweight:factor=3.0", None),
            ("hybrid:P=2,D=1,overweight=3.0", None),
        ]

    def test_matched_random_control_completes_at_low_drop_rate(self):
        # At rate 0.1 some utterance here has fewer non-landmark drops than the
        # control must give back, so protecting its landmark frames fails the row.
        config = fast_config(["landmark:keep", "random:match=keep"])
        rows = sweep(config, "drop_rate", [0.1], repeats=2)
        assert [(r.strategy, r.error) for r in rows[1:]] == [
            ("landmark:keep", None),
            ("random:match=keep", None),
        ]
        assert rows[2].drop_rate == pytest.approx(rows[1].drop_rate)

    def test_adjustment_never_gives_back_a_protected_drop(self):
        # The random part drops frames that the overweight part protects; a shrink to
        # rate 0 may give back only unprotected drops, so two of three repeats fail.
        config = fast_config(["random:rate=0.2+overweight:factor=0.5"],
                             n_utterances=4, n_speakers=2, utterance_length=2)
        rows = sweep(config, "drop_rate", [0.0], repeats=3)
        assert rows[1].error == (
            "2 of 3 repeats; rep 1: utt0000: adjust: "
            "need 6 fewer drops but only 5 unprotected drops"
        )

    def test_strategy_listed_twice_keeps_its_own_rows(self):
        # Each position draws from its own rng stream, as in run; the rows are not pooled.
        config = fast_config(["random:rate=0.3", "random:rate=0.3"])
        values, repeats = [0.3, 0.5], 2
        _, expected = per_point_rows(config, values, repeats)
        rows = sweep(config, "drop_rate", values, repeats=repeats)
        assert [row_tuple(r) for r in rows[1:]] == expected
        assert rows[1].per != rows[2].per
        # Two strategies that the overweight sweep rewrites to one variant.
        config = fast_config(["random:rate=0.3+overweight:factor=2.0",
                              "random:rate=0.3+overweight:factor=5.0"])
        values = [1.0, 3.0]
        variants = {v: [f"random:rate=0.3+overweight:factor={v!r}"] * 2 for v in values}
        _, expected = per_point_rows(config, values, repeats, variants)
        rows = sweep(config, "overweight", values, repeats=repeats)
        assert [row_tuple(r) for r in rows[1:]] == expected
        assert rows[1].strategy == rows[2].strategy and rows[1].per != rows[2].per

    def test_only_non_random_landmark_parts_are_protected(self, small_corpus):
        alignment = small_corpus.utterances[0].alignment
        landmarks = annotate(alignment, small_corpus.manner_table)
        T = alignment.num_frames

        def protected_frames(raw):
            spec = parse_strategy(raw)
            rng = np.random.default_rng(0)
            _, _, protected = realize_strategy(spec, T, landmarks=landmarks, rng=rng)
            return np.flatnonzero(protected)

        for raw in ("landmark:keep", "overweight:factor=2.0", "hybrid:P=2,D=1,overweight=1.5"):
            assert len(protected_frames(raw)) > 0
        for raw in ("random:match=keep", "random:match=drop,r=1"):
            assert len(protected_frames(raw)) == 0

    def test_sweep_builds_no_folds(self):
        # 4 speakers cannot make 10 folds; no sweep row reads a fold, while run still refuses.
        config = fast_config(["landmark:keep"], folds=10, n_utterances=8, n_speakers=4)
        rows = sweep(config, "drop_rate", [0.5], repeats=1)
        assert [r.error for r in rows] == [None, None]
        with pytest.raises(InvalidConfig, match="cannot split 4 speakers into 10 folds"):
            compute_outcomes(config)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_refuses_bad_folds_before_any_decode(self, jobs, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # No pool starts, so no worker decodes either.
        for name in ("viterbi", "annotate", "ProcessPoolExecutor"):
            monkeypatch.setattr(experiment, name, counted(name, getattr(experiment, name)))
        config = fast_config(["landmark:keep"], folds=10, n_utterances=40, n_speakers=4)
        with pytest.raises(InvalidConfig, match="cannot split 4 speakers into 10 folds"):
            compute_outcomes(config, jobs=jobs)
        assert calls == {}

    def test_sweep_writes_artifacts(self, tmp_path):
        config = fast_config(["overweight:factor=2.0"])
        sweep(config, "overweight", [1.0, 2.0], str(tmp_path), repeats=2)
        assert (tmp_path / "sweep.csv").exists()
        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_sweep_svg_formatter(self):
        config = fast_config(["overweight:factor=2.0"])
        rows = sweep(config, "overweight", [1.0, 2.0], repeats=1)
        svg = format_sweep_svg(rows[1:], "overweight")
        assert "overweight" in svg
        assert svg.count("circle") == 2


def per_point_rows(config, values, repeats, variants=None):
    """Sweep rows rebuilt from one point_outcomes call per (value, repeat).

    variants maps a swept overweight value to its strategy strings; without
    it, each value is a drop rate. Returns (baseline outcome, row tuples).
    """
    baseline, rows = None, []
    for value in values:
        if variants is None:
            point, rate = config, value
        else:
            renamed = dict(zip(config.strategies, variants[value]))
            comparison = renamed.get(config.comparison, config.comparison)
            point = replace(config, strategies=variants[value], comparison=comparison)
            rate = None
        runs = [point_outcomes(point, rep=r, adjust_rate=rate) for r in range(repeats)]
        baseline = baseline or runs[0][0]
        for i, raw in enumerate(point.strategies, start=1):
            outcomes = [run[i] for run in runs]
            failed = [f"rep {r}: {o.error}" for r, o in enumerate(outcomes) if o.error]
            if failed:
                cell = f"{len(failed)} of {repeats} repeats; {failed[-1]}"
                rows.append((raw, value, None, None, None, None, None, cell))
                continue
            mean, stdev = summarize_cv([o.delta_per for o in outcomes])
            per = float(np.mean([o.per for o in outcomes]))
            drop_rate = float(np.mean([o.drop_rate for o in outcomes]))
            rows.append((raw, value, per, mean, mean, stdev, drop_rate, None))
    return baseline, rows


def row_tuple(row):
    return (row.strategy, row.value, row.per, row.delta_per, row.mean, row.stdev,
            row.drop_rate, row.error)


def baseline_fields(outcome):
    masks = [(uid, mask.dropped.tolist()) for uid, mask in outcome.masks]
    return (outcome.strategy, outcome.drop_rate, outcome.per, outcome.delta_per, outcome.mean,
            outcome.stdev, outcome.p_wilcoxon, outcome.p_t, outcome.error, outcome.counts,
            outcome.reports, outcome.decodes, masks, outcome.checksums,
            outcome.fold_increments, outcome.stat_results)


def task_cells(config, items):
    """The lattice cells a sweep task's items count against TASK_CELLS."""
    corpus = experiment.gen_corpus(config.synth, config.seed)
    P = corpus.model.pred.size
    return sum(corpus.utterances[ui].matrix.T * corpus.model.S + 3 * P for ui, *_ in items)


def as_sweep_baseline(outcome):
    """A run's baseline as a sweep keeps it: per-utterance counts, no reports, decodes,
    checksums or fold increments."""
    assert outcome.counts == [(r.n_ref, r.errors) for r in outcome.reports]
    return replace(outcome, reports=None, decodes=None, checksums=None, fold_increments=None)


class TestSharedPreparation:
    """A sweep prepares once; its rows equal the per-point path."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_drop_rate_rows_match_per_point_path(self, jobs):
        # landmark:keep protects its landmark frames, so rate 1.0 fails on every repeat.
        config = fast_config(["landmark:keep", "random:match=keep", "random:rate=0.3"])
        values, repeats = [0.3, 1.0], 2
        baseline, expected = per_point_rows(config, values, repeats)
        rows = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        assert [row_tuple(r) for r in rows[1:]] == expected
        assert any(row[-1] for row in expected)
        # A sweep keeps counts only; every field it keeps is the same.
        assert baseline_fields(rows[0]) == baseline_fields(as_sweep_baseline(baseline))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overweight_rows_match_per_point_path(self, jobs):
        strategies = ["overweight:factor=2.0", "hybrid:P=2,D=1,overweight=1.5"]
        config = fast_config(strategies, comparison="overweight:factor=2.0")
        values, repeats = [1.0, 3.0], 2
        variants = {
            v: [f"overweight:factor={v!r}", f"hybrid:P=2,D=1,overweight={v!r}"] for v in values
        }
        baseline, expected = per_point_rows(config, values, repeats, variants)
        rows = sweep(config, "overweight", values, repeats=repeats, jobs=jobs)
        assert [row_tuple(r) for r in rows[1:]] == expected
        assert baseline_fields(rows[0]) == baseline_fields(as_sweep_baseline(baseline))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_hashes_no_matrix(self, jobs, monkeypatch):
        # Only run writes matrix_checksums.txt. The stand-in raises, so a
        # call inside a pool worker fails the sweep too.
        config = fast_config(["landmark:keep", "random:match=keep"])
        values, repeats = [0.3, 0.6], 2
        baseline, expected = per_point_rows(config, values, repeats)
        assert baseline.checksums
        calls = []

        def refuse(matrix):
            calls.append(matrix.utterance_id)
            raise AssertionError("sweep serialized a matrix for its checksum")

        monkeypatch.setattr(experiment, "write_score_matrix", refuse)
        rows = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        assert calls == []
        assert [row_tuple(r) for r in rows[1:]] == expected
        assert rows[0].checksums is None

    def test_sweep_builds_shared_work_once(self):
        config = fast_config(["landmark:keep", "random:match=keep"])
        calls = Counter()
        shipped = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        class Pool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                calls["ProcessPoolExecutor"] += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                shipped.extend(tasks)
                return super().map(fn, tasks, chunksize=chunksize)

        before = dict(vars(experiment))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiment, "gen_corpus", counted("gen_corpus", experiment.gen_corpus))
            patch.setattr(experiment, "annotate", counted("annotate", experiment.annotate))
            patch.setattr(experiment, "ProcessPoolExecutor", Pool)
            sweep(config, "drop_rate", [0.3, 0.6], repeats=2, jobs=2)
        assert dict(vars(experiment)) == before
        assert calls == {"gen_corpus": 1, "annotate": 10, "ProcessPoolExecutor": 1}
        # One baseline task, then the 2 values x 2 repeats x 2 strategies of
        # 10 utterances in one task: their lattice is far below TASK_CELLS.
        assert [[ui for ui, *_ in items] for items, *_ in shipped] == [
            list(range(10)), list(range(10)) * (2 * 2 * 2)
        ]
        assert sum(task_cells(config, items) for items, *_ in shipped) < experiment.TASK_CELLS
        heavy = (ScoreMatrix, TransitionModel)
        assert not any(
            isinstance(value, heavy)
            for items, *rest in shipped for value in (*rest, *(v for item in items for v in item))
        )

    def test_pool_has_at_most_one_worker_per_utterance(self, monkeypatch):
        # A thread pool stands in for the process pool, so no process starts; its
        # initializer sets _worker_corpus in this process, and monkeypatch restores it.
        config = fast_config(["landmark:keep", "random:match=keep"], folds=3,
                             n_utterances=3, n_speakers=3)
        serial, _ = compute_outcomes(config, jobs=1)
        workers = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(experiment, "_worker_corpus", None)
        capped, _ = compute_outcomes(config, jobs=64)
        assert workers == [3]
        assert [baseline_fields(o) for o in capped] == [baseline_fields(o) for o in serial]


# Every replacement method, seeded and unseeded random parts, landmark
# parts with radii, both weighted kinds, and a combination.
REFERENCE_STRATEGIES = [
    "regular:P=2,D=1",
    "regular:P=3,D=1,method=upsample",
    "regular:P=3,D=2,method=fill_0",
    "random:rate=0.3",
    "random:n=2,seed=5,method=fill_const",
    "random:match=keep,r=1",
    "landmark:keep,r=1,method=fill_const",
    "landmark:drop",
    "hybrid:P=2,D=1,overweight=1.5",
    "overweight:factor=2.5,r=1",
    "random:rate=0.2+overweight:factor=0.5",
]


@st.composite
def reference_configs(draw):
    synth = SynthConfig(
        n_utterances=draw(st.integers(2, 5)),
        n_speakers=2,
        utterance_length=draw(st.integers(2, 5)),
    )
    return ExperimentConfig(
        seed=draw(st.integers(0, 3)),
        strategies=draw(st.lists(st.sampled_from(REFERENCE_STRATEGIES), min_size=1, max_size=3)),
        folds=2,
        beam=draw(st.none() | st.sampled_from([3.0, 10.0, 40.0])),
        synth=synth,
    )


def mask_lists(masks):
    return [(uid, mask.dropped.tolist()) for uid, mask in masks]


class TestReferencePipeline:
    """Every row of one point equals the reference loops composed utterance by utterance."""

    @settings(max_examples=50, deadline=None)
    @given(
        config=reference_configs(),
        rep=st.integers(0, 3),
        adjust_rate=st.none() | st.sampled_from([0.0, 0.25, 0.5, 0.9]),
        jobs=st.just(1),
    )
    @example(
        config=fast_config(["random:rate=0.3", "hybrid:P=2,D=1,overweight=1.5",
                            "random:match=keep,r=1"]),
        rep=2, adjust_rate=0.5, jobs=2,
    )
    @example(
        config=replace(fast_config(["regular:P=3,D=1,method=upsample", "overweight:factor=2.5,r=1",
                                    "random:rate=0.2+overweight:factor=0.5"]), beam=10.0),
        rep=3, adjust_rate=None, jobs=2,
    )
    def test_point_matches_reference(self, config, rep, adjust_rate, jobs):
        expected = reference_outcomes(config, rep, adjust_rate)
        if "error" in expected[0]:
            # A failing baseline is fatal.
            with pytest.raises(type(expected[0]["error"])):
                point_outcomes(config, rep, adjust_rate, jobs)
            return
        outcomes = point_outcomes(config, rep, adjust_rate, jobs)
        assert [o.strategy for o in outcomes] == [BASELINE, *config.strategies]
        base_per = pooled_per(expected[0]["counts"])
        for outcome, want in zip(outcomes, expected):
            if "error" in want:
                assert outcome.error is not None
                assert outcome.error.endswith(str(want["error"]))
                continue
            per = pooled_per(want["counts"])
            if base_per == 0.0 and per != 0.0:
                assert outcome.error == "baseline PER is zero; relative increment undefined"
                continue
            assert outcome.error is None
            assert outcome.counts == want["counts"]
            assert outcome.decodes == want["decodes"]
            assert mask_lists(outcome.masks) == mask_lists(want["masks"])
            assert outcome.checksums == want["checksums"]
            assert outcome.per == per
            assert outcome.delta_per == per_increment(base_per, per)
            assert outcome.drop_rate == float(np.mean([m.drop_rate for _, m in want["masks"]]))


WEIGHTED_REFERENCE_STRATEGIES = [s for s in REFERENCE_STRATEGIES if "overweight" in s]


@st.composite
def reference_sweeps(draw):
    """(config, parameter, values, repeats) of a small sweep; an overweight sweep's
    strategies all carry a factor to rewrite."""
    config = draw(reference_configs())
    parameter = draw(st.sampled_from(sorted(experiment.SWEEP_PARAMETERS)))
    if parameter == "overweight":
        strategies = st.sampled_from(WEIGHTED_REFERENCE_STRATEGIES)
        config = replace(config, strategies=draw(st.lists(strategies, min_size=1, max_size=3)))
        values = st.sampled_from([0.0, 1.0, 2.5])
    else:
        values = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])
    values = draw(st.lists(values, min_size=1, max_size=2))
    return config, parameter, values, draw(st.integers(1, 3))


def reference_point_rows(config, rep, adjust_rate):
    """(error, per, delta_per, drop_rate) of every strategy row of one reference point.

    error is the text the package's message ends with, or None; a row whose
    relative increment is undefined fails with DegenerateBaseline's text.
    """
    baseline, *rows = reference_outcomes(config, rep, adjust_rate)
    base_per = pooled_per(baseline["counts"])
    point = []
    for row in rows:
        try:
            if "error" in row:
                raise row["error"]
            per = pooled_per(row["counts"])
            drop_rate = float(np.mean([m.drop_rate for _, m in row["masks"]]))
            point.append((None, per, per_increment(base_per, per), drop_rate))
        except LandmarkFramesError as e:
            point.append((str(e), None, None, None))
    return point


class TestReferenceSweep:
    """Every sweep row equals the mean over repeats of the reference points' rows."""

    @settings(max_examples=30, deadline=None)
    @given(case=reference_sweeps(), jobs=st.just(1))
    # The first strategy fails at repeats 0 and 1 of rate 0.0 and at two of rate 0.9, the
    # second at every repeat of 0.9 only, the third everywhere.
    @example(
        case=(fast_config(["random:rate=0.2+overweight:factor=0.5", "landmark:keep,r=1",
                           "random:n=100000,seed=0", "random:rate=0.3"],
                          n_utterances=4, n_speakers=2, utterance_length=2),
              "drop_rate", [0.0, 0.9], 3),
        jobs=2,
    )
    @example(
        case=(fast_config(["hybrid:P=2,D=1,overweight=1.5", "random:rate=0.2+overweight:factor=0.5",
                           "hybrid:P=2,D=1,overweight=1.5"], n_utterances=4),
              "overweight", [0.0, 2.5], 2),
        jobs=2,
    )
    def test_rows_match_reference(self, case, jobs):
        config, parameter, values, repeats = case
        baseline = reference_outcomes(replace(config, strategies=[]))[0]
        if "error" in baseline:
            # A failing baseline is fatal.
            with pytest.raises(type(baseline["error"])):
                sweep(config, parameter, values, repeats=repeats, jobs=jobs)
            return
        rows = sweep(config, parameter, values, repeats=repeats, jobs=jobs)
        assert rows[0].per == pooled_per(baseline["counts"])
        rows = iter(rows[1:])
        for value in values:
            point, rate = config, value
            if parameter == "overweight":
                variants = [experiment._overweight_variant(raw, value) for raw in config.strategies]
                point, rate = replace(config, strategies=variants), None
            runs = [reference_point_rows(point, rep, rate) for rep in range(repeats)]
            for i, raw in enumerate(point.strategies):
                row, want = next(rows), [run[i] for run in runs]
                assert (row.strategy, row.value) == (raw, value)
                failed = [(rep, error) for rep, (error, *_) in enumerate(want) if error]
                if failed:
                    rep, error = failed[-1]
                    assert row.error.startswith(f"{len(failed)} of {repeats} repeats; rep {rep}: ")
                    assert row.error.endswith(error)
                    assert (row.per, row.delta_per, row.drop_rate) == (None, None, None)
                    continue
                _, pers, deltas, drop_rates = zip(*want)
                mean, stdev = summarize_cv(deltas)
                assert row.error is None
                assert row.per == float(np.mean(pers))
                assert (row.delta_per, row.mean, row.stdev) == (mean, mean, stdev)
                assert row.drop_rate == float(np.mean(drop_rates))
        assert next(rows, None) is None


# Strategies whose masks and weights read no rng stream, so no utterance's
# outcome depends on its position in the corpus.
ORDER_FREE_STRATEGIES = [
    "regular:P=2,D=1",
    "regular:P=3,D=1,method=upsample",
    "landmark:keep,r=1,method=fill_const",
    "landmark:drop",
    "hybrid:P=2,D=1,overweight=1.5",
    "overweight:factor=2.5,r=1",
    "random:n=2,seed=5,method=fill_0",
    "random:match=keep,r=1,seed=7",
]


def per_utterance(outcome):
    """(uid, counts, decode, checksum, mask) of each utterance of a row, by uid."""
    return sorted(
        (uid, counts, phones, digest, mask.dropped.tolist())
        for (uid, mask), counts, (_, phones), (_, digest)
        in zip(outcome.masks, outcome.counts, outcome.decodes, outcome.checksums)
    )


class TestUtteranceOrder:
    """Under rng-free strategies, the order of the corpus's utterances changes nothing,
    the cross-validation folds and the statistics over them included."""

    @settings(max_examples=40, deadline=None)
    @given(
        config=reference_configs(),
        strategies=st.lists(st.sampled_from(ORDER_FREE_STRATEGIES), min_size=1, max_size=3),
        jobs=st.sampled_from([1, 2]),
    )
    @example(
        config=fast_config([]),
        strategies=["landmark:keep,r=1,method=fill_const", "random:match=keep,r=1,seed=7",
                    "hybrid:P=2,D=1,overweight=1.5"],
        jobs=2,
    )
    # Six speakers in three folds: each gender group has three speakers to shuffle.
    @example(
        config=fast_config([], folds=3, n_utterances=12, n_speakers=6),
        strategies=["regular:P=2,D=1", "landmark:keep,r=1,method=fill_const"],
        jobs=1,
    )
    def test_reversed_corpus_gives_the_same_rows(self, config, strategies, jobs):
        config = replace(config, strategies=strategies)
        gen_corpus = experiment.gen_corpus

        def reversed_corpus(*args):
            corpus = gen_corpus(*args)
            return replace(corpus, utterances=corpus.utterances[::-1])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiment, "gen_corpus", reversed_corpus)
            try:
                backward, corpus = compute_outcomes(config, jobs)
            except LandmarkFramesError as e:
                # A failing baseline is fatal either way; its message names the first
                # failing utterance in corpus order.
                with pytest.raises(type(e)):
                    compute_outcomes(config, jobs)
                return
        uids = [u.alignment.utterance_id for u in corpus.utterances]
        assert uids == sorted(uids, reverse=True)
        forward, _ = compute_outcomes(config, jobs)
        assert [o.strategy for o in backward] == [o.strategy for o in forward]
        for a, b in zip(forward, backward):
            assert (a.error is None) == (b.error is None), (a.error, b.error)
            if a.error is None:
                assert per_utterance(a) == per_utterance(b)
                assert (a.per, a.delta_per) == (b.per, b.delta_per)
                # The folds are the same speakers either way, so every statistic is too.
                assert (a.mean, a.stdev, a.fold_increments) == (b.mean, b.stdev, b.fold_increments)
                assert (a.p_wilcoxon, a.p_t) == (b.p_wilcoxon, b.p_t)


class EagerPool(ProcessPoolExecutor):
    """An executor whose map returns a list, as a tracing wrapper's may."""

    def map(self, fn, tasks, chunksize=1):
        return list(super().map(fn, tasks, chunksize=chunksize))


class TestPipeline:
    """The next tasks are realized and queued while earlier ones decode; the numbers do not move."""

    def test_next_strategy_realized_before_results_are_read(self, monkeypatch):
        config = fast_config(["landmark:keep", "random:match=keep"])
        expected = sweep(config, "drop_rate", [0.3, 0.6], repeats=2, jobs=2)
        # Tasks of about 15 utterances, so the stream holds several and a
        # group of 10 is cut at most once, as a real one of 50 in a task of
        # about 200.
        monkeypatch.setattr(experiment, "TASK_CELLS", 15 * task_cells(config, [(0,)]))
        events = []
        # Realizations are memoized across points; the rate adjustment runs at every one.
        adjust = experiment.adjust_mask_to_rate

        def recorded(*args, **kwargs):
            events.append(("adjust", None))
            return adjust(*args, **kwargs)

        class Pool(ProcessPoolExecutor):
            def map(self, fn, tasks, chunksize=1):
                k = sum(kind == "submit" for kind, _ in events)
                events.append(("submit", k))
                results = super().map(fn, tasks, chunksize=chunksize)

                def read():
                    events.append(("read", k))
                    yield from results
                    events.append(("done", k))
                return read()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiment, "adjust_mask_to_rate", recorded)
            patch.setattr(experiment, "ProcessPoolExecutor", Pool)
            rows = sweep(config, "drop_rate", [0.3, 0.6], repeats=2, jobs=2)
        assert [row_tuple(r) for r in rows] == [row_tuple(r) for r in expected]

        where = {event: i for i, event in enumerate(events) if event[0] != "adjust"}
        # The baseline's task comes before any adjustment; then the tasks of 2
        # values x 2 repeats x 2 strategies, 80 utterances, run in one stream.
        queued = experiment._QUEUED_PER_WORKER * 2
        stream = [k for kind, k in events[events.index(("adjust", None)):] if kind == "submit"]
        assert len(stream) > queued + 2
        for k in stream[:-queued - 1]:
            # The parent adjusts the next rows and queues more tasks before
            # it reads task k's results.
            first_adjust = events.index(("adjust", None), where[("submit", k)])
            assert first_adjust < where[("read", k)]
            assert where[("submit", k + queued)] < where[("read", k)]
        # Before the last task, cut when the groups run out, queued tasks
        # wait while one more is built.
        in_flight = peak = 0
        for kind, _ in events[:where[("submit", stream[-1])]]:
            in_flight += {"submit": 1, "done": -1}.get(kind, 0)
            peak = max(peak, in_flight)
        assert peak == queued + 1

    def test_list_returning_map_gives_the_same_outputs(self, tmp_path, monkeypatch):
        config = fast_config(["landmark:keep", "random:match=keep", "regular:P=2,D=1"],
                             comparison="landmark:keep")
        values, repeats = [0.3, 0.6], 2
        rows = sweep(config, "drop_rate", values, repeats=repeats, jobs=1)
        run_experiment(config, str(tmp_path / "plain"), jobs=1)
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", EagerPool)
        eager = sweep(config, "drop_rate", values, repeats=repeats, jobs=2)
        run_experiment(config, str(tmp_path / "eager"), jobs=2)
        assert [row_tuple(r) for r in eager] == [row_tuple(r) for r in rows]
        plain, eager = ((tmp_path / d / "checksums.txt").read_text() for d in ("plain", "eager"))
        assert eager == plain

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_realize_failure_mid_stream_leaves_neighbours_unchanged(self, jobs, monkeypatch):
        config = fast_config(["landmark:keep", "regular:P=2,D=1", "random:match=keep"])
        values, repeats = [0.3, 0.6], 2
        rows = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        outcomes, _ = compute_outcomes(config, jobs=jobs)
        realize = experiment.realize_strategy

        def failing(spec, *args, **kwargs):
            if spec.render() == "regular:P=2,D=1":
                raise InvalidPattern("refused")
            return realize(spec, *args, **kwargs)

        monkeypatch.setattr(experiment, "realize_strategy", failing)
        failed_rows = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        failed, _ = compute_outcomes(config, jobs=jobs)
        first = outcomes[0].reports[0].utterance_id
        for got, want in zip(failed_rows, rows):
            if got.strategy == "regular:P=2,D=1":
                assert got.error == f"2 of 2 repeats; rep 1: {first}: realize: refused"
            else:
                assert row_tuple(got) == row_tuple(want)
        assert failed[2].error == f"{first}: realize: refused"
        for i in (0, 1, 3):
            assert baseline_fields(failed[i]) == baseline_fields(outcomes[i])


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_realize_and_adjust_failures_name_utterance_and_stage(self, jobs):
        outcomes, corpus = compute_outcomes(fast_config(["random:n=10000,seed=0"]), jobs=jobs)
        utt = corpus.utterances[0]
        uid, T = utt.alignment.utterance_id, utt.matrix.T
        assert outcomes[1].error == (
            f"{uid}: realize: cannot drop 10000 of {T} frames"
        )
        # At rate 1.0 every kept frame of landmark:keep is a protected landmark frame.
        rows = sweep(fast_config(["landmark:keep"]), "drop_rate", [1.0], repeats=1, jobs=jobs)
        kept = int(landmark_map(annotate(utt.alignment, corpus.manner_table), T).sum())
        assert rows[1].error == (
            f"1 of 1 repeats; rep 0: {uid}: adjust: "
            f"need {kept} more drops but only 0 unprotected kept frames"
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replace_failures_name_utterance_and_stage(self, jobs):
        strategies = [
            "random:rate=0.3,seed=1,method=upsample",
            "hybrid:P=3,D=1,overweight=2.0,method=upsample",
        ]
        outcomes, corpus = compute_outcomes(fast_config(strategies), jobs=jobs)
        uid = corpus.utterances[0].alignment.utterance_id
        for outcome in outcomes[1:]:
            assert outcome.error == f"{uid}: replace: upsample needs a regular drop-1-in-P mask"


def write_two_state_corpus(path, utterances):
    """A corpus directory over a two-state left-to-right model.

    utterances lists (T, kind) per utterance: "plain" scores are finite
    and favour aa's state, so the baseline misses bb there; "forced" ones allow only aa's state in the first half and only bb's
    in the second, so any dropped frame that upsample reconstructs from
    both halves allows no state at all; "late" ones are finite but for
    aa's state at the last frame, so fill_const allows only bb's state at
    a dropped frame, which init forbids at frame 0.
    """
    path.mkdir()
    half_log = np.log(0.5)
    model = TransitionModel(
        np.array([0.0, NEG_INF]), np.array([[half_log, half_log], [NEG_INF, 0.0]]), ["aa", "bb"]
    )
    (path / "model.tm").write_text(write_transition_model(model))
    (path / "manners.txt").write_text(write_manner_table({"aa": "vowel", "bb": "vowel"}))
    rng = np.random.default_rng(0)
    for u, (T, kind) in enumerate(utterances):
        half = T // 2
        values = rng.normal(-2.0, 1.0, size=(T, 2))
        if kind == "plain":
            values[:, 1] -= 20.0
        elif kind == "forced":
            values[:half, 1] = values[half:, 0] = NEG_INF
        elif kind == "late":
            values[-1, 0] = NEG_INF
        (path / f"utt{u:04d}.align").write_text(f"0 {half} aa\n{half} {T} bb\n")
        (path / f"utt{u:04d}.llm").write_bytes(write_score_matrix(ScoreMatrix(f"utt{u:04d}", values)))


class TestChunkFailures:
    """A sweep decodes each chunk as one batch; its rows still fail as utterance-by-utterance decoding did."""

    # A third of 12 and 9 frames keeps regular:P=3,D=1's drop-1-in-3 masks; 10
    # frames have one drop too many, so the adjusted mask is no coset for upsample.
    THIRD = 1 / 3

    def sweep_rows(self, tmp_path, utterances, strategies, values, repeats, jobs):
        """The sweep's rows and the rows rebuilt from one run per (value, repeat)."""
        write_two_state_corpus(tmp_path / "corpus", utterances)
        config = ExperimentConfig(strategies=strategies, folds=2, data_dir=str(tmp_path / "corpus"))
        rows = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        return [row_tuple(r) for r in rows[1:]], per_point_rows(config, values, repeats)[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_decode_error_before_a_later_replace_error_wins(self, tmp_path, jobs):
        # Utterance 0 collapses under upsample; utterance 1, in the same chunk, cannot be upsampled.
        rows, expected = self.sweep_rows(
            tmp_path, [(12, "forced"), (10, "plain"), (9, "plain")],
            ["regular:P=3,D=1,method=upsample"], [self.THIRD], 1, jobs,
        )
        assert rows == expected
        assert rows[0][-1] == "1 of 1 repeats; rep 0: utt0000: no surviving state at frame 0"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replace_error_before_a_later_decode_error_wins(self, tmp_path, jobs):
        rows, expected = self.sweep_rows(
            tmp_path, [(10, "plain"), (12, "forced"), (9, "plain")],
            ["regular:P=3,D=1,method=upsample"], [self.THIRD], 1, jobs,
        )
        assert rows == expected
        assert rows[0][-1].startswith("1 of 1 repeats; rep 0: utt0000: replace: upsample needs")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_collapse_fails_only_its_strategy_and_repeat(self, tmp_path, jobs):
        # random:rate=0.75 drops 9 of utterance 0's 12 frames, frame 0 in some repeats only.
        rows, expected = self.sweep_rows(
            tmp_path, [(12, "late"), (9, "plain"), (6, "plain")],
            ["regular:P=3,D=1,method=fill_0", "random:rate=0.75,method=fill_const"], [0.75], 4, jobs,
        )
        assert rows == expected
        assert rows[0][-1] is None
        failed = rows[1][-1]
        assert re.fullmatch(r"[123] of 4 repeats; rep \d: utt0000: no surviving state at frame 0",
                            failed), failed


class TestMixedTasks:
    """One sweep task holds groups of several strategies and methods; each
    group still fails alone, as utterance-by-utterance decoding did."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_groups_leave_the_other_rows_unchanged(self, tmp_path, jobs, monkeypatch):
        # Utterance 0 collapses under fill_const wherever random:rate=0.75
        # drops its last frame; after adjustment, upsample finds no coset in
        # utterance 0 at rate 0.75 and in utterance 1 at a third; fill_0
        # decodes everywhere.
        write_two_state_corpus(tmp_path / "corpus", [(12, "late"), (10, "plain"), (9, "plain")])
        config = ExperimentConfig(
            strategies=["regular:P=3,D=1,method=fill_0", "random:rate=0.75,method=fill_const",
                        "regular:P=3,D=1,method=upsample"],
            folds=2, data_dir=str(tmp_path / "corpus"),
        )
        values, repeats = [0.75, TestChunkFailures.THIRD], 4
        expected = per_point_rows(config, values, repeats)[1]
        shipped = []

        class Pool(ProcessPoolExecutor):
            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                shipped.extend(tasks)
                return super().map(fn, tasks, chunksize=chunksize)

        score = experiment._score_task

        def recorded(corpus, task):
            shipped.append(task)
            return score(corpus, task)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", Pool)
        if jobs == 1:
            monkeypatch.setattr(experiment, "_score_task", recorded)
        rows = [row_tuple(r) for r in sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)[1:]]
        assert rows == expected
        # The baseline's task, then one task for every group of both values.
        assert len(shipped) == 2
        methods = [method for *_, method in shipped[1][0]]
        assert methods == (["fill_0"] * 3 + ["fill_const"] * 3 + ["upsample"] * 3) * 4 * 2
        errors = [row[-1] for row in rows]
        assert errors[0] is None and errors[3] is None
        for i in (1, 4):
            assert re.fullmatch(r"[123] of 4 repeats; rep \d: utt0000: no surviving state at frame 0",
                                errors[i]), errors[i]
        for i, uid in ((2, "utt0000"), (5, "utt0001")):
            assert errors[i].startswith(f"4 of 4 repeats; rep 3: {uid}: replace: upsample needs")


class TestRepeatFreeStrategies:
    """An overweight sweep decodes a strategy that draws from no rng once per value."""

    def test_rows_decoded_per_value_equal_the_distinct_inputs(self, monkeypatch):
        config = fast_config(["overweight:factor=2.0", "random:rate=0.2+overweight:factor=0.5",
                              "hybrid:P=2,D=1,overweight=1.5"])
        values, repeats = [1.0, 2.5], 3
        variants = {
            v: [f"overweight:factor={v!r}", f"random:rate=0.2+overweight:factor={v!r}",
                f"hybrid:P=2,D=1,overweight={v!r}"] for v in values
        }
        _, expected = per_point_rows(config, values, repeats, variants)
        decoded = []
        score = experiment._score_task

        def counted(corpus, task):
            items, _, _ = task
            decoded.append(len(items))
            return score(corpus, task)

        monkeypatch.setattr(experiment, "_score_task", counted)
        rows = sweep(config, "overweight", values, repeats=repeats)
        assert [row_tuple(r) for r in rows[1:]] == expected
        U = len(rows[0].counts)
        # The baseline, then per value the two rng-free strategies once and
        # the random one at every repeat.
        assert sum(decoded) == U + len(values) * U * (2 + repeats)

    def test_an_error_counts_at_every_repeat(self, monkeypatch):
        config = fast_config(["overweight:factor=2.0", "random:rate=0.2+overweight:factor=0.5"])
        realize, calls = experiment.realize_strategy, Counter()

        def failing(spec, *args, **kwargs):
            calls[spec.raw] += 1
            if spec.raw.startswith("overweight:"):
                raise InvalidPattern("refused")
            return realize(spec, *args, **kwargs)

        monkeypatch.setattr(experiment, "realize_strategy", failing)
        rows = sweep(config, "overweight", [1.0, 2.5], repeats=3)
        first = rows[0].masks[0][0]
        assert [r.error for r in rows[1:]] == [
            f"3 of 3 repeats; rep 2: {first}: realize: refused", None
        ] * 2
        # Realized at repeat 0 of each value only; the error is not kept.
        assert calls["overweight:factor=1.0"] == calls["overweight:factor=2.5"] == 1


class TestPointMemo:
    """A command does the work that does not depend on its point once, in one memo."""

    def record(self, monkeypatch, fail=None):
        """Count realize_strategy calls by strategy and collect each realized group's memo."""
        calls, memos = Counter(), []
        realize, realize_group = experiment.realize_strategy, experiment._realize_group

        def counted(spec, *args, **kwargs):
            calls[spec.raw] += 1
            if spec.raw == fail:
                raise InvalidPattern("refused")
            return realize(spec, *args, **kwargs)

        def recorded(raw, prep, *args, **kwargs):
            memos.append(prep.memo)
            return realize_group(raw, prep, *args, **kwargs)

        monkeypatch.setattr(experiment, "realize_strategy", counted)
        monkeypatch.setattr(experiment, "_realize_group", recorded)
        return calls, memos

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_realize_runs_once_per_rng_stream(self, jobs, tmp_path, monkeypatch):
        config = fast_config(["landmark:keep", "random:match=keep"])
        values, repeats = [0.3, 0.5, 0.6], 3
        expected = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        calls, memos = self.record(monkeypatch)
        rows = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        assert [row_tuple(r) for r in rows] == [row_tuple(r) for r in expected]
        U = len(rows[0].counts)
        # The baseline and landmark:keep once per utterance; the rng control once per repeat.
        assert calls == {BASELINE: U, "landmark:keep": U, "random:match=keep": U * repeats}
        assert sum(calls.values()) == U * (1 + 1 + repeats)
        # The baseline and every point share the command's memo.
        memo = memos[0]
        assert len(memos) == 1 + len(values) * repeats * 2
        assert all(m is memo for m in memos)
        realized = [value for key, value in memo.items() if key[0] == "realize"]
        assert len(realized) == U * (2 + repeats)
        assert all(weights is None or not weights.flags.writeable for _, weights, _ in realized)
        # Only landmark:keep protects frames; a map that protects none is kept as None.
        protecting = {
            key[1] for key, value in memo.items() if key[0] == "realize" and value[2] is not None
        }
        assert protecting == {"landmark:keep"}
        assert all(p is None or (p.any() and not p.flags.writeable) for _, _, p in realized)
        assert {key[0] for key in memo} == {"realize", "seed"}

        calls.clear()
        memos.clear()
        run_experiment(config, str(tmp_path / "run"), jobs=jobs)
        assert calls == {BASELINE: U, "landmark:keep": U, "random:match=keep": U}
        # A run's baseline and strategies share one memo too, its own.
        assert len(memos) == 3 and all(m is memos[0] for m in memos) and memos[0] is not memo
        assert len([key for key in memos[0] if key[0] == "realize"]) == 3 * U
        # A run adjusts no rate, so no realization keeps a protected map, not even landmark:keep's.
        assert all(value[2] is None for key, value in memos[0].items() if key[0] == "realize")

    def test_realize_failure_repeats_at_every_point(self, monkeypatch):
        config = fast_config(["landmark:keep", "random:match=keep"])
        values, repeats = [0.3, 0.5], 2
        calls, _ = self.record(monkeypatch, fail="landmark:keep")
        rows = sweep(config, "drop_rate", values, repeats=repeats)
        first = rows[0].masks[0][0]
        # Each point tries the first utterance again and fails there.
        assert calls["landmark:keep"] == len(values) * repeats
        error = f"2 of 2 repeats; rep 1: {first}: realize: refused"
        assert [r.error for r in rows[1:]] == [error, None] * 2

    def test_error_cell_counts_only_the_failed_repeats(self, monkeypatch):
        config = fast_config(["random:match=keep"])
        values, repeats = [0.3, 0.5], 2
        expected = sweep(config, "drop_rate", values, repeats=repeats)
        realize, calls = experiment.realize_strategy, Counter()

        def first_call_fails(spec, *args, **kwargs):
            calls[spec.raw] += 1
            if spec.raw == "random:match=keep" and calls[spec.raw] == 1:
                raise InvalidPattern("refused")
            return realize(spec, *args, **kwargs)

        monkeypatch.setattr(experiment, "realize_strategy", first_call_fails)
        rows = sweep(config, "drop_rate", values, repeats=repeats)
        first = rows[0].masks[0][0]
        # Only rep 0 of the first value fails; the error is not kept, so the
        # second value realizes rep 0 again and gets the unpatched row.
        assert rows[1].error == f"1 of 2 repeats; rep 0: {first}: realize: refused"
        assert row_tuple(rows[2]) == row_tuple(expected[2])


class TestTasks:
    """What a pool task carries and what it returns, at --jobs 1 and 2."""

    def record(self, monkeypatch, jobs):
        """Collect every task and its result list in submission order."""
        tasks, results = [], []
        score = experiment._score_task

        def recorded(corpus, task):
            result = score(corpus, task)
            tasks.append(task)
            results.append(result)
            return result

        class Pool(ProcessPoolExecutor):
            def map(self, fn, items, chunksize=1):
                items = list(items)
                shipped = list(super().map(fn, items, chunksize=chunksize))
                tasks.extend(items)
                results.extend(shipped)
                return shipped

        if jobs == 1:
            monkeypatch.setattr(experiment, "_score_task", recorded)
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", Pool)
        return tasks, results

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_tasks_return_counts_and_run_tasks_everything(self, jobs, monkeypatch):
        config = fast_config(["landmark:keep", "random:match=keep"])
        tasks, results = self.record(monkeypatch, jobs)
        rows = sweep(config, "drop_rate", [0.3], repeats=1, jobs=jobs)
        U = len(rows[0].counts)
        # The baseline is one task; both strategies share the next, each in
        # utterance order, whatever the worker count.
        assert [[ui for ui, *_ in items] for items, *_ in tasks] == [
            list(range(U)), list(range(U)) * 2
        ]
        assert [[method for *_, method in items] for items, *_ in tasks] == [
            ["copy"] * U, ["copy"] * 2 * U
        ]
        assert not any(full for *_, full in tasks)
        counts = [c for result in results for c in result]
        assert len(counts) == 3 * U
        assert all(type(n) is int and type(e) is int for n, e in counts)
        assert rows[0].counts == counts[:U]

        tasks.clear()
        results.clear()
        outcomes, _ = compute_outcomes(config, jobs=jobs)
        # A run task is one utterance.
        assert [[ui for ui, *_ in items] for items, *_ in tasks] == 3 * [[ui] for ui in range(U)]
        assert all(full for *_, full in tasks)
        for ((report, hyp, digest),) in results:
            assert isinstance(report, PERReport) and isinstance(hyp, list)
            assert len(digest) == 64
        # The sweep's counts are the run's reports, utterance by utterance.
        assert [(r.n_ref, r.errors) for ((r, _, _),) in results[:U]] == rows[0].counts
        assert outcomes[0].counts == rows[0].counts

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tasks_fill_up_to_the_cell_budget_across_groups(self, jobs, monkeypatch):
        config = fast_config(["landmark:keep", "random:match=keep,method=fill_0"])
        values, repeats = [0.3, 0.6], 2
        expected = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        budget = 7 * task_cells(config, [(0,)])
        monkeypatch.setattr(experiment, "TASK_CELLS", budget)
        tasks, _ = self.record(monkeypatch, jobs)
        rows = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        assert [row_tuple(r) for r in rows] == [row_tuple(r) for r in expected]
        U = len(rows[0].counts)
        items = [item for task_items, *_ in tasks for item in task_items]
        # The baseline's rows, then 2 values x 2 repeats x 2 strategies of U
        # utterances, in stream order; tasks cut inside groups.
        groups = 1 + len(values) * repeats * 2
        assert [ui for ui, *_ in items] == list(range(U)) * groups
        assert [method for *_, method in items[U:]] == (["copy"] * U + ["fill_0"] * U) * 4
        # The baseline is decoded before the stream starts.
        split = list(itertools.accumulate(len(task_items) for task_items, *_ in tasks)).index(U) + 1
        for stream in (tasks[:split], tasks[split:]):
            for task_items, *_ in stream[:-1]:
                assert task_cells(config, task_items) >= budget
                assert task_cells(config, task_items[:-1]) < budget
        assert any(len(task_items) % U for task_items, *_ in tasks[split:])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_only_weights_other_than_one_are_shipped(self, jobs, monkeypatch):
        strategies = ["landmark:keep", "overweight:factor=2.0", "overweight:factor=1.0"]
        tasks, _ = self.record(monkeypatch, jobs)
        compute_outcomes(fast_config(strategies), jobs=jobs)
        run_tasks = list(tasks)
        tasks.clear()
        sweep(fast_config(strategies), "drop_rate", [0.3], repeats=1, jobs=jobs)
        for shipped in (run_tasks, tasks):
            weights = [w for items, *_ in shipped for _, _, w, _ in items]
            U = len(weights) // 4
            weighted = weights[2 * U:3 * U]
            assert weights[:2 * U] == [None] * (2 * U) and weights[3 * U:] == [None] * U
            assert any(w is not None for w in weighted)
            for w in weighted:
                assert w is None or (not w.flags.writeable and (w != 1.0).any())


class TestTaskMemory:
    """A full-size sweep task holds about ten bytes per lattice cell at its peak."""


    def test_peak_of_one_full_size_task(self):
        # The task tiles its own predecessor table, so the peak counts it.
        corpus = experiment.gen_corpus(SynthConfig(n_utterances=50), 0)
        model = corpus.model
        U, S, P = len(corpus.utterances), model.S, model.pred.size
        items, cells, lattice = [], 0, 0
        for k in itertools.count():
            ui = k % U
            T = corpus.utterances[ui].matrix.T
            items.append((ui, FrameMask(np.arange(T) % 3 == 1), None, "copy"))
            cells += T * S + 3 * P
            lattice += T * S
            if cells >= experiment.TASK_CELLS:
                break
        # About 200 utterances; the lattice holds float64 scores and int8
        # back-pointers, 9 bytes a cell.
        assert 150 < len(items) < 300
        assert index_type(P) is np.int8
        tracemalloc.start()
        try:
            results = experiment._score_task(corpus, (items, None, False))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(isinstance(r, tuple) for r in results)
        # Scores and back-pointers take 9 bytes a cell, the tiled table and
        # the frame buffers about 2 more. An int64 back-pointer buffer would
        # add 7 bytes a cell, and the replaced matrices, kept, 8.
        assert peak < 12 * lattice, peak / lattice


class TestConfigIO:
    def test_load_round_trip_essentials(self):
        text = json.dumps(
            {
                "seed": 3,
                "strategies": ["regular:P=2,D=1", "landmark:keep"],
                "folds": 4,
                "synth": {"n_utterances": 12, "noise_sigma": 1.1},
            }
        )
        config = load_experiment_config(text)
        assert config.seed == 3
        assert config.strategies == ["regular:P=2,D=1", "landmark:keep"]
        assert config.folds == 4
        assert config.synth.n_utterances == 12
        assert config.synth.noise_sigma == 1.1

    def test_not_json(self):
        with pytest.raises(InvalidConfig):
            load_experiment_config("turbo = yes\n")
        with pytest.raises(InvalidConfig, match="^config must be a JSON object$"):
            load_experiment_config('["regular:P=2,D=1"]')

    def test_unknown_key(self):
        # Folds draw from the config seed; there is no separate fold seed.
        for key in ("turbo", "cv_seed"):
            with pytest.raises(InvalidConfig, match="unknown config keys"):
                load_experiment_config(json.dumps({key: 7}))

    def test_unknown_synth_key(self):
        with pytest.raises(InvalidConfig):
            load_experiment_config(json.dumps({"synth": {"volume": 11}}))

    def test_synth_seed_refused(self):
        # The top-level seed is the corpus seed; synth has no seed of its own.
        with pytest.raises(InvalidConfig, match=r"unknown synth keys: \['seed'\]"):
            load_experiment_config(json.dumps({"synth": {"seed": 7}}))
        with pytest.raises(InvalidConfig, match=r"unknown synth keys: \['seed'\]"):
            load_experiment_config(json.dumps({"seed": 7, "synth": {"seed": 7}}))

    def test_synth_next_to_data_dir_refused(self, tmp_path):
        text = json.dumps({"data_dir": str(tmp_path), "synth": {"n_utterances": 5}})
        with pytest.raises(InvalidConfig, match="synth is ignored when data_dir is set"):
            load_experiment_config(text)
        assert load_experiment_config(json.dumps({"data_dir": str(tmp_path)})).data_dir

    def test_float_fields_take_ints(self):
        config = load_experiment_config(json.dumps({"beam": 5, "synth": {"noise_sigma": 2}}))
        assert config.beam == 5 and config.synth.noise_sigma == 2

    def test_readme_config_loads(self, capsys):
        # The README's example config must name only keys the loader takes, with their
        # types, and its Python example must run as written.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        [block] = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert load_experiment_config(block).strategies
        [example] = re.findall(r"```python\n(.*?)```", readme, re.S)
        exec(example, {})
        assert capsys.readouterr().out == "66.66666666666667\n"

    def test_validation_applies(self):
        with pytest.raises(InvalidConfig):
            load_experiment_config(json.dumps({"folds": 1}))
        with pytest.raises(InvalidConfig, match="^seed must be >= 0$"):
            ExperimentConfig(seed=-1)

    @pytest.mark.parametrize("text", ["a\nb", "a\r", "a\u2028b"])
    def test_line_break_in_tag_or_strategy_refused(self, text):
        # Either would split a row of report.csv.
        with pytest.raises(InvalidConfig, match="^tag .* holds a line break$"):
            ExperimentConfig(tag=text)
        with pytest.raises(InvalidConfig, match="^tag .* holds a line break$"):
            load_experiment_config(json.dumps({"tag": text}))
        strategy = f"regular:P=2,{text}D=1"
        with pytest.raises(InvalidPattern, match="^strategy string .* holds a line break$"):
            ExperimentConfig(strategies=[strategy])
        with pytest.raises(InvalidPattern, match="^strategy string .* holds a line break$"):
            load_experiment_config(json.dumps({"strategies": [strategy]}))

    @pytest.mark.parametrize("text, key", [
        ('{"seed": 0, "seed": 5}', "seed"),
        ('{"seed": 0, "synth": {"n_utterances": 4, "n_utterances": 9}}', "n_utterances"),
        ('{"strategies": ["landmark:keep"], "strategies": ["landmark:drop"]}', "strategies"),
    ], ids=["top", "synth", "list"])
    def test_duplicate_key_refused(self, text, key):
        with pytest.raises(InvalidConfig, match=f"^config key '{key}' given twice$"):
            load_experiment_config(text)

    def test_nan_beam_rejected(self):
        with pytest.raises(InvalidConfig, match="beam must be positive"):
            ExperimentConfig(beam=float("nan"))
        with pytest.raises(InvalidConfig, match="beam must be positive"):
            load_experiment_config('{"beam": NaN}')


def write_corpus_dir(path, corpus, n_utterances=3):
    (path / "model.tm").write_text(write_transition_model(corpus.model))
    (path / "manners.txt").write_text(write_manner_table(corpus.manner_table))
    for u in corpus.utterances[:n_utterances]:
        stem = u.alignment.utterance_id
        (path / f"{stem}.align").write_text(format_alignment(u.alignment))
        (path / f"{stem}.llm").write_bytes(write_score_matrix(u.matrix))


class TestLoadCorpusDir:
    def test_default_speaker_assignment(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        corpus = load_corpus_dir(str(tmp_path))
        assert len(corpus.utterances) == 3
        speakers = {u.alignment.speaker_id for u in corpus.utterances}
        assert len(speakers) == 3
        assert all(u.alignment.gender == "F" for u in corpus.utterances)

    def test_speaker_with_two_genders_fails_a_run(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        (tmp_path / "speakers.tsv").write_text("utt0000 spk00 F\nutt0001 spk01 M\nutt0002 spk00 M\n")
        with pytest.raises(InvalidConfig, match="speaker 'spk00' has inconsistent gender labels"):
            compute_outcomes(ExperimentConfig(folds=2, data_dir=str(tmp_path)))

    def test_missing_align_files(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus, n_utterances=0)
        with pytest.raises(InvalidConfig):
            load_corpus_dir(str(tmp_path))

    @staticmethod
    def rewrite_matrix(path, stem, values):
        (path / f"{stem}.llm").write_bytes(write_score_matrix(ScoreMatrix(stem, values)))

    def test_frame_count_must_match_alignment(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        self.rewrite_matrix(tmp_path, "utt0001", small_corpus.utterances[1].matrix.values[:-1])
        with pytest.raises(ShapeError, match=r"utt0001\.llm.*'utt0001'.*frames"):
            load_corpus_dir(str(tmp_path))

    def test_senone_count_must_match_model(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        self.rewrite_matrix(tmp_path, "utt0001", small_corpus.utterances[1].matrix.values[:, :-1])
        with pytest.raises(ShapeError, match=r"utt0001\.llm.*'utt0001'.*senones"):
            load_corpus_dir(str(tmp_path))

    def test_speakers_line_needs_three_fields(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        (tmp_path / "speakers.tsv").write_text("utt0000 spk00 F\nutt0001 spk01\n")
        with pytest.raises(FormatError, match=r"speakers\.tsv: line 2.*utt0001"):
            load_corpus_dir(str(tmp_path))

    @pytest.mark.parametrize("lines, message", [
        # A stem listed twice used to take its last line.
        ("utt0000 spk00 F\nutt0000 spk01 M\nutt0001 spk01 M\nutt9999 spk00 F\n",
         "speakers.tsv: line 2: utterance 'utt0000' listed twice"),
        # A stem with no .align used to be ignored.
        ("utt0000 spk00 F\nutt0001 spk01 M\nutt9999 spk00 F\n",
         "speakers.tsv: line 3: utterance 'utt9999' has no .align"),
    ], ids=["listed_twice", "no_align"])
    def test_speakers_file_must_agree_with_the_corpus(self, tmp_path, small_corpus, lines,
                                                     message):
        write_corpus_dir(tmp_path, small_corpus)
        (tmp_path / "speakers.tsv").write_text(lines)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_corpus_dir(str(tmp_path))
        # Like the file's other format errors, it exits 2.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"folds": 2, "data_dir": str(tmp_path)}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    def test_unlisted_stem_is_its_own_f_speaker(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        (tmp_path / "speakers.tsv").write_text("utt0001 spk01 M\n")
        corpus = load_corpus_dir(str(tmp_path))
        labels = [(u.alignment.speaker_id, u.alignment.gender) for u in corpus.utterances]
        assert labels == [("utt0000", "F"), ("spk01", "M"), ("utt0002", "F")]

    def test_bad_gender_names_speakers_file(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        (tmp_path / "speakers.tsv").write_text("utt0000 spk00 X\n")
        with pytest.raises(FormatError, match=r"^speakers\.tsv: line 1: bad gender 'X'$"):
            load_corpus_dir(str(tmp_path))

    def test_alignment_needs_its_matrix(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        (tmp_path / "utt0001.llm").unlink()
        with pytest.raises(FormatError, match=r"utt0001\.llm.*'utt0001'"):
            load_corpus_dir(str(tmp_path))

    def test_truncated_matrix_names_file(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        llm = tmp_path / "utt0001.llm"
        llm.write_bytes(llm.read_bytes()[:-8])
        with pytest.raises(FormatError, match=r"utt0001\.llm.*'utt0001'.*expected \d+ bytes"):
            load_corpus_dir(str(tmp_path))

    def test_bad_alignment_boundary_names_file(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        align = tmp_path / "utt0002.align"
        align.write_text(align.read_text().replace("0 ", "zero ", 1))
        with pytest.raises(ParseError, match=r"utt0002\.align.*'utt0002'.*non-integer"):
            load_corpus_dir(str(tmp_path))

    def test_bad_model_row_names_file(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        model = tmp_path / "model.tm"
        lines = model.read_text().splitlines()
        lines[2] = lines[2].rsplit(" ", 1)[0]
        model.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"model\.tm.*line 3"):
            load_corpus_dir(str(tmp_path))

    @pytest.mark.parametrize("manner", ["stop", "silence"])
    def test_alignment_phone_that_no_senone_emits(self, tmp_path, manner):
        config = tmp_path / "synth.cfg"
        config.write_text("n_utterances = 4\nn_speakers = 2\n")
        corpus = tmp_path / "corpus"
        assert main(["synth", "--config", str(config), "--out", str(corpus)]) == 0
        align = next(p for p in sorted(corpus.glob("*.align")) if " ph07\n" in p.read_text())
        align.write_text(align.read_text().replace(" ph07\n", " phZZ\n"))
        with open(corpus / "manners.txt", "a") as fh:
            fh.write(f"phZZ {manner}\n")
        stem = align.stem
        if manner == "silence":
            # Scoring drops silence, so no decode has to emit it.
            loaded = load_corpus_dir(str(corpus))
            assert "phZZ" in next(u for u in loaded.utterances
                                  if u.alignment.utterance_id == stem).alignment.phones()
            return
        message = f"{stem}.align: utterance '{stem}': no senone emits phone 'phZZ'"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_corpus_dir(str(corpus))

    def test_text_file_that_is_not_utf8_names_file(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        align = tmp_path / "utt0001.align"
        align.write_bytes(align.read_bytes().replace(b"ph", b"p\xa3", 1))
        message = r"^utt0001\.align: utterance 'utt0001': 'utf-8' codec can't decode"
        with pytest.raises(FormatError, match=message):
            load_corpus_dir(str(tmp_path))

    def test_unknown_manner_names_file(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        with open(tmp_path / "manners.txt", "a") as fh:
            fh.write("\nzz clicky\n")
        with pytest.raises(FormatError, match=r"manners\.txt.*unknown manner 'clicky'"):
            load_corpus_dir(str(tmp_path))
