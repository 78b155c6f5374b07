import csv
import hashlib
import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from landmark_frames import (
    BASELINE,
    ExperimentConfig,
    FormatError,
    InvalidConfig,
    InvalidPattern,
    ParseError,
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
    landmark_frames,
    load_experiment_config,
    parse_strategy,
    run_experiment,
    summarize_cv,
    sweep,
    write_manner_table,
    write_mask,
    write_score_matrix,
    write_transition_model,
)
import landmark_frames.experiment as experiment
from landmark_frames.experiment import load_corpus_dir

FAST_SYNTH = dict(n_utterances=10, n_speakers=5, utterance_length=6)


def fast_config(strategies, folds=5, seed=0, comparison=None, **synth_overrides):
    synth = SynthConfig(seed=seed, **{**FAST_SYNTH, **synth_overrides})
    return ExperimentConfig(
        seed=seed,
        strategies=list(strategies),
        comparison=comparison,
        folds=folds,
        synth=synth,
    )


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
        first, _ = compute_outcomes(config, rep=0)
        second, _ = compute_outcomes(config, rep=1)
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
        outcomes, _ = compute_outcomes(fast_config(["regular:P=2,D=1"]))
        by_name = {o.strategy: o for o in outcomes}
        assert by_name[BASELINE].p_wilcoxon is None
        assert by_name["regular:P=2,D=1"].p_wilcoxon is not None

    def test_unknown_comparison_rejected(self):
        with pytest.raises(InvalidConfig):
            fast_config(["regular:P=2,D=1"], comparison="landmark:keep")


class TestSweep:
    def test_unknown_parameter(self):
        with pytest.raises(InvalidConfig):
            sweep(fast_config(["overweight:factor=2.0"]), "beam", [1.0], repeats=1)

    def test_empty_values(self):
        with pytest.raises(InvalidConfig):
            sweep(fast_config(["overweight:factor=2.0"]), "overweight", [], repeats=1)

    def test_no_strategies(self):
        with pytest.raises(InvalidConfig):
            sweep(fast_config([]), "overweight", [1.0], repeats=1)

    def test_overweight_needs_sweepable_strategy(self):
        with pytest.raises(InvalidConfig):
            sweep(fast_config(["regular:P=2,D=1"]), "overweight", [1.0], repeats=1)

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

    def test_only_non_random_landmark_parts_are_protected(self, small_corpus):
        alignment = small_corpus.utterances[0].alignment
        landmarks = annotate(alignment, small_corpus.manner_table)
        T = alignment.num_frames
        for raw in ("landmark:keep", "overweight:factor=2.0", "hybrid:P=2,D=1,overweight=1.5"):
            assert len(experiment._protection_frames(parse_strategy(raw), landmarks, T, 0)) > 0
        for raw in ("random:match=keep", "random:match=drop,r=1"):
            assert len(experiment._protection_frames(parse_strategy(raw), landmarks, T, 0)) == 0

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
    """Sweep rows rebuilt from one compute_outcomes call per (value, repeat).

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
        runs = [compute_outcomes(point, rep=r, adjust_rate=rate)[0] for r in range(repeats)]
        baseline = baseline or runs[0][0]
        for i, raw in enumerate(point.strategies, start=1):
            outcomes = [run[i] for run in runs]
            failed = [f"rep {r}: {o.error}" for r, o in enumerate(outcomes) if o.error]
            if failed:
                rows.append((raw, value, None, None, None, None, None, failed[-1]))
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
            outcome.stdev, outcome.p_wilcoxon, outcome.p_t, outcome.error, outcome.reports,
            outcome.decodes, masks, outcome.checksums, outcome.fold_increments,
            outcome.stat_results)


class TestSharedPreparation:
    """A sweep prepares once; its rows equal the per-point compute_outcomes path."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_drop_rate_rows_match_per_point_path(self, jobs):
        # landmark:keep protects its landmark frames, so rate 1.0 fails on every repeat.
        config = fast_config(["landmark:keep", "random:match=keep", "random:rate=0.3"])
        values, repeats = [0.3, 1.0], 2
        baseline, expected = per_point_rows(config, values, repeats)
        rows = sweep(config, "drop_rate", values, repeats=repeats, jobs=jobs)
        assert [row_tuple(r) for r in rows[1:]] == expected
        assert any(row[-1] for row in expected)
        # A sweep computes no matrix checksums; every other field is the same.
        assert baseline_fields(rows[0]) == baseline_fields(replace(baseline, checksums=None))

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
        assert baseline_fields(rows[0]) == baseline_fields(replace(baseline, checksums=None))

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
        # One baseline decode, then 2 values x 2 repeats x 2 strategies.
        assert len(shipped) == 10 + 2 * 2 * 2 * 10
        heavy = (ScoreMatrix, TransitionModel)
        assert not any(isinstance(item, heavy) for task in shipped for item in task)


class EagerPool(ProcessPoolExecutor):
    """An executor whose map returns a list, as a tracing wrapper's may."""

    def map(self, fn, tasks, chunksize=1):
        return list(super().map(fn, tasks, chunksize=chunksize))


class TestPipeline:
    """Strategy k+1 is realized while strategy k decodes; the numbers do not move."""

    def test_next_strategy_realized_before_results_are_read(self):
        config = fast_config(["landmark:keep", "random:match=keep"])
        events = []
        realize = experiment.realize_strategy

        def recorded(*args, **kwargs):
            events.append(("realize", None))
            return realize(*args, **kwargs)

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
            patch.setattr(experiment, "realize_strategy", recorded)
            patch.setattr(experiment, "ProcessPoolExecutor", Pool)
            sweep(config, "drop_rate", [0.3, 0.6], repeats=2, jobs=2)

        where = {event: i for i, event in enumerate(events) if event[0] != "realize"}
        submits = [k for kind, k in events if kind == "submit"]
        # The baseline, then 2 values x 2 repeats x 2 strategies in one stream.
        assert submits == list(range(1 + 2 * 2 * 2))
        for k in submits[1:-1]:
            first_realize = events.index(("realize", None), where[("submit", k)])
            assert first_realize < where[("read", k)]
            assert where[("submit", k + 1)] < where[("read", k)]
        in_flight = peak = 0
        for kind, _ in events:
            in_flight += {"submit": 1, "done": -1}.get(kind, 0)
            peak = max(peak, in_flight)
        assert peak == 2

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
                assert got.error == f"rep 1: {first}: realize: refused"
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
            f"{uid}: realize: cannot drop 10000 of {T} unprotected frames (T={T})"
        )
        # At rate 1.0 every kept frame of landmark:keep is a protected landmark frame.
        rows = sweep(fast_config(["landmark:keep"]), "drop_rate", [1.0], repeats=1, jobs=jobs)
        kept = len(landmark_frames(annotate(utt.alignment, corpus.manner_table), T))
        assert rows[1].error == (
            f"rep 0: {uid}: adjust: need {kept} more drops but only 0 unprotected kept frames"
        )


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

    def test_unknown_key(self):
        with pytest.raises(InvalidConfig):
            load_experiment_config(json.dumps({"turbo": True}))

    def test_unknown_synth_key(self):
        with pytest.raises(InvalidConfig):
            load_experiment_config(json.dumps({"synth": {"volume": 11}}))

    def test_synth_seed_refused(self):
        # gen_corpus draws on the top-level seed, so synth.seed would be ignored.
        with pytest.raises(InvalidConfig, match=r"synth\.seed is ignored"):
            load_experiment_config(json.dumps({"synth": {"seed": 7}}))
        with pytest.raises(InvalidConfig, match=r"synth\.seed is ignored"):
            load_experiment_config(json.dumps({"seed": 7, "synth": {"seed": 7}}))

    def test_synth_next_to_data_dir_refused(self, tmp_path):
        text = json.dumps({"data_dir": str(tmp_path), "synth": {"n_utterances": 5}})
        with pytest.raises(InvalidConfig, match="synth is ignored when data_dir is set"):
            load_experiment_config(text)
        assert load_experiment_config(json.dumps({"data_dir": str(tmp_path)})).data_dir

    def test_validation_applies(self):
        with pytest.raises(InvalidConfig):
            load_experiment_config(json.dumps({"folds": 1}))

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
        with pytest.raises(FormatError, match=r"speakers\.tsv line 2.*utt0001"):
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

    def test_unknown_manner_names_file(self, tmp_path, small_corpus):
        write_corpus_dir(tmp_path, small_corpus)
        with open(tmp_path / "manners.txt", "a") as fh:
            fh.write("\nzz clicky\n")
        with pytest.raises(FormatError, match=r"manners\.txt.*unknown manner 'clicky'"):
            load_corpus_dir(str(tmp_path))
