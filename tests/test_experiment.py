import csv
import json
import os

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
    compute_outcomes,
    emit_report,
    format_alignment,
    format_plot_svg,
    format_report_csv,
    format_sweep_svg,
    load_experiment_config,
    read_mask,
    run_experiment,
    sweep,
    write_manner_table,
    write_score_matrix,
    write_transition_model,
)
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

    def test_emit_report_writes_requested_formats(self, tmp_path):
        outcomes, _ = compute_outcomes(fast_config([]))
        emit_report(outcomes, seed=0, out_dir=str(tmp_path), formats=("csv",))
        assert (tmp_path / "report.csv").exists()
        assert not (tmp_path / "report.svg").exists()

    def test_emit_report_rejects_unknown_format(self, tmp_path):
        outcomes, _ = compute_outcomes(fast_config([]))
        with pytest.raises(InvalidConfig):
            emit_report(outcomes, seed=0, out_dir=str(tmp_path), formats=("pdf",))


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
        out = self.run(tmp_path)
        masks_dir = out / "strategy_00" / "masks"
        rates = []
        for name in sorted(os.listdir(masks_dir)):
            mask = read_mask((masks_dir / name).read_text())
            rates.append(mask.n_dropped / mask.T)
        assert len(rates) == 10
        assert np.mean(rates) == pytest.approx(0.5, abs=0.02)

    def test_checksums_cover_written_files(self, tmp_path):
        out = self.run(tmp_path)
        listed = set()
        for line in (out / "checksums.txt").read_text().splitlines():
            digest, rel = line.split(None, 1)
            assert len(digest) == 64
            listed.add(rel)
        assert "report.csv" in listed
        assert "baseline/decode.txt" in listed

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

    def test_validation_applies(self):
        with pytest.raises(InvalidConfig):
            load_experiment_config(json.dumps({"folds": 1}))


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
