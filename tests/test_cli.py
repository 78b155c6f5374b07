import json
import os
import warnings

import numpy as np
import pytest

from landmark_frames import FrameMask, mask_random, read_score_matrix, write_mask
from landmark_frames.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    config = tmp_path / "synth.cfg"
    config.write_text("n_utterances = 6\nn_speakers = 3\nutterance_length = 5\n")
    assert run_cli("synth", "--config", str(config), "--out", str(out)) == 0
    return out


def experiment_config(tmp_path, strategies, **extra):
    path = tmp_path / "experiment.json"
    payload = {
        "strategies": strategies,
        "folds": 3,
        "synth": {"n_utterances": 6, "n_speakers": 3, "utterance_length": 5},
    }
    payload.update(extra)
    path.write_text(json.dumps(payload))
    return path


class TestSynth:
    def test_writes_corpus_files(self, corpus_dir):
        names = sorted(os.listdir(corpus_dir))
        assert "model.tm" in names
        assert "manners.txt" in names
        assert "speakers.tsv" in names
        assert sum(n.endswith(".align") for n in names) == 6
        assert sum(n.endswith(".llm") for n in names) == 6

    def test_deterministic_and_seed_override(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a", "b", "c"))
        assert run_cli("synth", "--out", str(a)) == 0
        assert run_cli("synth", "--out", str(b)) == 0
        assert run_cli("synth", "--seed", "9", "--out", str(c)) == 0
        name = "utt0000.llm"
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()

    def test_text_format(self, tmp_path):
        out = tmp_path / "text"
        assert run_cli("synth", "--format", "text", "--out", str(out)) == 0
        assert (out / "utt0000.llm.txt").exists()

    def test_bad_config_exits_1(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("volume = 11\n")
        assert run_cli("synth", "--config", str(config), "--out", str(tmp_path / "x")) == 1


class TestAnnotate:
    def test_single_file_prints_fraction(self, corpus_dir, tmp_path, capsys):
        align = corpus_dir / "utt0000.align"
        out = tmp_path / "lms"
        code = run_cli(
            "annotate",
            "--align",
            str(align),
            "--manners",
            str(corpus_dir / "manners.txt"),
            "--out",
            str(out),
        )
        assert code == 0
        captured = capsys.readouterr().out.splitlines()
        assert captured[0] == "utterances 1"
        assert captured[1].startswith("landmark_fraction ")
        fraction = float(captured[1].split()[1])
        assert 0.0 < fraction < 1.0
        assert (out / "utt0000.landmarks").exists()

    def test_directory_mode(self, corpus_dir, capsys):
        code = run_cli(
            "annotate",
            "--dir",
            str(corpus_dir),
            "--manners",
            str(corpus_dir / "manners.txt"),
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "utterances 6"

    def test_requires_exactly_one_source(self, corpus_dir):
        assert run_cli("annotate") == 1
        assert (
            run_cli(
                "annotate",
                "--align",
                str(corpus_dir / "utt0000.align"),
                "--dir",
                str(corpus_dir),
            )
            == 1
        )


class TestMask:
    def test_stdout_mask(self, capsys):
        assert run_cli("mask", "--strategy", "regular:P=2,D=1", "--frames", "6") == 0
        expected = FrameMask(np.array([True, False] * 3))
        assert capsys.readouterr().out == write_mask(expected) + "\n"

    def test_out_file(self, tmp_path):
        out = tmp_path / "drop.mask"
        code = run_cli(
            "mask", "--strategy", "random:rate=0.5,seed=3", "--frames", "10",
            "--out", str(out),
        )
        assert code == 0
        expected = mask_random(10, 5, seed=3)
        assert out.read_text() == write_mask(expected) + "\n"
        assert out.read_text().count(" 1") == 5

    def test_landmark_strategy_needs_landmark_file(self):
        assert run_cli("mask", "--strategy", "landmark:keep", "--frames", "10") == 1

    def test_bad_strategy_string(self):
        assert run_cli("mask", "--strategy", "rotate:P=2", "--frames", "10") == 1


class TestTransformDecodeScore:
    def test_transform_fill_0(self, corpus_dir, tmp_path):
        src = corpus_dir / "utt0000.llm"
        out = tmp_path / "transformed.llm"
        code = run_cli(
            "transform",
            "--matrix",
            str(src),
            "--strategy",
            "regular:P=2,D=1,method=fill_0",
            "--out",
            str(out),
        )
        assert code == 0
        before = read_score_matrix(src.read_bytes(), "u")
        after = read_score_matrix(out.read_bytes(), "u")
        assert (after.values[0] == 0.0).all()
        assert (after.values[1] == before.values[1]).all()

    def test_decode_and_score_round_trip(self, corpus_dir, tmp_path, capsys):
        decode_out = tmp_path / "decode.txt"
        code = run_cli(
            "decode",
            "--matrix",
            str(corpus_dir / "utt0000.llm"),
            "--model",
            str(corpus_dir / "model.tm"),
            "--out",
            str(decode_out),
        )
        assert code == 0
        lines = decode_out.read_text().splitlines()
        assert lines[0].startswith("score ")
        assert lines[1].startswith("phones ")

        confusion = tmp_path / "confusion.csv"
        code = run_cli(
            "score",
            "--ref",
            str(corpus_dir / "utt0000.align"),
            "--hyp",
            str(decode_out),
            "--confusion",
            str(confusion),
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "utterance_id,N,ins,del,sub,per"
        assert out[1].startswith("utt0000,")
        assert confusion.read_text().splitlines()[0] == "ref,hyp,count"

    def test_decode_missing_file_exits_2(self, corpus_dir, tmp_path):
        code = run_cli(
            "decode",
            "--matrix",
            str(tmp_path / "absent.llm"),
            "--model",
            str(corpus_dir / "model.tm"),
        )
        assert code == 2

    def test_decode_nan_beam_exits_1(self, corpus_dir, capsys):
        code = run_cli(
            "decode", "--matrix", str(corpus_dir / "utt0000.llm"),
            "--model", str(corpus_dir / "model.tm"), "--beam", "nan",
        )
        assert code == 1
        assert "beam must be positive, got nan" in capsys.readouterr().err

    def test_decode_overflow_reports_only_the_error(self, tmp_path, capsys):
        from landmark_frames import (
            ScoreMatrix, TransitionModel, write_score_matrix, write_transition_model,
        )

        matrix = tmp_path / "big.llm"
        matrix.write_bytes(write_score_matrix(ScoreMatrix("big", np.full((4, 2), 1e308))))
        model = tmp_path / "tiny.tm"
        model.write_text(write_transition_model(
            TransitionModel(np.log([0.5, 0.5]), np.log(np.full((2, 2), 0.5)), ["a", "b"])
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("decode", "--matrix", str(matrix), "--model", str(model))
        assert code == 2
        assert capsys.readouterr().err == "error: big: path score is inf at frame 1\n"

    def test_decode_mismatched_model_exits_2(self, corpus_dir, tmp_path):
        model = tmp_path / "tiny.tm"
        from landmark_frames import TransitionModel, write_transition_model

        tiny = TransitionModel(
            np.log([0.5, 0.5]), np.log(np.full((2, 2), 0.5)), ["a", "b"]
        )
        model.write_text(write_transition_model(tiny))
        code = run_cli(
            "decode", "--matrix", str(corpus_dir / "utt0000.llm"), "--model", str(model)
        )
        assert code == 2


class TestStats:
    def test_stats_csv(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("1 0\n2 0\n3 0\n4 0\n5 0\n")
        assert run_cli("stats", "--pairs", str(pairs)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "test,statistic,df,p,verdict"
        wilcoxon = lines[1].split(",")
        assert wilcoxon[0] == "wilcoxon"
        assert float(wilcoxon[3]) == 0.0625

    def test_method_choice_forwarded(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("1 0\n2 0\n3 0\n4 0\n5 0\n")
        assert run_cli("stats", "--pairs", str(pairs), "--method", "approx") == 0
        wilcoxon = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(wilcoxon[3]) != 0.0625

    def test_malformed_pairs(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("1 2 3\n")
        assert run_cli("stats", "--pairs", str(pairs)) == 1


class TestRunAndSweep:
    def test_run_writes_report(self, tmp_path, capsys):
        config = experiment_config(tmp_path, ["regular:P=2,D=1"])
        out = tmp_path / "run"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
        assert (out / "report.csv").exists()
        assert (out / "report.svg").exists()
        assert capsys.readouterr().out.startswith("wrote report for 2 strategies")

    def test_run_seed_override(self, tmp_path):
        config = experiment_config(tmp_path, [])
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli("run", "--config", str(config), "--out", str(a)) == 0
        assert run_cli("run", "--config", str(config), "--seed", "5", "--out", str(b)) == 0
        assert (a / "report.csv").read_text().splitlines()[0] == "# seed=0"
        assert (b / "report.csv").read_text().splitlines()[0] == "# seed=5"

    def test_run_format_csv_only(self, tmp_path):
        config = experiment_config(tmp_path, [])
        out = tmp_path / "csvonly"
        assert run_cli(
            "run", "--config", str(config), "--format", "csv", "--out", str(out)
        ) == 0
        assert (out / "report.csv").exists()
        assert not (out / "report.svg").exists()

    def test_run_rerun_byte_identical_across_jobs(self, tmp_path):
        config = experiment_config(tmp_path, ["regular:P=2,D=1"])
        a = tmp_path / "serial"
        b = tmp_path / "parallel"
        assert run_cli("run", "--config", str(config), "--out", str(a)) == 0
        assert run_cli("run", "--config", str(config), "--jobs", "2", "--out", str(b)) == 0
        assert (a / "checksums.txt").read_bytes() == (b / "checksums.txt").read_bytes()

    def test_run_partial_failure_still_exits_0(self, tmp_path, capsys):
        config = experiment_config(tmp_path, ["random:n=100000,seed=0"])
        out = tmp_path / "partial"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
        assert "failed strategies" in capsys.readouterr().err

    def test_jobs_env_fallback(self, tmp_path, monkeypatch):
        config = experiment_config(tmp_path, [])
        monkeypatch.setenv("LANDMARK_FRAMES_JOBS", "2")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "env")) == 0
        monkeypatch.setenv("LANDMARK_FRAMES_JOBS", "many")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "bad")) == 1

    def test_run_bad_config_json(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "x")) == 1

    def test_run_missing_config_exits_2(self, tmp_path):
        missing = tmp_path / "absent.json"
        assert run_cli("run", "--config", str(missing), "--out", str(tmp_path / "x")) == 2

    def test_sweep_writes_artifacts(self, tmp_path):
        config = experiment_config(tmp_path, ["overweight:factor=2.0"])
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep",
            "--config",
            str(config),
            "--out",
            str(out),
            "--parameter",
            "overweight",
            "--values",
            "1.0,2.0",
            "--repeats",
            "2",
        )
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.svg").exists()

    def test_sweep_byte_identical_across_jobs(self, tmp_path):
        config = experiment_config(tmp_path, ["landmark:keep", "random:match=keep"])
        outs = [tmp_path / "serial", tmp_path / "parallel"]
        for jobs, out in zip(("1", "2"), outs):
            assert run_cli(
                "sweep", "--config", str(config), "--out", str(out), "--jobs", jobs,
                "--parameter", "drop_rate", "--values", "0.3,0.6", "--repeats", "2",
            ) == 0
        for name in ("sweep.csv", "sweep.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_sweep_bad_values(self, tmp_path):
        config = experiment_config(tmp_path, ["overweight:factor=2.0"])
        code = run_cli(
            "sweep",
            "--config",
            str(config),
            "--out",
            str(tmp_path / "x"),
            "--parameter",
            "overweight",
            "--values",
            "1.0,fast",
        )
        assert code == 1


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            run_cli("mask", "--frames", "10")
        assert err.value.code == 1

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as err:
            run_cli()
        assert err.value.code == 1

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as err:
            run_cli("--help")
        assert err.value.code == 0
