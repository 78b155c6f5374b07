import json
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import landmark_frames
from landmark_frames import (
    FrameMask,
    mask_random,
    parse_alignment,
    read_score_matrix,
    write_mask,
)
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

    def test_duplicate_config_option_refused(self, tmp_path, capsys):
        config = tmp_path / "twice.cfg"
        config.write_text("n_utterances = 4\nn_utterances = 9\n")
        assert run_cli("synth", "--config", str(config), "--out", str(tmp_path / "x")) == 1
        assert "line 2: option 'n_utterances' given twice" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_seed_is_no_config_option(self, tmp_path, capsys):
        # --seed is the one corpus seed of the synth command.
        config = tmp_path / "seeded.cfg"
        config.write_text("seed = 3\n")
        assert run_cli("synth", "--config", str(config), "--out", str(tmp_path / "x")) == 1
        assert "line 1: unknown option 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["mean_separation", "noise_sigma", "offpeak_noise"])
    @pytest.mark.parametrize("route, value", [
        ("config", "nan"), ("config", "inf"), ("config", "-inf"),
        ("json", "NaN"), ("json", "Infinity"), ("json", "-Infinity"),
    ])
    def test_non_finite_float_refused(self, tmp_path, capsys, key, route, value):
        out = tmp_path / "out"
        if route == "config":
            config = tmp_path / "synth.cfg"
            config.write_text(f"n_utterances = 2\n{key} = {value}\n")
            args = ("synth", "--config", str(config), "--out", str(out))
        else:
            config = tmp_path / "experiment.json"
            config.write_text(f'{{"synth": {{"n_utterances": 2, "{key}": {value}}}}}')
            args = ("run", "--config", str(config), "--out", str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(*args) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("names, target", [
        (["u.align", "u.phn"], "u.landmarks"),
        (["a/b.align", "a_b.align"], "a_b.landmarks"),
    ], ids=["align_and_phn", "subdir_and_underscore"])
    def test_inputs_sharing_an_output_refused(self, corpus_dir, tmp_path, capsys, names, target):
        source = tmp_path / "src"
        segments = [line.split() for line in (corpus_dir / "utt0000.align").read_text().splitlines()]
        for name in names:
            # A .phn file counts samples, 160 to a frame.
            scale = 160 if name.endswith(".phn") else 1
            (source / name).parent.mkdir(parents=True, exist_ok=True)
            (source / name).write_text(
                "".join(f"{int(a) * scale} {int(b) * scale} {phone}\n" for a, b, phone in segments)
            )
        manners = ("--manners", str(corpus_dir / "manners.txt"))
        out = tmp_path / "lms"
        assert run_cli("annotate", "--dir", str(source), *manners, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert all(str(source / name) in err for name in names)
        assert str(out / target) in err
        assert not out.exists()
        # Without --out nothing is written, and each file is an utterance.
        assert run_cli("annotate", "--dir", str(source), *manners) == 0
        assert capsys.readouterr().out.splitlines()[0] == "utterances 2"

    def test_requires_exactly_one_source(self, corpus_dir, tmp_path, capsys):
        assert run_cli("annotate") == 1
        # A --dir tree with no .align or .phn file is no source either.
        (tmp_path / "empty" / "sub").mkdir(parents=True)
        (tmp_path / "empty" / "sub" / "notes.txt").write_text("0 10 s\n")
        assert run_cli("annotate", "--dir", str(tmp_path / "empty")) == 1
        assert "no alignment files found" in capsys.readouterr().err
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

    def test_strategy_with_line_break_refused(self, capsys):
        assert run_cli("mask", "--strategy", "regular:P=2,\nD=1", "--frames", "10") == 1
        assert "holds a line break" in capsys.readouterr().err

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_frames_below_one_refused(self, capsys, frames):
        assert run_cli("mask", "--strategy", "regular:P=2,D=1", "--frames", frames) == 1
        assert f"--frames must be >= 1, got {frames}" in capsys.readouterr().err

    def test_negative_strategy_seed_refused(self, capsys):
        assert run_cli("mask", "--strategy", "random:n=3,seed=-1", "--frames", "10") == 1
        assert capsys.readouterr().err == "error: seed must be finite and >= 0, got -1\n"

    @pytest.mark.parametrize("huge", ["P=100000000000000000000,D=1",
                                      "P=100000000000000000000,D=99999999999999999999"])
    def test_period_past_a_c_long_drops_like_one_past_the_frames(self, capsys, huge):
        # Every period above the frame count drops the first D frames of the one cycle.
        assert run_cli("mask", "--strategy", f"regular:{huge}", "--frames", "6") == 0
        D = int(huge.split("D=")[1])
        assert capsys.readouterr().out == write_mask(FrameMask(np.arange(6) < D)) + "\n"


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

    def test_score_reads_padded_decode_output(self, corpus_dir, tmp_path, capsys):
        ref = corpus_dir / "utt0000.align"
        phones = parse_alignment(ref.read_text()).phones()
        plain = tmp_path / "plain.txt"
        plain.write_text(f"score -12.5\nphones {' '.join(phones)}\n")
        padded = tmp_path / "padded.txt"
        padded.write_text(f"\n  score\t-12.5 \n \n\tphones  {'  '.join(phones)}\t\n\n")
        assert run_cli("score", "--ref", str(ref), "--hyp", str(plain)) == 0
        expected = capsys.readouterr().out
        assert expected.splitlines()[1] == f"utt0000,{len(phones)},0,0,0,0.0"
        assert run_cli("score", "--ref", str(ref), "--hyp", str(padded)) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", ["mask", "transform"])
    def test_negative_seed_refused(self, corpus_dir, tmp_path, capsys, command):
        out = tmp_path / "out.llm"
        inputs = {
            "mask": ["--frames", "10"],
            "transform": ["--matrix", str(corpus_dir / "utt0000.llm"), "--out", str(out)],
        }[command]
        assert run_cli(command, "--strategy", "random:rate=0.5", "--seed", "-1", *inputs) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

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

    def test_malformed_pairs(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("1 2 3\n")
        assert run_cli("stats", "--pairs", str(pairs)) == 1
        pairs.write_text("1 2\none 2\n")
        assert run_cli("stats", "--pairs", str(pairs)) == 1
        assert "line 2: unparseable value" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["nan 3", "2 inf", "-inf 1"])
    def test_non_finite_pair_refused(self, tmp_path, capsys, line):
        # A nan once hung the Wilcoxon ranking; an inf printed a nan verdict.
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"1 2\n{line}\n4 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("stats", "--pairs", str(pairs)) == 1
        captured = capsys.readouterr()
        assert "line 2: non-finite value" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["", "\n  \n\n"])
    def test_no_pairs_refused(self, tmp_path, capsys, text):
        # An empty pair list is an unusable --pairs file, like a malformed one.
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(text)
        assert run_cli("stats", "--pairs", str(pairs)) == 1
        captured = capsys.readouterr()
        assert f"error: no pairs in {pairs}" in captured.err
        assert captured.out == ""


class TestRunAndSweep:
    def test_run_writes_report(self, tmp_path, capsys):
        config = experiment_config(tmp_path, ["regular:P=2,D=1"])
        out = tmp_path / "run"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
        assert (out / "report.csv").exists()
        assert (out / "report.svg").exists()
        assert capsys.readouterr().out.startswith("wrote report for 2 strategies")

    def test_run_with_upsample_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy.ma costs a run time and memory at import, and np.unique
        # imports it. The run is in a fresh interpreter, so no other test
        # has imported it first.
        config = experiment_config(
            tmp_path, ["regular:P=3,D=1,method=upsample"],
            synth={"n_utterances": 6, "n_speakers": 3, "n_phones": 32, "utterance_length": 4},
        )
        out = tmp_path / "run"
        script = (
            "import sys\n"
            "from landmark_frames.cli import main\n"
            f"assert main(['run', '--config', {str(config)!r}, '--out', {str(out)!r},"
            " '--jobs', '1']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(landmark_frames.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        config = experiment_config(tmp_path, ["regular:P=2,D=1"])
        old = os.umask(umask)
        try:
            assert run_cli("synth", "--out", str(tmp_path / "corpus")) == 0
            assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "run")) == 0
        finally:
            os.umask(old)
        modes = {
            os.path.join(root, name): stat.S_IMODE(os.stat(os.path.join(root, name)).st_mode)
            for out in ("corpus", "run")
            for root, _, names in os.walk(tmp_path / out)
            for name in names
        }
        assert len(modes) > 20
        assert {path: m for path, m in modes.items() if m != mode} == {}

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

    def test_run_reads_text_corpus_like_binary(self, tmp_path):
        synth = tmp_path / "synth.cfg"
        synth.write_text("n_utterances = 6\nn_speakers = 3\nutterance_length = 5\n")
        config = tmp_path / "experiment.json"
        checksums = []
        for fmt in ("binary", "text"):
            corpus = tmp_path / fmt
            assert run_cli("synth", "--config", str(synth), "--format", fmt, "--out", str(corpus)) == 0
            strategies = ["regular:P=2,D=1", "landmark:keep,r=1,method=fill_const"]
            config.write_text(json.dumps(
                {"strategies": strategies, "folds": 3, "data_dir": str(corpus)}
            ))
            out = tmp_path / f"run-{fmt}"
            assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
            checksums.append((out / "checksums.txt").read_bytes())
        assert (tmp_path / "text" / "utt0000.llm.txt").exists()
        assert not (tmp_path / "text" / "utt0000.llm").exists()
        assert checksums[0] == checksums[1]

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

    @pytest.mark.parametrize("env", [None, "2"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_jobs_zero_is_refused(self, tmp_path, monkeypatch, capsys, command, env):
        # --jobs 0 is given, so it is refused like --jobs -1 rather than read as absent.
        if env is None:
            monkeypatch.delenv("LANDMARK_FRAMES_JOBS", raising=False)
        else:
            monkeypatch.setenv("LANDMARK_FRAMES_JOBS", env)
        config = experiment_config(tmp_path, ["regular:P=2,D=1"])
        out = tmp_path / "out"
        args = [command, "--config", str(config), "--out", str(out), "--jobs", "0"]
        if command == "sweep":
            args += ["--parameter", "drop_rate", "--values", "0.5", "--repeats", "1"]
        assert run_cli(*args) == 1
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_run_bad_config_json(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("extra, message", [
        ({"folds": 2.5}, "config key 'folds' must be int, got 2.5"),
        ({"seed": 1.5}, "config key 'seed' must be int, got 1.5"),
        ({"seed": True}, "config key 'seed' must be int, got True"),
        ({"synth": {"n_phones": 2.5}}, "synth key 'n_phones' must be int, got 2.5"),
        ({"strategies": "landmark:keep"}, "config key 'strategies' must be list[str]"),
        ({"formats": "csv"}, "config key 'formats' must be list[str], got 'csv'"),
        ({"merge_mc": "no"}, "config key 'merge_mc' must be bool, got 'no'"),
    ])
    def test_run_refuses_wrong_typed_config_values(self, tmp_path, capsys, extra, message):
        config = experiment_config(tmp_path, **{"strategies": ["regular:P=2,D=1"], **extra})
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"strategies": ["regular:P=2,D=1"], "tag": "a\\nb"}', "tag 'a\\nb' holds a line break"),
        ('{"strategies": ["regular:P=2,\\nD=1"]}', "strategy string 'regular:P=2,\\nD=1' holds"),
        ('{"seed": 0, "seed": 5}', "config key 'seed' given twice"),
        ('{"synth": {"n_utterances": 4, "n_utterances": 9}}', "config key 'n_utterances' given twice"),
    ], ids=["tag", "strategy", "seed", "synth"])
    def test_run_refuses_line_breaks_and_duplicate_keys(self, tmp_path, capsys, text, message):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    def test_sweep_lists_each_failing_strategy_once(self, tmp_path, capsys):
        # The first strategy fails at both rates; landmark:keep keeps its landmark frames,
        # so it fails only at rate 1.0.
        strategies = ["random:n=100000,seed=0", "regular:P=2,D=1", "landmark:keep"]
        config = experiment_config(tmp_path, strategies)
        assert run_cli(
            "sweep", "--config", str(config), "--out", str(tmp_path / "sweep"),
            "--parameter", "drop_rate", "--values", "0.3,1.0", "--repeats", "1",
        ) == 0
        err = capsys.readouterr().err
        assert err == "strategies with failures: random:n=100000,seed=0; landmark:keep\n"

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

    def test_drop_rate_sweep_annotates_only_for_landmark_strategies(self, corpus_dir, tmp_path,
                                                                     capsys):
        # Drop one manner the alignments use: only a strategy that reads landmarks needs it.
        phone = (corpus_dir / "utt0000.align").read_text().split()[2]
        manners = (corpus_dir / "manners.txt").read_text().splitlines()
        assert f"{phone} silence" not in manners
        kept = [line for line in manners if line.split()[0] != phone]
        (corpus_dir / "manners.txt").write_text("\n".join(kept) + "\n")
        sweep_args = ["--parameter", "drop_rate", "--values", "0.3,0.6", "--repeats", "2"]
        config = tmp_path / "config.json"
        for strategy, command, extra, status in (
            ("regular:P=2,D=1", "run", [], 0),
            ("regular:P=2,D=1", "sweep", sweep_args, 0),
            ("landmark:keep", "sweep", sweep_args, 2),
        ):
            config.write_text(json.dumps({
                "strategies": [strategy], "folds": 3, "data_dir": str(corpus_dir),
            }))
            out = tmp_path / f"{command}-{strategy}"
            assert run_cli(command, "--config", str(config), "--out", str(out), *extra) == status
        assert (tmp_path / "sweep-regular:P=2,D=1" / "sweep.csv").exists()
        assert f"no manner for phone {phone!r}" in capsys.readouterr().err

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
