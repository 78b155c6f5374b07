"""Every mutated corpus directory loads and runs, or fails with a LandmarkFramesError.

A 4-utterance corpus written by `synth` is mutated once per case, in one
of its files: a byte flip, a truncation, two tokens swapped, CRLF line
ends, a line duplicated or deleted, or a token replaced by nan, inf or
1e400. Each case goes through load_corpus_dir and then a two-strategy
compute_outcomes. Only a LandmarkFramesError may escape, and one raised
by the load names a file of the directory.
"""

import shutil
import warnings

import numpy as np
import pytest

from landmark_frames import ExperimentConfig, LandmarkFramesError, compute_outcomes
from landmark_frames.cli import main
from landmark_frames.experiment import load_corpus_dir

CASES = 200
STRATEGIES = ["regular:P=2,D=1", "landmark:keep,r=1"]
STRAY = [b"nan", b"inf", b"1e400"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "clean"
    config = out.parent / "synth.cfg"
    config.write_text("n_utterances = 4\nn_speakers = 2\nutterance_length = 3\n")
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    return out


def _swap_tokens(data, rng):
    tokens = data.split(b" ")
    i, j = rng.integers(len(tokens), size=2)
    tokens[i], tokens[j] = tokens[j], tokens[i]
    return b" ".join(tokens)


def _stray_token(data, rng):
    tokens = data.split(b" ")
    tokens[rng.integers(len(tokens))] = STRAY[rng.integers(len(STRAY))]
    return b" ".join(tokens)


def _duplicate_line(data, rng):
    lines = data.split(b"\n")
    i = rng.integers(len(lines))
    return b"\n".join(lines[:i + 1] + lines[i:])


def _delete_line(data, rng):
    lines = data.split(b"\n")
    i = rng.integers(len(lines))
    return b"\n".join(lines[:i] + lines[i + 1:])


def _flip_byte(data, rng):
    out = bytearray(data)
    out[rng.integers(len(out))] ^= int(rng.integers(1, 256))
    return bytes(out)


MUTATIONS = {
    "flip": _flip_byte,
    "truncate": lambda data, rng: data[:rng.integers(len(data))],
    "swap": _swap_tokens,
    "crlf": lambda data, rng: data.replace(b"\n", b"\r\n"),
    "duplicate": _duplicate_line,
    "delete": _delete_line,
    "stray": _stray_token,
}


def test_only_landmark_frames_errors_escape(corpus_dir, tmp_path):
    rng = np.random.default_rng(16)
    names = sorted(p.name for p in corpus_dir.iterdir())
    # Binary matrices get the byte-level mutations; text files get all.
    binary = {name for name in names if name.endswith(".llm")}
    where = tmp_path / "corpus"
    shutil.copytree(corpus_dir, where)
    config = ExperimentConfig(strategies=STRATEGIES, folds=2, data_dir=str(where))
    failed = {"load": 0, "run": 0, "none": 0}
    for case in range(CASES):
        name = names[rng.integers(len(names))]
        kinds = ["flip", "truncate"] if name in binary else sorted(MUTATIONS)
        kind = kinds[rng.integers(len(kinds))]
        clean = (corpus_dir / name).read_bytes()
        (where / name).write_bytes(MUTATIONS[kind](clean, rng))
        stage = "load"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                load_corpus_dir(str(where))
                stage = "run"
                compute_outcomes(config)
            stage = "none"
        except LandmarkFramesError as e:
            # A load error starts with the name of the file it read.
            named = str(e).split(":")[0]
            assert stage == "run" or named in names, f"case {case}: {kind} of {name}: {e}"
        failed[stage] += 1
        (where / name).write_bytes(clean)
    # The seed reaches every stage.
    assert all(failed.values()), failed
