import argparse
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landmark_frames import (
    LANDMARK_TYPES,
    MANNERS,
    NEG_INF,
    FormatError,
    FrameMask,
    InvalidConfig,
    LandmarkFramesError,
    LandmarkSet,
    MalformedAlignment,
    ParseError,
    PhoneAlignment,
    ScoreMatrix,
    parse_alignment,
    read_landmarks,
    read_manner_table,
    read_score_matrix,
    read_score_matrix_text,
    read_transition_model,
    write_landmarks,
    write_manner_table,
    write_mask,
    write_score_matrix,
    write_score_matrix_text,
)
from landmark_frames.cli import cmd_stats
from landmark_frames.corpus_io import (
    MATRIX_MAGIC,
    atomic_write_bytes,
    atomic_write_text,
    format_alignment,
)
from landmark_frames.decoder import TransitionModel, write_transition_model
from landmark_frames.experiment import load_corpus_dir
from oracles import dyadic_uniform_model


class TestAlignment:
    def test_frames_unit(self):
        a = parse_alignment("0 10 s\n10 20 iy", unit="frames")
        assert a.segments == [("s", 0, 10), ("iy", 10, 20)]
        assert a.num_frames == 20
        assert a.phones() == ["s", "iy"]

    def test_samples_unit_floor_mapping(self):
        a = parse_alignment("0 1600 s\n1600 3200 iy", "samples")
        assert a.segments == [("s", 0, 10), ("iy", 10, 20)]

    def test_samples_mid_frame_boundary_floors(self):
        a = parse_alignment("0 1650 s\n1650 3200 iy", "samples")
        assert a.segments == [("s", 0, 10), ("iy", 10, 20)]

    def test_overlap_rejected(self):
        with pytest.raises(MalformedAlignment):
            parse_alignment("0 10 s\n9 20 iy")

    def test_gap_rejected(self):
        with pytest.raises(MalformedAlignment):
            parse_alignment("0 10 s\n11 20 iy")

    def test_must_start_at_zero(self):
        with pytest.raises(MalformedAlignment):
            parse_alignment("1 10 s")

    def test_empty_segment_rejected(self):
        with pytest.raises(MalformedAlignment):
            parse_alignment("0 10 s\n10 10 iy")

    def test_bad_gender_rejected(self):
        with pytest.raises(MalformedAlignment):
            PhoneAlignment("u", [("s", 0, 3)], gender="X")

    def test_format_round_trip(self):
        a = parse_alignment("0 4 s\n4 9 iy", utterance_id="u1")
        again = parse_alignment(format_alignment(a), utterance_id="u1")
        assert again.segments == a.segments


class TestScoreMatrixBinary:
    def test_28_byte_round_trip(self):
        m = ScoreMatrix("u", np.array([[-1.0, -2.0]]))
        payload = write_score_matrix(m)
        assert len(payload) == 28
        back = read_score_matrix(payload, "u")
        assert back.values.tobytes() == m.values.tobytes()

    def test_bytes_are_header_then_little_endian_rows(self):
        values = np.random.default_rng(0).normal(size=(5, 6))
        header = b"LLM1" + struct.pack("<II", 5, 6)
        expected = header + values.astype("<f8").tobytes()
        big = ScoreMatrix("u", values.astype(">f8"))
        # A read-only input is kept as given, so this one stays strided.
        wide = np.zeros((5, 12))
        wide[:, ::2] = values
        wide.setflags(write=False)
        strided = ScoreMatrix("u", wide[:, ::2])
        assert not strided.values.flags.c_contiguous
        for m in (big, strided):
            assert write_score_matrix(m) == expected

    def test_bad_magic(self):
        payload = bytearray(write_score_matrix(ScoreMatrix("u", np.zeros((1, 1)))))
        payload[:4] = b"LLM2"
        with pytest.raises(FormatError):
            read_score_matrix(bytes(payload))

    def test_truncated_payload(self):
        payload = write_score_matrix(ScoreMatrix("u", np.zeros((2, 3))))
        with pytest.raises(FormatError):
            read_score_matrix(payload[:-8])

    def test_neg_inf_survives(self):
        m = ScoreMatrix("u", np.array([[NEG_INF, -1.0]]))
        back = read_score_matrix(write_score_matrix(m))
        assert back.values[0, 0] == NEG_INF

    def test_nan_rejected(self):
        with pytest.raises(FormatError):
            ScoreMatrix("u", np.array([[np.nan]]))

    def test_pos_inf_rejected(self):
        with pytest.raises(FormatError):
            ScoreMatrix("u", np.array([[np.inf]]))


class TestScoreMatrixText:
    def test_zeros_example(self):
        m = read_score_matrix_text("2 1\n0.0\n0.0")
        assert m.T == 2 and m.S == 1
        assert (m.values == 0.0).all()

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        m = ScoreMatrix("u", rng.normal(size=(5, 3)))
        back = read_score_matrix_text(write_score_matrix_text(m))
        assert back.values.tobytes() == m.values.tobytes()

    def test_header_mismatch(self):
        with pytest.raises(FormatError):
            read_score_matrix_text("2 2\n0.0 0.0")

    @pytest.mark.parametrize("text", ["0 -1", "1 -1\n5", "1 0\n", "0 0", "1 99999999999\n5"])
    def test_bad_header_counts(self, text):
        with pytest.raises(FormatError):
            read_score_matrix_text(text)


class TestMask:
    def test_write_example(self):
        mask = FrameMask(np.array([False, True, False]))
        assert write_mask(mask) == "0 0\n1 1\n2 0"

    def test_round_trip(self):
        mask = FrameMask(np.array([True, False, True, True]))
        rows = np.array([line.split() for line in write_mask(mask).splitlines()], dtype=int)
        assert (rows[:, 0] == np.arange(mask.T)).all()
        assert (rows[:, 1].astype(bool) == mask.dropped).all()

    @given(st.lists(st.lists(st.booleans(), min_size=1, max_size=300), min_size=1, max_size=4))
    def test_lines_for_masks_of_any_length_in_any_order(self, maps):
        for dropped in maps:
            want = "\n".join(f"{t} {int(d)}" for t, d in enumerate(dropped))
            assert write_mask(FrameMask(np.array(dropped))) == want

    def test_properties(self):
        mask = FrameMask(np.array([True, False, True, False, False]))
        assert mask.T == 5
        assert mask.n_dropped == 2
        assert mask.drop_rate == 0.4
        assert list(mask.dropped_frames()) == [0, 2]
        assert list(np.flatnonzero(~mask.dropped)) == [1, 3, 4]


class TestMannerTable:
    def test_round_trip(self):
        table = {"aa": "vowel", "s": "fricative", "sil": "silence"}
        assert read_manner_table(write_manner_table(table)) == table

    def test_unknown_manner_rejected(self):
        with pytest.raises(FormatError):
            read_manner_table("aa sonorant")


_NUMBER = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(["1.5", "-0.5", "-inf", "inf", "nan", "1e999", "x", "99999999999"]),
)
_WORD = st.one_of(_NUMBER, st.sampled_from(list(MANNERS) + ["aa", "sil", "V", "Fc", "MC", "F"]))
_ROWS = st.lists(st.lists(_NUMBER, max_size=3).map(" ".join), max_size=3).map("\n".join)
# Arbitrary text, lines of numbers and labels that get past the first checks,
# and a header of two small counts over a few rows of numbers.
_TEXT = st.one_of(
    st.text(max_size=80),
    st.lists(st.lists(_WORD, max_size=3).map(" ".join), max_size=8).map("\n".join),
    st.tuples(st.integers(-2, 3), st.integers(-2, 3), _ROWS).map(lambda h: f"{h[0]} {h[1]}\n{h[2]}"),
)
_COUNT = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))
_BYTES = st.one_of(
    st.binary(max_size=64),
    st.tuples(_COUNT, _COUNT, st.binary(max_size=80)).map(
        lambda h: MATRIX_MAGIC + struct.pack("<II", h[0], h[1]) + h[2]
    ),
)


class TestReadersOnArbitraryInput:
    """Every reader returns or raises a LandmarkFramesError, never anything else."""

    @pytest.mark.parametrize(
        "reader",
        [
            read_score_matrix_text,
            lambda text: parse_alignment(text, "frames"),
            lambda text: parse_alignment(text, "samples"),
            read_landmarks,
            read_transition_model,
            read_manner_table,
        ],
        ids=[
            "score_matrix_text", "alignment_frames", "alignment_samples",
            "landmarks", "transition_model", "manner_table",
        ],
    )
    @settings(max_examples=200)
    @given(text=_TEXT)
    @example(text="0 -1")
    @example(text="1 -1\n5")
    def test_text_readers(self, reader, text):
        try:
            reader(text)
        except LandmarkFramesError:
            pass

    @settings(max_examples=200)
    @given(data=_BYTES)
    def test_binary_score_matrix(self, data):
        try:
            read_score_matrix(data)
        except LandmarkFramesError:
            pass


def read_pairs(text, tmp_path):
    """The stats.csv that `stats --pairs` writes for text."""
    (tmp_path / "pairs.txt").write_text(text)
    out = tmp_path / "stats.csv"
    cmd_stats(argparse.Namespace(pairs=str(tmp_path / "pairs.txt"), method="auto", out=str(out)))
    return out.read_text()


def write_tiny_corpus(path):
    """A corpus directory of three 2-frame utterances over one senone."""
    model = TransitionModel(np.log([1.0]), np.log([[1.0]]), ["aa"])
    (path / "model.tm").write_text(write_transition_model(model))
    (path / "manners.txt").write_text("aa vowel")
    for u in range(3):
        (path / f"utt{u:04d}.align").write_text("0 2 aa")
        (path / f"utt{u:04d}.llm.txt").write_text("2 1\n0.0\n0.0\n")


def read_speakers(text, tmp_path):
    """(speaker, gender) of each utterance of a three-utterance corpus with text as speakers.tsv."""
    write_tiny_corpus(tmp_path)
    (tmp_path / "speakers.tsv").write_text(text)
    corpus = load_corpus_dir(str(tmp_path))
    return [(u.alignment.speaker_id, u.alignment.gender) for u in corpus.utterances]


# name -> (reader(text, tmp_path), well-formed lines, layout, error class, a line of wrong width).
RECORD_READERS = {
    "alignment": (
        lambda text, _: parse_alignment(text).segments,
        ["0 3 aa", "3 5 h#"], "start end phone", ParseError, "3 5",
    ),
    "manner_table": (
        lambda text, _: read_manner_table(text),
        ["aa vowel", "s fricative"], "phone manner", FormatError, "s fricative stop",
    ),
    "landmarks": (
        lambda text, _: read_landmarks(text).events,
        ["0 V", "4 Fc"], "frame TYPE", FormatError, "4",
    ),
    "stats_pairs": (
        read_pairs,
        ["1 0", "2 0.5", "3 0", "4 1", "5 0"], "a b", InvalidConfig, "1 2 3",
    ),
    "speakers_tsv": (
        read_speakers,
        ["utt0000 spk00 F", "utt0002 spk01 M"], "stem speaker gender", FormatError,
        "utt0001 spk00",
    ),
}


class TestRecords:
    """Every tabular text reader follows one record rule, through corpus_io.records."""

    @pytest.mark.parametrize("name", sorted(RECORD_READERS))
    def test_blank_and_whitespace_only_lines_are_skipped(self, name, tmp_path):
        reader, lines, _, _, _ = RECORD_READERS[name]
        padded = "\n".join(["", "  ", *(f"\t{line.replace(' ', '  ')} " for line in lines), "\t"])
        assert reader(padded, tmp_path) == reader("\n".join(lines), tmp_path)

    @pytest.mark.parametrize("name", sorted(RECORD_READERS))
    def test_wrong_width_names_line_and_layout(self, name, tmp_path):
        reader, lines, layout, error, bad = RECORD_READERS[name]
        # The bad line is line 3, after a blank line; its own whitespace is stripped.
        text = "\n".join([lines[0], " ", f"  {bad} ", *lines[1:]])
        with pytest.raises(LandmarkFramesError) as caught:
            reader(text, tmp_path)
        assert type(caught.value) is error
        message = re.escape(f"line 3: expected '{layout}', got '{bad}'")
        assert re.search(f"(^|: ){message}$", str(caught.value))


# name -> (reader, a well-formed text of its format).
POSITIONAL_READERS = {
    "matrix": (read_score_matrix_text, "2 2\n0.0 -1.5\n-inf 2.0\n"),
    "model": (
        read_transition_model,
        write_transition_model(
            TransitionModel(np.log([0.5, 0.5]), np.log(np.full((2, 2), 0.5)), ["a", "b"])
        ),
    ),
}


def spaced(lines):
    """Lines with blank ones before and between them: lines[i] is file line 2i + 3."""
    return "\n \n".join(["", *lines]) + "\n"


class TestPositionalLines:
    """The matrix text and the transition model walk their lines through
    corpus_io.line_fields: blank lines are skipped, and errors name the file
    line, blank lines counted."""

    @pytest.mark.parametrize(
        "name, index, bad, message",
        [
            ("matrix", 0, "2 x", "bad matrix header '2 x'"),
            ("matrix", 0, "2 0", "matrix must be at least 1x1, header says 2x0"),
            ("matrix", 0, "3 2", "header says 3 rows, got 2"),
            ("matrix", 2, "-inf x", "unparseable float in '-inf x'"),
            ("matrix", 2, "-inf", "expected 2 values, got 1"),
            ("model", 0, "x", "bad senone count 'x'"),
            ("model", 0, "0", "senone count must be >= 1, got 0"),
            ("model", 1, "0.0 x", "unparseable float in '0.0 x'"),
            ("model", 3, "0.0", "expected 2 values, got 1"),
            ("model", 3, "0.0 x", "unparseable float in '0.0 x'"),
            ("model", 5, "1", "expected 'index phone', got '1'"),
            ("model", 5, "x b", "bad senone index 'x'"),
            ("model", 5, "0 b", "senone index 0 out of range or repeated"),
        ],
    )
    def test_bad_line_names_its_file_line(self, name, index, bad, message):
        reader, text = POSITIONAL_READERS[name]
        lines = text.splitlines()
        lines[index] = f"\t{bad} "
        with pytest.raises(FormatError, match=f"^line {2 * index + 3}: {re.escape(message)}$"):
            reader(spaced(lines))

    def test_model_line_count_names_the_header(self):
        _, text = POSITIONAL_READERS["model"]
        with pytest.raises(FormatError, match="^line 3: 2 senones need 6 non-blank lines, got 5$"):
            read_transition_model(spaced(text.splitlines()[:-1]))

    def test_corpus_directory_names_model_line(self, tmp_path):
        write_tiny_corpus(tmp_path)
        (tmp_path / "model.tm").write_text("\n1\n\n0.0\nx\n0 aa\n")
        with pytest.raises(FormatError, match=r"^model\.tm: line 5: unparseable float in 'x'$"):
            load_corpus_dir(str(tmp_path))


# A field separator, and the whitespace at either end of a line or on a blank line.
_SEP = st.text(" \t", min_size=1, max_size=3)
_PAD = st.text(" \t", max_size=3)


def loosen(data, text):
    """text with blank lines inserted and extra whitespace around every field."""
    lines = []
    for line in text.splitlines():
        lines += data.draw(st.lists(_PAD, max_size=2))
        lines.append(data.draw(_PAD) + data.draw(_SEP).join(line.split()) + data.draw(_PAD))
    return "\n".join(lines + data.draw(st.lists(_PAD, max_size=2)))


_PHONES = st.sampled_from(["aa", "s", "h#", "ax-h", "pcl"])


class TestRecordRoundTrip:
    """Reading back what a writer wrote gives the value, whatever blank lines and
    whitespace are added."""

    @settings(max_examples=100)
    @given(
        segments=st.lists(st.tuples(_PHONES, st.integers(1, 9)), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_alignment(self, segments, data):
        bounds = np.cumsum([0] + [n for _, n in segments]).tolist()
        alignment = PhoneAlignment(
            "u", [(p, a, b) for (p, _), a, b in zip(segments, bounds, bounds[1:])]
        )
        back = parse_alignment(loosen(data, format_alignment(alignment)), utterance_id="u")
        assert back == alignment

    @settings(max_examples=100)
    @given(table=st.dictionaries(_PHONES, st.sampled_from(MANNERS)), data=st.data())
    def test_manner_table(self, table, data):
        assert read_manner_table(loosen(data, write_manner_table(table))) == table

    @settings(max_examples=100)
    @given(
        events=st.lists(
            st.tuples(st.integers(0, 2**60), st.sampled_from(LANDMARK_TYPES)), max_size=8
        ),
        data=st.data(),
    )
    def test_landmarks(self, events, data):
        landmarks = LandmarkSet("u", events)
        back = read_landmarks(loosen(data, write_landmarks(landmarks)), "u")
        assert back.events == landmarks.events

    @settings(max_examples=100)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)), data=st.data())
    def test_score_matrix_text(self, shape, data):
        score = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(NEG_INF))
        size = shape[0] * shape[1]
        cells = data.draw(st.lists(score, min_size=size, max_size=size))
        matrix = ScoreMatrix("u", np.reshape(cells, shape))
        back = read_score_matrix_text(loosen(data, write_score_matrix_text(matrix)), "u")
        assert back.values.tobytes() == matrix.values.tobytes()

    @settings(max_examples=100)
    @given(n_states=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_transition_model(self, n_states, seed, data):
        init, trans = dyadic_uniform_model(np.random.default_rng(seed), n_states)
        phones = data.draw(st.lists(_PHONES, min_size=n_states, max_size=n_states))
        model = TransitionModel(init, trans, phones)
        back = read_transition_model(loosen(data, write_transition_model(model)))
        assert back.init.tobytes() == model.init.tobytes()
        assert back.trans.tobytes() == model.trans.tobytes()
        assert back.senone_phones == model.senone_phones


class TestAtomicWrites:
    def test_text_and_bytes(self, tmp_path):
        p = tmp_path / "a.txt"
        atomic_write_text(os.fspath(p), "hello")
        assert p.read_text() == "hello"
        q = tmp_path / "b.bin"
        atomic_write_bytes(os.fspath(q), b"\x00\x01")
        assert q.read_bytes() == b"\x00\x01"
        assert list(tmp_path.iterdir()) and all(
            not f.name.startswith("tmp") for f in tmp_path.iterdir()
        )
