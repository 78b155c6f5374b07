import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landmark_frames import (
    MANNERS,
    NEG_INF,
    FormatError,
    FrameMask,
    LandmarkFramesError,
    MalformedAlignment,
    PhoneAlignment,
    ScoreMatrix,
    parse_alignment,
    read_landmarks,
    read_manner_table,
    read_score_matrix,
    read_score_matrix_text,
    read_transition_model,
    write_manner_table,
    write_mask,
    write_score_matrix,
    write_score_matrix_text,
)
from landmark_frames.corpus_io import (
    MATRIX_MAGIC,
    atomic_write_bytes,
    atomic_write_text,
    format_alignment,
)


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

    def test_properties(self):
        mask = FrameMask(np.array([True, False, True, False, False]))
        assert mask.T == 5
        assert mask.n_dropped == 2
        assert mask.drop_rate == 0.4
        assert list(mask.dropped_frames()) == [0, 2]
        assert list(mask.kept_frames()) == [1, 3, 4]


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
