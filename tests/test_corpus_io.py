import os

import numpy as np
import pytest

from landmark_frames import (
    NEG_INF,
    FormatError,
    FrameMask,
    MalformedAlignment,
    PhoneAlignment,
    ScoreMatrix,
    parse_alignment,
    read_manner_table,
    read_mask,
    read_score_matrix,
    read_score_matrix_text,
    write_manner_table,
    write_mask,
    write_score_matrix,
    write_score_matrix_text,
)
from landmark_frames.corpus_io import (
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


class TestMask:
    def test_write_example(self):
        mask = FrameMask(np.array([False, True, False]))
        assert write_mask(mask) == "0 0\n1 1\n2 0"

    def test_round_trip(self):
        mask = FrameMask(np.array([True, False, True, True]))
        back = read_mask(write_mask(mask))
        assert (back.dropped == mask.dropped).all()

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            read_mask("")

    def test_gap_rejected(self):
        with pytest.raises(FormatError):
            read_mask("0 0\n2 1")

    def test_duplicate_rejected(self):
        with pytest.raises(FormatError):
            read_mask("0 0\n0 1")

    def test_huge_index_gives_short_message(self):
        # Listing every missing index used to build a million-entry set.
        with pytest.raises(FormatError) as excinfo:
            read_mask("0 1\n1000000 0")
        assert len(str(excinfo.value)) < 500

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
