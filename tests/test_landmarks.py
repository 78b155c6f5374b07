import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landmark_frames import (
    ANNOTATION_MODES,
    DEFAULT_TIMIT_MANNERS,
    LANDMARK_TYPES,
    AnnotationConfig,
    EmptyInput,
    FormatError,
    InvalidConfig,
    LandmarkSet,
    PhoneAlignment,
    UnknownPhone,
    annotate,
    landmark_fraction,
    landmark_map,
    read_landmarks,
    write_landmarks,
)
from landmark_frames.cli import main
from landmark_frames.corpus_io import MANNERS as MANNER_INVENTORY
from oracles import reference_annotate, reference_frame_map, reference_landmark_frames

MANNERS = {
    "iy": "vowel",
    "w": "glide",
    "s": "fricative",
    "p": "stop",
    "m": "nasal",
    "ch": "affricate",
    "sil": "silence",
    "x": "other",
}


def events(alignment, config=None):
    return annotate(alignment, MANNERS, config or AnnotationConfig()).events


class TestBoundaryMode:
    def test_fricative(self):
        got = events(PhoneAlignment("u", [("sil", 0, 10), ("s", 10, 20)]))
        assert got == [(10, "Fc"), (19, "Fr")]

    def test_vowel_pivot_middle(self):
        assert events(PhoneAlignment("u", [("iy", 0, 10)])) == [(4, "V")]

    def test_glide_pivot(self):
        assert events(PhoneAlignment("u", [("w", 0, 7)])) == [(3, "G")]

    def test_affricate_triple(self):
        got = events(PhoneAlignment("u", [("sil", 0, 4), ("ch", 4, 9)]))
        assert got == [(4, "Fc"), (4, "Sr"), (8, "Fr")] or got == [
            (4, "Sr"),
            (4, "Fc"),
            (8, "Fr"),
        ]

    def test_stop_and_nasal_pairs(self):
        assert events(PhoneAlignment("u", [("p", 0, 6)])) == [(0, "Sc"), (5, "Sr")]
        assert events(PhoneAlignment("u", [("m", 0, 6)])) == [(0, "Nc"), (5, "Nr")]

    def test_silence_emits_nothing(self):
        assert events(PhoneAlignment("u", [("sil", 0, 9)])) == []

    def test_unknown_phone(self):
        with pytest.raises(UnknownPhone):
            events(PhoneAlignment("u", [("zz", 0, 4)]))


class TestMannerChangeMerge:
    def test_nasal_stop_junction(self):
        got = events(PhoneAlignment("u", [("m", 0, 10), ("p", 10, 20)]))
        assert got == [(0, "Nc"), (10, "MC"), (19, "Sr")]

    def test_same_manner_not_merged(self):
        got = events(PhoneAlignment("u", [("p", 0, 10), ("p", 10, 20)]))
        assert got == [(0, "Sc"), (9, "Sr"), (10, "Sc"), (19, "Sr")]

    def test_vowel_junction_not_merged(self):
        got = events(PhoneAlignment("u", [("m", 0, 10), ("iy", 10, 20)]))
        assert got == [(0, "Nc"), (9, "Nr"), (14, "V")]

    def test_merge_disabled(self):
        got = events(
            PhoneAlignment("u", [("m", 0, 10), ("p", 10, 20)]),
            AnnotationConfig(merge_mc=False),
        )
        assert got == [(0, "Nc"), (9, "Nr"), (10, "Sc"), (19, "Sr")]

    def test_affricate_chain_merges_both_junctions(self):
        got = events(PhoneAlignment("u", [("s", 0, 6), ("m", 6, 12)]))
        assert got == [(0, "Fc"), (6, "MC"), (11, "Nr")]


class TestOffsetMode:
    def test_start_and_end_offsets(self):
        # duration 20: start events move to a + round(6.6) = a + 7,
        # end events to b - 1 - round(4.0) = b - 5.
        got = events(PhoneAlignment("u", [("s", 0, 20)]), AnnotationConfig(mode="offset"))
        assert got == [(7, "Fc"), (15, "Fr")]

    def test_pivot_unmoved(self):
        got = events(PhoneAlignment("u", [("iy", 0, 20)]), AnnotationConfig(mode="offset"))
        assert got == [(9, "V")]

    def test_clamped_inside_segment(self):
        got = events(PhoneAlignment("u", [("s", 0, 2)]), AnnotationConfig(mode="offset"))
        assert got == [(1, "Fc"), (1, "Fr")]

    def test_mc_stays_at_junction(self):
        got = events(
            PhoneAlignment("u", [("m", 0, 10), ("p", 10, 20)]),
            AnnotationConfig(mode="offset"),
        )
        assert (10, "MC") in got

    def test_bad_mode(self):
        with pytest.raises(InvalidConfig):
            AnnotationConfig(mode="midpoint")

    def test_negative_experiment_radius_refused(self, tmp_path, capsys):
        # A radius comes only from a strategy part's r=; a config-wide one is an unknown key.
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({"widen_radius": -1}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "unknown config keys: ['widen_radius']" in capsys.readouterr().err

    def test_annotate_cli_negative_radius_exits_1_and_writes_nothing(self, tmp_path, capsys):
        align = tmp_path / "u.align"
        align.write_text("0 10 m\n10 20 p\n")
        out = tmp_path / "lms"
        assert main(["annotate", "--align", str(align), "--radius", "-1", "--out", str(out)]) == 1
        assert "radius must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


def _alignment(segments):
    """PhoneAlignment of (phone, frames) pairs laid end to end from frame 0."""
    spans, start = [], 0
    for phone, frames in segments:
        spans.append((phone, start, start + frames))
        start += frames
    return PhoneAlignment("u", spans)


# Affricates next to every other consonant manner, on both sides, some a frame long.
AFFRICATE_RUN = [("ch", 1), ("s", 1), ("ch", 2), ("p", 3), ("ch", 1), ("m", 2), ("ch", 4)]


class TestMannerEventsTable:
    """annotate places the events of the if-chain it replaced, in the same order."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(sorted(MANNERS)), st.integers(1, 25)), min_size=1, max_size=12
        ),
        st.sampled_from(ANNOTATION_MODES),
        st.booleans(),
    )
    @example(AFFRICATE_RUN, "boundary", True)
    @example(AFFRICATE_RUN, "offset", True)
    @example([("m", 25), ("ch", 25), ("ch", 1), ("x", 3), ("iy", 2), ("w", 1)], "offset", False)
    def test_annotate_equals_if_chain(self, segments, mode, merge_mc):
        alignment = _alignment(segments)
        config = AnnotationConfig(mode=mode, merge_mc=merge_mc)
        want = reference_annotate(alignment, MANNERS, config).events
        assert annotate(alignment, MANNERS, config).events == want

    def test_every_manner_is_drawn(self):
        assert sorted(set(MANNERS.values())) == sorted(MANNER_INVENTORY)


class TestEventCounts:
    def test_per_manner_event_counts(self):
        segs = [("iy", 0, 9), ("s", 9, 18), ("iy", 18, 27), ("ch", 27, 36), ("iy", 36, 45)]
        got = events(PhoneAlignment("u", segs))
        by_seg = {"iy": 0, "s": 0, "ch": 0}
        for frame, _ in got:
            for phone, a, b in segs:
                if a <= frame < b:
                    by_seg[phone] += 1
        assert by_seg["s"] == 2 and by_seg["ch"] == 3 and by_seg["iy"] == 3

    def test_empty_alignment_rejected_at_construction(self):
        from landmark_frames import MalformedAlignment

        with pytest.raises(MalformedAlignment):
            PhoneAlignment("u", [])


def landmarks_at(*frames):
    return LandmarkSet("u", [(f, "V") for f in frames])


def marked_frames(landmarks, num_frames, radius=0):
    return np.flatnonzero(landmark_map(landmarks, num_frames, radius)).tolist()


class TestFrameSets:
    def test_single_event_radius_zero(self):
        assert marked_frames(landmarks_at(4), 10) == [4]

    def test_radius_clamped(self):
        assert marked_frames(LandmarkSet("u", [(0, "Fc")]), 10, 1) == [0, 1]

    def test_empty_events(self):
        marked = landmark_map(LandmarkSet("u", []), 10)
        assert marked.shape == (10,) and not marked.any()

    def test_overlapping_widened_events_dedup(self):
        lms = LandmarkSet("u", [(3, "V"), (4, "Fc")])
        assert marked_frames(lms, 10, 1) == [2, 3, 4, 5]

    def test_frame_map(self):
        marked = landmark_map(landmarks_at(0, 2), 4)
        assert marked.dtype == bool and marked.tolist() == [True, False, True, False]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 30).flatmap(lambda T: st.tuples(
            st.just(T),
            st.lists(
                st.tuples(st.integers(-5, T + 5), st.sampled_from(LANDMARK_TYPES)), max_size=12
            ),
            st.integers(0, 3),
            st.booleans(),
        ))
    )
    @example((0, [], 0, False))
    @example((10, [], 2, False))
    @example((10, [(12, "V"), (13, "Fc")], 3, False))
    @example((10, [(-2, "V"), (9, "MC")], 2, True))
    @example((10, [(2**60, "V"), (3, "V")], 2, False))
    @example((10, [(2**60, "V")], 10**30, False))
    @example((10, [(4, "V")], 2**61 + 5, False))
    def test_landmark_frames_equals_event_loop(self, case):
        T, events, radius, numpy_ints = case
        lms = LandmarkSet("u", [])
        # Assigned directly, so frames keep their type and may be negative.
        lms.events = [(np.int64(f) if numpy_ints else f, k) for f, k in events]
        want = reference_frame_map(reference_landmark_frames(lms, T, radius), T)
        got = landmark_map(lms, T, radius)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_huge_frames_are_refused_at_read(self):
        lms = read_landmarks(f"{2**60} V\n3 V")
        assert marked_frames(lms, 10, 2) == [1, 2, 3, 4, 5]
        with pytest.raises(FormatError, match="too large"):
            read_landmarks(f"{2**60 + 1} V")

    def test_fraction(self):
        lms = LandmarkSet("u", [(2, "V"), (7, "Fc")])
        assert landmark_fraction(lms, 10) == 0.2

    def test_fraction_no_landmarks(self):
        assert landmark_fraction(LandmarkSet("u", []), 10) == 0.0

    def test_fraction_empty_utterance(self):
        with pytest.raises(EmptyInput):
            landmark_fraction(LandmarkSet("u", []), 0)


class TestIO:
    def test_round_trip(self):
        lms = LandmarkSet("u", [(0, "Nc"), (10, "MC"), (19, "Sr")])
        back = read_landmarks(write_landmarks(lms), "u")
        assert back.events == lms.events

    def test_default_table_covers_timit_inventory(self):
        assert len(DEFAULT_TIMIT_MANNERS) == 61
        assert DEFAULT_TIMIT_MANNERS["iy"] == "vowel"
        assert DEFAULT_TIMIT_MANNERS["h#"] == "silence"
        assert DEFAULT_TIMIT_MANNERS["pcl"] == "silence"


def test_annotation_deterministic():
    a = PhoneAlignment("u", [("m", 0, 10), ("s", 10, 20), ("iy", 20, 30)])
    first = annotate(a, MANNERS, AnnotationConfig())
    second = annotate(a, MANNERS, AnnotationConfig())
    assert first.events == second.events
