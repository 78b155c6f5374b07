"""Acoustic landmark annotation derived from phone alignments.

Each phone segment [a, b) contributes events determined by its manner
class: vowels and glides get a single pivot at the temporal midpoint,
consonants get a closure event at the segment start and a release event
at the last frame. When two consonantal segments of different manners
abut, the transition is a single articulatory event, so the release of
the first and the closure of the second collapse into one MC (manner
change) landmark at the junction frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, FormatError, InvalidConfig, UnknownPhone

LANDMARK_TYPES = ("V", "G", "Fc", "Fr", "Sc", "Sr", "Nc", "Nr", "MC")

# Manners that participate in MC merging at segment junctions.
CONSONANTAL = ("fricative", "affricate", "nasal", "stop")

CLOSURE_TYPES = ("Fc", "Sc", "Nc")
RELEASE_TYPES = ("Fr", "Sr", "Nr")

# TIMIT 61-phone inventory grouped by manner. Closures, pauses, and
# epenthetic silence carry no landmarks.
DEFAULT_TIMIT_MANNERS = {
    **{p: "vowel" for p in (
        "aa", "ae", "ah", "ao", "aw", "ax", "ax-h", "axr", "ay", "eh",
        "er", "ey", "ih", "ix", "iy", "ow", "oy", "uh", "uw", "ux")},
    **{p: "glide" for p in ("l", "r", "el", "w", "y", "hh", "hv")},
    **{p: "nasal" for p in ("m", "n", "ng", "em", "en", "eng", "nx")},
    **{p: "fricative" for p in ("s", "sh", "z", "zh", "f", "th", "v", "dh")},
    **{p: "affricate" for p in ("jh", "ch")},
    **{p: "stop" for p in ("b", "d", "g", "p", "t", "k", "dx", "q")},
    **{p: "silence" for p in (
        "bcl", "dcl", "gcl", "pcl", "tcl", "kcl", "pau", "epi", "h#")},
}


# In offset mode, start events move into the segment by round(0.33 * dur)
# frames and end events move back by round(0.20 * dur), clamped to the
# segment. Pivots and MC events stay put.
START_OFFSET_FRAC = 0.33
END_OFFSET_FRAC = 0.20

ANNOTATION_MODES = ("boundary", "offset")


@dataclass
class AnnotationConfig:
    """Landmark placement options."""

    mode: str = "boundary"
    widen_radius: int = 0
    merge_mc: bool = True

    def __post_init__(self):
        if self.mode not in ANNOTATION_MODES:
            raise InvalidConfig(f"mode must be one of {ANNOTATION_MODES}, got {self.mode!r}")
        if self.widen_radius < 0:
            raise InvalidConfig(f"widen_radius must be >= 0, got {self.widen_radius}")


@dataclass
class LandmarkSet:
    """Landmark events for one utterance, sorted by frame."""

    utterance_id: str
    events: list  # of (frame: int, type: str)

    def __post_init__(self):
        for frame, kind in self.events:
            if kind not in LANDMARK_TYPES:
                raise FormatError(f"unknown landmark type {kind!r}")
            if frame < 0:
                raise FormatError(f"negative landmark frame {frame}")
        # Stable: events at the same frame keep their derivation order.
        self.events = sorted(
            [(int(f), k) for f, k in self.events], key=lambda e: e[0]
        )


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def annotate(alignment, manner_table: dict, config: AnnotationConfig | None = None) -> LandmarkSet:
    """Annotate one aligned utterance with landmark events.

    Args:
        alignment: a PhoneAlignment.
        manner_table: total phone -> manner map; missing phones raise
            UnknownPhone.
        config: placement options; defaults to closure/release at the
            segment edges.

    Returns:
        LandmarkSet with events sorted by frame.
    """
    if config is None:
        config = AnnotationConfig()
    if not alignment.segments:
        raise EmptyInput(f"{alignment.utterance_id}: nothing to annotate")

    manners = []
    for phone, _, _ in alignment.segments:
        if phone not in manner_table:
            raise UnknownPhone(f"{alignment.utterance_id}: no manner for phone {phone!r}")
        manners.append(manner_table[phone])

    # Per-segment events tagged with their placement role so the MC merge
    # and the offset pass can act on roles, not concrete frames.
    per_segment = []
    for (phone, a, b), manner in zip(alignment.segments, manners):
        events = []
        if manner == "vowel":
            events.append(["pivot", "V"])
        elif manner == "glide":
            events.append(["pivot", "G"])
        elif manner == "fricative":
            events.append(["start", "Fc"])
            events.append(["end", "Fr"])
        elif manner == "stop":
            events.append(["start", "Sc"])
            events.append(["end", "Sr"])
        elif manner == "nasal":
            events.append(["start", "Nc"])
            events.append(["end", "Nr"])
        elif manner == "affricate":
            # Stop release into frication at onset, frication release at
            # the end; there is no separate closure landmark.
            events.append(["start", "Sr"])
            events.append(["start", "Fc"])
            events.append(["end", "Fr"])
        per_segment.append(events)

    mc_frames = []
    if config.merge_mc:
        for i in range(len(manners) - 1):
            left, right = manners[i], manners[i + 1]
            if left in CONSONANTAL and right in CONSONANTAL and left != right:
                junction = alignment.segments[i + 1][1]
                per_segment[i] = [
                    e for e in per_segment[i] if not (e[0] == "end" and e[1] in RELEASE_TYPES)
                ]
                per_segment[i + 1] = [
                    e for e in per_segment[i + 1] if not (e[0] == "start" and e[1] in CLOSURE_TYPES)
                ]
                mc_frames.append(junction)

    offsets = config.mode == "offset"
    events = []
    for (phone, a, b), seg_events in zip(alignment.segments, per_segment):
        duration = b - a
        for role, kind in seg_events:
            if role == "pivot":
                frame = (a + b - 1) // 2
            elif role == "start":
                frame = a
                if offsets:
                    frame = a + _round_half_up(START_OFFSET_FRAC * duration)
            else:
                frame = b - 1
                if offsets:
                    frame = b - 1 - _round_half_up(END_OFFSET_FRAC * duration)
            frame = min(max(frame, a), b - 1)
            events.append((frame, kind))
    events.extend((frame, "MC") for frame in mc_frames)
    return LandmarkSet(alignment.utterance_id, events)


def landmark_frames(landmarks: LandmarkSet, num_frames: int, radius: int = 0) -> np.ndarray:
    """Sorted unique frame indices within +/- radius of any landmark event.

    Events outside [0, num_frames) contribute only their in-range widened
    frames.
    """
    if radius < 0:
        raise InvalidConfig(f"radius must be >= 0, got {radius}")
    marked = np.zeros(num_frames, dtype=bool)
    for frame, _ in landmarks.events:
        lo = max(frame - radius, 0)
        hi = min(frame + radius + 1, num_frames)
        if lo < hi:
            marked[lo:hi] = True
    return np.flatnonzero(marked)


def frame_map(frames, num_frames: int) -> np.ndarray:
    """Boolean frame map from a collection of frame indices."""
    marked = np.zeros(num_frames, dtype=bool)
    for frame in frames:
        if not 0 <= frame < num_frames:
            raise InvalidConfig(f"frame {frame} outside [0, {num_frames})")
        marked[int(frame)] = True
    return marked


def landmark_fraction(landmarks: LandmarkSet, num_frames: int, radius: int = 0) -> float:
    """Fraction of this utterance's frames within radius of a landmark."""
    if num_frames < 1:
        raise EmptyInput("utterance has no frames")
    return len(landmark_frames(landmarks, num_frames, radius)) / num_frames


def write_landmarks(landmarks: LandmarkSet) -> str:
    return "\n".join(f"{frame} {kind}" for frame, kind in landmarks.events)


def read_landmarks(text: str, utterance_id: str = "") -> LandmarkSet:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'frame TYPE', got {line!r}")
        try:
            frame = int(fields[0])
        except ValueError:
            raise FormatError(f"line {lineno}: bad frame index in {line!r}") from None
        events.append((frame, fields[1]))
    return LandmarkSet(utterance_id, events)
