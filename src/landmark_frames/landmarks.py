"""Acoustic landmark annotation derived from phone alignments.

MANNER_EVENTS lists the events each manner class places in a phone
segment [a, b), in derivation order: vowels (V) and glides (G) get a
single pivot at the temporal midpoint; fricatives (Fc, Fr), stops (Sc,
Sr) and nasals (Nc, Nr) get a closure at the segment start and a
release at the last frame; an affricate gets a stop release (Sr) and a
frication closure (Fc) at the start and a frication release (Fr) at the
end. Silence and other manners get none. When two consonantal segments
of different manners abut, the transition is a single articulatory
event, so the release ending the first and the closures starting the
second collapse into one MC (manner change) landmark at the junction
frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus_io import records
from .errors import EmptyInput, FormatError, InvalidConfig, UnknownPhone

LANDMARK_TYPES = ("V", "G", "Fc", "Fr", "Sc", "Sr", "Nc", "Nr", "MC")

# (placement, type) events per manner; manners not listed place none.
MANNER_EVENTS = {
    "vowel": (("pivot", "V"),),
    "glide": (("pivot", "G"),),
    "fricative": (("start", "Fc"), ("end", "Fr")),
    "stop": (("start", "Sc"), ("end", "Sr")),
    "nasal": (("start", "Nc"), ("end", "Nr")),
    "affricate": (("start", "Sr"), ("start", "Fc"), ("end", "Fr")),
}

# Manners that participate in MC merging at segment junctions.
CONSONANTAL = ("fricative", "affricate", "nasal", "stop")

# The start events an MC event absorbs. It absorbs every end event, since each is a release.
CLOSURE_TYPES = ("Fc", "Sc", "Nc")

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

# Frames past this are refused, so that landmark_map can cap its radius and work in int64.
_MAX_FRAME = 2**60


@dataclass
class AnnotationConfig:
    """Landmark placement options."""

    mode: str = "boundary"
    merge_mc: bool = True

    def __post_init__(self):
        if self.mode not in ANNOTATION_MODES:
            raise InvalidConfig(f"mode must be one of {ANNOTATION_MODES}, got {self.mode!r}")


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
            if frame > _MAX_FRAME:
                raise FormatError(f"landmark frame {frame} is too large")
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
    # mc[i]: the junction before segment i is one MC event; the utterance edges are none.
    mc = [False] + [
        config.merge_mc and left in CONSONANTAL and right in CONSONANTAL and left != right
        for left, right in zip(manners, manners[1:])
    ] + [False]

    offsets = config.mode == "offset"
    events = []
    for i, ((_, a, b), manner) in enumerate(zip(alignment.segments, manners)):
        for placement, kind in MANNER_EVENTS.get(manner, ()):
            if placement == "pivot":
                frame = (a + b - 1) // 2
            elif placement == "start":
                if mc[i] and kind in CLOSURE_TYPES:
                    continue  # absorbed by the MC event at a
                frame = a + _round_half_up(START_OFFSET_FRAC * (b - a)) if offsets else a
            else:
                if mc[i + 1]:
                    continue  # absorbed by the MC event at b
                frame = b - 1 - _round_half_up(END_OFFSET_FRAC * (b - a)) if offsets else b - 1
            events.append((min(max(frame, a), b - 1), kind))
        # After the segment's own events, so the stable sort keeps it last at frame a.
        if mc[i]:
            events.append((a, "MC"))
    return LandmarkSet(alignment.utterance_id, events)


def landmark_map(landmarks: LandmarkSet, num_frames: int, radius: int = 0) -> np.ndarray:
    """Boolean map of the frames within +/- radius of any landmark event.

    Events outside [0, num_frames) mark only their in-range widened
    frames.
    """
    if radius < 0:
        raise InvalidConfig(f"radius must be >= 0, got {radius}")
    # Past _MAX_FRAME + num_frames every event marks every frame, so the cap changes nothing.
    radius = min(radius, 2 * _MAX_FRAME)
    frames = np.array([frame for frame, _ in landmarks.events], dtype=np.int64)
    # Each event covers [lo, hi), clipped to the utterance, so an event outside it opens and
    # closes at one index; a frame is marked where more intervals have opened than closed.
    lo = np.clip(frames - radius, 0, num_frames)
    hi = np.clip(frames + radius + 1, 0, num_frames)
    depth = np.bincount(lo, minlength=num_frames + 1) - np.bincount(hi, minlength=num_frames + 1)
    return depth[:num_frames].cumsum() > 0


def landmark_fraction(landmarks: LandmarkSet, num_frames: int, radius: int = 0) -> float:
    """Fraction of this utterance's frames within radius of a landmark."""
    if num_frames < 1:
        raise EmptyInput("utterance has no frames")
    return int(landmark_map(landmarks, num_frames, radius).sum()) / num_frames


def write_landmarks(landmarks: LandmarkSet) -> str:
    return "\n".join(f"{frame} {kind}" for frame, kind in landmarks.events)


def read_landmarks(text: str, utterance_id: str = "") -> LandmarkSet:
    events = []
    for lineno, (frame, kind) in records(text, "frame TYPE"):
        try:
            events.append((int(frame), kind))
        except ValueError:
            raise FormatError(f"line {lineno}: bad frame index in '{frame} {kind}'") from None
    return LandmarkSet(utterance_id, events)
