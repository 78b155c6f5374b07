"""File formats and core frame-indexed types.

Everything here is a pure parser/serializer: values are validated once at
construction, their arrays are frozen, and round-tripping any artifact
through its file format is the identity.
"""

import functools
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, MalformedAlignment, ParseError

NEG_INF = float("-inf")

MATRIX_MAGIC = b"LLM1"

GENDERS = ("F", "M", "unknown")

# Analysis frames advance 160 samples (10 ms at 16 kHz).
FRAME_SHIFT = 160

MANNERS = (
    "vowel",
    "glide",
    "fricative",
    "affricate",
    "nasal",
    "stop",
    "silence",
    "other",
)


@dataclass
class PhoneAlignment:
    """Contiguous, non-overlapping phone segments covering frames [0, T)."""

    utterance_id: str
    segments: list  # of (phone: str, start_frame: int, end_frame: int)
    speaker_id: str = "unknown"
    gender: str = "unknown"

    def __post_init__(self):
        if self.gender not in GENDERS:
            raise MalformedAlignment(f"bad gender {self.gender!r}")
        if not self.segments:
            raise MalformedAlignment(f"{self.utterance_id}: alignment has no segments")
        self.segments = [(str(p), int(a), int(b)) for p, a, b in self.segments]
        prev_end = 0
        for phone, start, end in self.segments:
            if end <= start:
                raise MalformedAlignment(
                    f"{self.utterance_id}: empty segment {phone} [{start},{end})"
                )
            if start != prev_end:
                raise MalformedAlignment(
                    f"{self.utterance_id}: segment {phone} starts at {start}, expected {prev_end}"
                )
            prev_end = end

    @property
    def num_frames(self) -> int:
        return self.segments[-1][2]

    def phones(self) -> list:
        return [phone for phone, _, _ in self.segments]


@dataclass
class ScoreMatrix:
    """T x S per-frame, per-senone log-likelihoods. NEG_INF is the only
    permitted non-finite value and is absorbing in sums."""

    utterance_id: str
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise FormatError(f"score matrix must be T x S with T,S >= 1, got {values.shape}")
        bad = ~(np.isfinite(values) | (values == NEG_INF))
        if bad.any():
            t, s = np.argwhere(bad)[0]
            raise FormatError(f"non-finite non-sentinel value at frame {t}, senone {s}")
        values = values.copy() if values.flags.writeable else values
        values.setflags(write=False)
        self.values = values

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def S(self) -> int:
        return self.values.shape[1]


@dataclass
class FrameMask:
    """Per-frame drop indicator; dropped[t] == True means g(t) = 1."""

    dropped: np.ndarray

    def __post_init__(self):
        dropped = np.asarray(self.dropped, dtype=bool)
        if dropped.ndim != 1 or dropped.shape[0] < 1:
            raise FormatError("mask needs at least one frame")
        dropped = dropped.copy() if dropped.flags.writeable else dropped
        dropped.setflags(write=False)
        self.dropped = dropped

    @property
    def T(self) -> int:
        return self.dropped.shape[0]

    @property
    def n_dropped(self) -> int:
        return int(self.dropped.sum())

    @property
    def drop_rate(self) -> float:
        return self.n_dropped / self.T

    def dropped_frames(self) -> np.ndarray:
        return np.flatnonzero(self.dropped)


@dataclass
class Utterance:
    """One utterance: its reference alignment and its score matrix."""

    alignment: PhoneAlignment
    matrix: ScoreMatrix


@dataclass
class Corpus:
    """A decoding corpus, generated by synth.gen_corpus or read by
    experiment.load_corpus_dir. model is a decoder.TransitionModel."""

    model: object
    manner_table: dict
    utterances: list  # of Utterance


def line_fields(text: str):
    """Yield (line number, fields) for each non-blank line of text.

    The one line rule of every text input but the synth config: fields are
    split on whitespace, blank and whitespace-only lines are skipped, and
    line numbers count every line of the file, blank ones included.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields:
            yield lineno, fields


def records(text: str, layout: str, error=FormatError):
    """line_fields(text), the record rule of every tabular text input: a
    line whose field count is not that of layout raises error naming the line.
    """
    width = len(layout.split())
    for lineno, fields in line_fields(text):
        if len(fields) != width:
            raise error(f"line {lineno}: expected {layout!r}, got {' '.join(fields)!r}")
        yield lineno, fields


def write_float_row(values) -> str:
    """One line of shortest-round-trip floats, as read_float_row reads it back."""
    return " ".join(repr(float(v)) for v in values)


def read_float_row(lineno: int, fields: list, width: int) -> list:
    """The width floats of one line's fields; an error names the line."""
    if len(fields) != width:
        raise FormatError(f"line {lineno}: expected {width} values, got {len(fields)}")
    try:
        return [float(field) for field in fields]
    except ValueError:
        raise FormatError(f"line {lineno}: unparseable float in {' '.join(fields)!r}") from None


def parse_alignment(
    text: str,
    unit: str = "frames",
    utterance_id: str = "",
    speaker_id: str = "unknown",
    gender: str = "unknown",
) -> PhoneAlignment:
    """Parse "start end phone" lines into a frame-indexed PhoneAlignment.

    With unit="samples" both endpoints are converted once via
    floor(b / FRAME_SHIFT); everything downstream is frame-synchronous.
    """
    if unit not in ("frames", "samples"):
        raise ParseError(f"unknown unit {unit!r}")
    segments = []
    for lineno, (start, end, phone) in records(text, "start end phone", ParseError):
        try:
            start, end = int(start), int(end)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer boundary in '{start} {end}'") from None
        if unit == "samples":
            start, end = start // FRAME_SHIFT, end // FRAME_SHIFT
        segments.append((phone, start, end))
    return PhoneAlignment(utterance_id, segments, speaker_id=speaker_id, gender=gender)


def format_alignment(alignment: PhoneAlignment) -> str:
    """Serialize an alignment back to "start end phone" lines (frame unit)."""
    return "\n".join(f"{a} {b} {p}" for p, a, b in alignment.segments)


def write_score_matrix(matrix: ScoreMatrix) -> bytes:
    """Binary layout: magic "LLM1", u32-LE T, u32-LE S, T*S f64-LE row-major."""
    header = MATRIX_MAGIC + struct.pack("<II", matrix.T, matrix.S)
    return header + matrix.values.astype("<f8", copy=False).tobytes(order="C")


def read_score_matrix(data: bytes, utterance_id: str = "") -> ScoreMatrix:
    if len(data) < 12:
        raise FormatError(f"matrix payload truncated at {len(data)} bytes")
    if data[:4] != MATRIX_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MATRIX_MAGIC!r}")
    t, s = struct.unpack("<II", data[4:12])
    expected = 12 + 8 * t * s
    if len(data) != expected:
        raise FormatError(f"expected {expected} bytes for {t}x{s} matrix, got {len(data)}")
    if t < 1 or s < 1:
        raise FormatError(f"matrix must be at least 1x1, header says {t}x{s}")
    values = np.frombuffer(data, dtype="<f8", offset=12).reshape(t, s)
    return ScoreMatrix(utterance_id, values)


def write_score_matrix_text(matrix: ScoreMatrix) -> str:
    """Text layout: header "T S", then T rows of S shortest-round-trip floats."""
    return "\n".join([f"{matrix.T} {matrix.S}", *map(write_float_row, matrix.values)]) + "\n"


def read_score_matrix_text(text: str, utterance_id: str = "") -> ScoreMatrix:
    rows = line_fields(text)
    lineno, header = next(rows, (0, []))
    if not header:
        raise FormatError("empty matrix text")
    try:
        t, s = map(int, header)
    except ValueError:
        raise FormatError(f"line {lineno}: bad matrix header {' '.join(header)!r}") from None
    if t < 1 or s < 1:
        raise FormatError(f"line {lineno}: matrix must be at least 1x1, header says {t}x{s}")
    # Each row's width is checked as it is read, so the header alone never sizes an allocation.
    values = [read_float_row(n, fields, s) for n, fields in rows]
    if len(values) != t:
        raise FormatError(f"line {lineno}: header says {t} rows, got {len(values)}")
    return ScoreMatrix(utterance_id, np.array(values, dtype=np.float64))


@functools.cache
def _mask_lines(capacity: int) -> tuple:
    """("t 0", "t 1") for every frame t < capacity; one table per power of two."""
    return tuple((f"{t} 0", f"{t} 1") for t in range(capacity))


def write_mask(mask: FrameMask) -> str:
    """One line per frame: "t 0|1" where 1 marks a dropped frame."""
    lines = _mask_lines(1 << (mask.T - 1).bit_length())
    return "\n".join(map(operator.getitem, lines, mask.dropped.tolist()))


def write_manner_table(manners: dict) -> str:
    return "\n".join(f"{phone} {manner}" for phone, manner in sorted(manners.items()))


def read_manner_table(text: str) -> dict:
    """Parse "phone manner" lines; manner names outside the inventory are a
    load-time error."""
    table = {}
    for lineno, (phone, manner) in records(text, "phone manner"):
        if manner not in MANNERS:
            raise FormatError(f"line {lineno}: unknown manner {manner!r}")
        if phone in table:
            raise FormatError(f"line {lineno}: duplicate phone {phone!r}")
        table[phone] = manner
    return table


def format_csv(header, rows, comments=()) -> str:
    """CSV text: one "# " line per comment, the header, then one line per row.

    A None cell is empty; any other cell is str(cell), which for a float
    is its shortest round-trip form. Cells are joined unquoted, so a cell
    holding a comma does not parse back as one cell.
    """
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("" if cell is None else str(cell) for cell in row))
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text: str) -> bytes:
    """atomic_write_bytes of text in UTF-8; returns the bytes written."""
    data = text.encode("utf-8")
    atomic_write_bytes(path, data)
    return data


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via temp file + rename so readers never observe partial output."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(16).hex()}")
    # Mode 0o666 less the umask, as open() makes it; mkstemp would make it 0o600.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
