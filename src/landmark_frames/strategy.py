"""Frame-drop masks, replacement methods, and emission weights.

A strategy decides which frames of a score matrix are dropped (a
FrameMask), what to write into the dropped rows before decoding (a
replacement method), and how surviving frames are weighted. Strategies
are described by compact strings such as

    identity
    regular:P=2,D=1,method=copy
    random:rate=0.5,method=fill_0
    random:match=keep,r=1,seed=7
    landmark:keep,r=1
    regular:P=3,D=2+landmark:keep,r=0
    hybrid:P=2,D=1,overweight=1.5
    overweight:factor=3.0,r=1

Parts joined by "+" are OR-combined frame-wise. The method= key picks
the replacement written into dropped rows (default copy). Any other key
appears at most once per part; the keep/drop shorthand counts as the
landmark mode= key. On a random part, r= widens the landmark frames that
match= counts, so it needs match=. Every number is finite and >= 0, and
rate is at most 1.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus_io import NEG_INF, FrameMask, ScoreMatrix
from .errors import InvalidConfig, InvalidPattern, ScoreOverflow, ShapeError
from .landmarks import landmark_map

REPLACEMENT_METHODS = ("copy", "fill_0", "fill_const", "upsample")

INTERP_TAPS = 17


def mask_regular(num_frames: int, period: int, drop: int) -> FrameMask:
    """Drop the first `drop` frames of every `period`-frame cycle.

    Either number may be any size: past num_frames + 1 it drops the same
    frames as num_frames + 1, so it is capped there before numpy, whose
    integers stop at 2**63, sees it.
    """
    if period < 2 or not (1 <= drop < period):
        raise InvalidPattern(f"regular mask needs 1 <= D < P with P >= 2, got P={period}, D={drop}")
    t = np.arange(num_frames)
    return FrameMask((t % min(period, num_frames + 1)) < min(drop, num_frames + 1))


def mask_random(num_frames: int, n_drop: int, seed: int) -> FrameMask:
    """Drop n_drop frames sampled uniformly without replacement.

    Asking for more drops than there are frames is an InvalidPattern.
    """
    if not 0 <= n_drop <= num_frames:
        raise InvalidPattern(f"cannot drop {n_drop} of {num_frames} frames")
    dropped = np.zeros(num_frames, dtype=bool)
    if n_drop:
        rng = np.random.default_rng(seed)
        dropped[rng.choice(num_frames, size=n_drop, replace=False)] = True
    return FrameMask(dropped)


def adjust_mask_to_rate(mask: FrameMask, target_n: int, protected=None, seed: int = 0) -> FrameMask:
    """Randomly add or remove drops until the mask hits an exact count.

    Only unprotected frames change: the result is a superset of the
    input drops when the count grows and a subset when it shrinks, so
    matched-rate comparisons perturb the mask as little as possible; a
    protected drop is never given back. protected, if given, is a boolean
    map of the mask's frames; anything else, frame indices included, is a
    ShapeError. Unreachable targets raise InvalidPattern.
    """
    prot = np.zeros(mask.T, dtype=bool) if protected is None else np.asarray(protected)
    if prot.dtype != bool or prot.shape != (mask.T,):
        raise ShapeError(
            f"protected must be a boolean map of shape ({mask.T},), got {prot.dtype} {prot.shape}"
        )
    if not 0 <= target_n <= mask.T:
        raise InvalidPattern(f"cannot drop {target_n} of {mask.T} frames")
    delta = target_n - mask.n_dropped
    if delta == 0:
        return FrameMask(mask.dropped)
    grow = delta > 0
    dropped = mask.dropped.copy()
    # Growing draws from kept frames, shrinking from drops; protected frames never change.
    pool = np.flatnonzero((dropped != grow) & ~prot)
    if pool.size < abs(delta):
        want, have = (f"{delta} more", "kept frames") if grow else (f"{-delta} fewer", "drops")
        raise InvalidPattern(f"need {want} drops but only {pool.size} unprotected {have}")
    rng = np.random.default_rng(seed)
    dropped[rng.choice(pool, size=abs(delta), replace=False)] = grow
    dropped.flags.writeable = False  # FrameMask keeps a read-only array without copying it
    return FrameMask(dropped)


@functools.cache
def design_interp_filter(period: int) -> np.ndarray:
    """Windowed-sinc taps for a drop-1-in-period mask (drops t = 0 mod P).

    INTERP_TAPS taps: cutoff pi/period, Hamming window, unit center tap
    with exact zeros on the rest of the retained coset, and the off-coset
    taps normalized so a constant input reconstructs exactly away from
    the edges. One read-only array per period is designed and reused.
    """
    if not 2 <= period <= 8:
        raise InvalidPattern(f"filter period must lie in [2, 8], got {period}")
    half = INTERP_TAPS // 2
    k = np.arange(-half, half + 1)
    h = np.sinc(k / period) * np.hamming(INTERP_TAPS)
    on_coset = k % period == 0
    h[on_coset] = 0.0
    h[half] = 1.0
    total = h[~on_coset].sum()
    if total <= 0.0:
        raise InvalidPattern(f"degenerate filter for period {period}")
    h[~on_coset] /= total
    h.flags.writeable = False
    return h


def _drop_coset_period(mask: FrameMask) -> int:
    """Period P of a drop-1-in-P mask (drops exactly t = 0 mod P)."""
    dropped = mask.dropped_frames()
    if dropped.size >= 2:
        gaps = np.diff(dropped)
        if (gaps != gaps[0]).any():
            raise InvalidPattern("upsample needs a regular drop-1-in-P mask")
        period = int(gaps[0])
    else:
        # A single drop at frame 0 is the P >= T degenerate case.
        period = mask.T
    expected = np.arange(0, mask.T, period)
    if dropped.size != expected.size or (dropped != expected).any():
        raise InvalidPattern("upsample needs drops at exactly t = 0 mod P")
    return period


def _fill_const_row(values: np.ndarray) -> np.ndarray:
    # Column means over every input frame, dropped rows included.
    return values.mean(axis=0)


def _upsample_rows(values: np.ndarray, period: int, taps: np.ndarray) -> np.ndarray:
    """Rebuild the dropped rows t = 0 mod period in one fold over the tap offsets.

    A dropped row is a left fold from 0.0, in ascending frame order, of
    (tap / window sum) * value over the kept frames of its window, and the
    window sum is a left fold in the same order. Each step of the fold is
    one offset, and it updates every dropped row at once: one gather takes
    every (offset, drop) source row, and a frame past the matrix edge gets
    a zero weight, so the in-range renormalization keeps DC gain 1 at the
    edges. A NEG_INF among a cell's window values makes it NEG_INF. A zero
    window sum copies the nearest kept row: frame 1 for frame 0, frame
    t - 1 otherwise. No BLAS call picks the summation order, so the bytes
    are the same on every CPU.
    """
    T, S = values.shape
    half = len(taps) // 2
    drops = np.arange(0, T, period)
    # Offsets on the drop coset land on dropped frames, so the fold skips them.
    offsets = np.array([k for k in range(-half, half + 1) if k % period])
    frames = drops + offsets[:, None]
    inside = (frames >= 0) & (frames < T)
    weights = np.where(inside, taps[offsets + half][:, None], 0.0)
    total = np.zeros(drops.size)
    for w in weights:
        total += w
    fallback = total == 0.0
    coef = np.divide(weights, total, out=np.zeros_like(weights), where=~fallback)
    # An (offset, drop, senone) cube of source values; frames past an edge
    # read the edge row, whose term the zero weight makes 0.
    terms = values.take(frames.clip(0, T - 1), axis=0)
    impossible = terms == NEG_INF
    np.copyto(terms, 0.0, where=impossible)
    terms *= coef[:, :, None]
    rows = np.zeros((drops.size, S))
    for term in terms:
        rows += term
    impossible &= inside[:, :, None]
    np.copyto(rows, NEG_INF, where=impossible.any(axis=0))
    t = drops[fallback]
    rows[fallback] = values[np.where(t > 0, t - 1, 1)]
    out = values.copy()
    out[drops] = rows
    return out


def apply_replacement(matrix: ScoreMatrix, mask: FrameMask, method: str) -> ScoreMatrix:
    """Rewrite dropped rows of a score matrix; kept rows are untouched.

    copy: repeat the most recent kept row (leading drops fall back to
    fill_const rows). fill_0: zero log-likelihood. fill_const: per-senone
    mean over all input frames. upsample: windowed-sinc interpolation
    from kept frames; the mask must drop exactly t = 0 mod P. A mask that
    drops nothing returns matrix itself.
    """
    if method not in REPLACEMENT_METHODS:
        raise InvalidPattern(f"unknown replacement method {method!r}")
    if mask.T != matrix.T:
        raise ShapeError(f"mask length {mask.T} != matrix frames {matrix.T}")
    dropped = mask.dropped
    if not dropped.any():
        return matrix
    if method in ("fill_0", "fill_const"):
        values = matrix.values.copy()
        values[dropped] = 0.0 if method == "fill_0" else _fill_const_row(matrix.values)
    elif method == "copy":
        # Each frame's most recent kept frame, or -1 before the first one;
        # the -1 rows are then overwritten by the fallback.
        last = np.maximum.accumulate(np.where(dropped, -1, np.arange(matrix.T)))
        values = matrix.values[last]
        leading = last < 0
        if leading.any():
            values[leading] = _fill_const_row(matrix.values)
    else:
        period = _drop_coset_period(mask)
        values = _upsample_rows(matrix.values, period, design_interp_filter(period))
    # values is this call's own array: read-only, ScoreMatrix validates it without a copy.
    values.flags.writeable = False
    return ScoreMatrix(matrix.utterance_id, values)


def apply_weights(matrix: ScoreMatrix, weights: np.ndarray) -> ScoreMatrix:
    """Scale each frame's log-likelihood row; NEG_INF entries stay NEG_INF.

    Unit weights change nothing, so they return matrix itself. A scaled
    score past the float range raises ScoreOverflow naming the utterance
    and the first frame that overflows.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (matrix.T,):
        raise ShapeError(f"weights shape {weights.shape} != ({matrix.T},)")
    if (weights < 0).any() or not np.isfinite(weights).all():
        raise InvalidConfig("weights must be finite and >= 0")
    if (weights == 1.0).all():  # 1.0 * v == v for every finite v and for NEG_INF
        return matrix
    possible = matrix.values != NEG_INF
    # 0 * NEG_INF is nan until np.where replaces it; an overflow is named below.
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.where(possible, weights[:, None] * matrix.values, NEG_INF)
    overflow = possible & np.isinf(scaled)
    if overflow.any():
        t = int(overflow.any(axis=1).argmax())
        raise ScoreOverflow(f"{matrix.utterance_id}: weighted score overflows at frame {t}")
    return ScoreMatrix(matrix.utterance_id, scaled)


# Every key each kind takes, in render order: key -> (type, required).
_KINDS = {
    "identity": {},
    "regular": {"P": (int, True), "D": (int, True)},
    "random": {
        "n": (int, False), "rate": (float, False), "match": (str, False),
        "r": (int, False), "seed": (int, False),
    },
    "landmark": {"mode": (str, True), "r": (int, False)},
    "hybrid": {"P": (int, True), "D": (int, True), "overweight": (float, True), "r": (int, False)},
    "overweight": {"factor": (float, True), "r": (int, False)},
}

# The key holding the weight factor of each kind that weights landmark frames.
WEIGHT_KEYS = {"hybrid": "overweight", "overweight": "factor"}


def reads_landmarks(kind: str, params: dict) -> bool:
    """Whether a strategy part depends on the utterance's landmark frames."""
    return kind in ("landmark", "hybrid", "overweight") or (kind == "random" and "match" in params)


@dataclass
class StrategySpec:
    """Parsed strategy string: OR-combined parts plus a replacement method."""

    raw: str
    parts: list  # of (kind, params dict)
    method: str = "copy"

    def needs_landmarks(self) -> bool:
        return any(reads_landmarks(kind, params) for kind, params in self.parts)

    def needs_rng(self) -> bool:
        return any(kind == "random" and "seed" not in params for kind, params in self.parts)

    def render(self) -> str:
        """Canonical strategy string that parses back to this spec."""
        chunks = []
        for kind, params in self.parts:
            items = []
            for key in _KINDS[kind]:
                if key in params:
                    value = params[key]
                    if key == "mode":
                        items.append(str(value))
                    elif isinstance(value, float):
                        # "+" joins parts, so exponents drop it: 1e+16 renders as 1e16.
                        items.append(f"{key}={value!r}".replace("e+", "e"))
                    else:
                        items.append(f"{key}={value}")
            chunks.append(kind + (":" + ",".join(items) if items else ""))
        if self.method != "copy":
            chunks[0] += ("," if ":" in chunks[0] else ":") + f"method={self.method}"
        return "+".join(chunks)


def parse_strategy(text: str) -> StrategySpec:
    """Parse a strategy string; see the module docstring for the grammar."""
    if "".join(text.splitlines()) != text:
        raise InvalidPattern(f"strategy string {text!r} holds a line break")
    raw = text.strip()
    if not raw:
        raise InvalidPattern("empty strategy string")
    parts = []
    method = None
    for chunk in raw.split("+"):
        kind, _, argstr = chunk.partition(":")
        kind = kind.strip()
        if kind not in _KINDS:
            raise InvalidPattern(f"unknown strategy kind {kind!r}")
        keys = _KINDS[kind]
        params = {}
        # "kind:" alone has no items; an empty item anywhere else is a bad token.
        for item in argstr.split(",") if argstr.strip() else ():
            key, eq, value = (piece.strip() for piece in item.partition("="))
            if not eq:
                if key not in ("keep", "drop"):
                    raise InvalidPattern(f"bad strategy token {item.strip()!r}")
                key, value = "mode", key  # the landmark mode shorthand
            if key == "method":
                if method is not None and method != value:
                    raise InvalidPattern("conflicting method= settings")
                if value not in REPLACEMENT_METHODS:
                    raise InvalidPattern(f"unknown replacement method {value!r}")
                method = value
                continue
            if key not in keys:
                raise InvalidPattern(f"bad item {item.strip()!r} for strategy kind {kind!r}")
            if key in params:
                raise InvalidPattern(f"key {key!r} given twice in strategy part {chunk.strip()!r}")
            try:
                params[key] = keys[key][0](value)
            except ValueError:
                raise InvalidPattern(f"bad value {value!r} for {kind}:{key}") from None
        missing = [key for key, (_, required) in keys.items() if required and key not in params]
        if missing:
            raise InvalidPattern(f"strategy {kind!r} missing {missing}")
        # landmark's mode and random's match both name a keep/drop regime.
        regime = params.get("mode", params.get("match", "keep"))
        if regime not in ("keep", "drop"):
            raise InvalidPattern(f"{kind} regime must be keep or drop, got {regime!r}")
        if kind == "random":
            sources = [key for key in ("rate", "n", "match") if key in params]
            if len(sources) != 1:
                raise InvalidPattern("random strategy needs exactly one of rate, n, or match")
            if "r" in params and "match" not in params:
                raise InvalidPattern("random r= widens landmark frames, so it needs match=")
        if "P" in params and not (params["P"] >= 2 and 1 <= params["D"] < params["P"]):
            raise InvalidPattern(
                f"{kind} needs 1 <= D < P with P >= 2, got P={params['P']}, D={params['D']}"
            )
        for key, value in params.items():
            if key == "rate" and not 0.0 <= value <= 1.0:
                raise InvalidPattern(f"rate must lie in [0, 1], got {value}")
            if not isinstance(value, str) and not 0 <= value < np.inf:
                raise InvalidPattern(f"{key} must be finite and >= 0, got {value}")
        parts.append((kind, params))
    return StrategySpec(raw, parts, method if method is not None else "copy")


def realize_strategy(
    spec: StrategySpec,
    num_frames: int,
    landmarks=None,
    rng: np.random.Generator | None = None,
):
    """Materialize a strategy for one utterance.

    Returns (FrameMask, weights, protected). Drops from all parts are
    OR-combined; weight factors multiply, and a product past the float
    range is an InvalidPattern. Random parts without an explicit seed draw
    one from rng. protected is the boolean map of the landmark frames a
    rate adjustment neither drops nor gives back: the OR of the landmark
    maps of every non-random part that reads landmarks. A random part
    reads landmarks only to count its drops, so it protects none: a
    matched control gives back landmark and other drops alike.
    """
    if spec.needs_landmarks() and landmarks is None:
        raise InvalidConfig(f"strategy {spec.raw!r} needs landmark annotations")
    if spec.needs_rng() and rng is None:
        raise InvalidConfig(f"strategy {spec.raw!r} needs an rng")
    dropped = np.zeros(num_frames, dtype=bool)
    weights = np.ones(num_frames, dtype=np.float64)
    protected = np.zeros(num_frames, dtype=bool)
    for kind, params in spec.parts:
        if reads_landmarks(kind, params):
            marked = landmark_map(landmarks, num_frames, params.get("r", 0))
            if kind != "random":
                protected |= marked
            # landmark's mode and random's match: the regime drops marked or ~marked.
            regime = params.get("mode", params.get("match"))
            if regime == "keep" and not marked.any():
                warnings.warn("landmark keep with no landmark frames drops every frame")
            regime_drops = marked if regime == "drop" else ~marked
        if kind in ("regular", "hybrid"):
            regular = mask_regular(num_frames, params["P"], params["D"]).dropped
            # hybrid never drops a landmark frame.
            dropped |= regular & ~marked if kind == "hybrid" else regular
        elif kind == "random":
            if "n" in params:
                n_drop = params["n"]
            elif "rate" in params:
                n_drop = int(np.floor(params["rate"] * num_frames + 0.5))
            else:
                n_drop = int(regime_drops.sum())
            seed = params.get("seed")
            if seed is None:
                seed = int(rng.integers(0, 2**63))
            dropped |= mask_random(num_frames, n_drop, seed).dropped
        elif kind == "landmark":
            dropped |= regime_drops
        if kind in WEIGHT_KEYS:
            with np.errstate(over="ignore", invalid="ignore"):  # checked once below
                weights[marked] *= params[WEIGHT_KEYS[kind]]
    if not np.isfinite(weights).all():
        raise InvalidPattern(f"weight factors of {spec.raw!r} multiply past the float range")
    return FrameMask(dropped), weights, protected
