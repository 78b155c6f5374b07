"""Frame-synchronous Viterbi decoding over senone HMMs.

The decoder consumes a (possibly re-weighted) score matrix and a senone
transition model and returns the single best state path. Path score is

    score = init(s_1) + m(1, s_1) + sum_t [ trans(s_{t-1}, s_t) + m(t, s_t) ]

where m is the score matrix after any replacement and weighting. Ties
are broken toward the lowest senone index at every step, so the
returned path is deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus_io import NEG_INF, ScoreMatrix
from .errors import (
    BeamCollapse,
    FormatError,
    InvalidConfig,
    ScoreOverflow,
    ShapeError,
    UnknownSenone,
)
from .strategy import apply_weights

NORMALIZATION_TOL = 1e-6


@dataclass
class TransitionModel:
    """Senone-level HMM topology in the log domain.

    init: (S,) log start probabilities. trans: (S, S) log transition
    probabilities, trans[i, j] = log p(j | i). senone_phones maps each
    senone index to the phone it belongs to.

    pred and pred_logp are the predecessor table built from trans: row j
    of pred lists the K senones that can move into j, live ones first
    in ascending index order, and pred_logp[j, k] = trans[pred[j, k], j].
    K is the largest number of live predecessors of any senone; shorter
    rows are padded with dead predecessors, whose log probability is
    NEG_INF.
    """

    init: np.ndarray
    trans: np.ndarray
    senone_phones: list
    pred: np.ndarray = field(init=False, repr=False)
    pred_logp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        init = np.asarray(self.init, dtype=np.float64)
        trans = np.asarray(self.trans, dtype=np.float64)
        if init.ndim != 1:
            raise ShapeError(f"init must be 1-d, got shape {init.shape}")
        s = init.shape[0]
        if trans.shape != (s, s):
            raise ShapeError(f"trans must be ({s}, {s}), got {trans.shape}")
        if len(self.senone_phones) != s:
            raise ShapeError(f"need {s} senone phone labels, got {len(self.senone_phones)}")
        for arr in (init, trans):
            if (~(np.isfinite(arr) | (arr == NEG_INF))).any():
                raise FormatError("transition model entries must be finite or -inf")
        if not (init > NEG_INF).any():
            raise FormatError("no senone can start a path")
        dead = ~((trans > NEG_INF).any(axis=1))
        if dead.any():
            raise FormatError(f"senone {int(np.flatnonzero(dead)[0])} has no successor")
        if abs(np.exp(init).sum() - 1.0) > NORMALIZATION_TOL:
            raise FormatError(f"init probabilities sum to {np.exp(init).sum()!r}, not 1")
        row_sums = np.exp(trans).sum(axis=1)
        off = np.flatnonzero(np.abs(row_sums - 1.0) > NORMALIZATION_TOL)
        if off.size:
            i = int(off[0])
            raise FormatError(f"transition row {i} sums to {row_sums[i]!r}, not 1")
        init = init.copy() if init.flags.writeable else init
        trans = trans.copy() if trans.flags.writeable else trans
        # A stable sort of each column's dead flags puts its live
        # predecessors first, in ascending index order.
        live = trans > NEG_INF
        k = int(live.sum(axis=0).max())
        pred = np.ascontiguousarray(np.argsort(~live, axis=0, kind="stable")[:k].T)
        pred_logp = trans[pred, np.arange(s)[:, None]]
        for arr in (init, trans, pred, pred_logp):
            arr.setflags(write=False)
        self.init = init
        self.trans = trans
        self.pred = pred
        self.pred_logp = pred_logp
        self.senone_phones = [str(p) for p in self.senone_phones]

    @property
    def S(self) -> int:
        return self.init.shape[0]


@dataclass
class DecodeResult:
    utterance_id: str
    states: np.ndarray  # (T,) senone indices
    score: float
    phones: list  # collapsed phone sequence


def collapse_states(states, senone_phones) -> list:
    """Map a senone path to its phone sequence; consecutive identical phones merge.

    Out-of-range senone indices raise UnknownSenone, naming the first one
    in path order.
    """
    states = np.asarray(states, dtype=np.int64)
    n = len(senone_phones)
    bad = (states < 0) | (states >= n)
    if bad.any():
        raise UnknownSenone(f"senone index {int(states[bad.argmax()])} outside [0, {n})")
    phones = []
    # Only the first frame of each run of one state can start a new phone.
    for i in states[np.flatnonzero(np.diff(states, prepend=-1))].tolist():
        phone = senone_phones[i]
        if not phones or phones[-1] != phone:
            phones.append(phone)
    return phones


def viterbi(
    matrix: ScoreMatrix,
    model: TransitionModel,
    weights: np.ndarray | None = None,
    beam: float | None = None,
) -> DecodeResult:
    """Best-path decode of one utterance.

    weights, if given, scale each frame's emission row through
    strategy.apply_weights (NEG_INF entries stay NEG_INF). beam, if
    given, prunes states whose partial score falls more than beam below
    the frame maximum. Pruning everything raises BeamCollapse, as does a
    model with no feasible path; partial scores that overflow to +inf or
    nan raise ScoreOverflow. Both name the utterance and the frame.
    """
    if matrix.S != model.S:
        raise ShapeError(f"matrix has {matrix.S} senones, model has {model.S}")
    if beam is not None and not beam > 0:
        raise InvalidConfig(f"beam must be positive, got {beam}")
    values = matrix.values if weights is None else apply_weights(matrix, weights).values
    T, S = values.shape

    pred, pred_logp = model.pred, model.pred_logp
    K = pred.shape[1]
    scores = np.empty((T, S))
    # back[t, j] is the slot j * K + k of j's best predecessor pred[j, k].
    back = np.zeros((T, S), dtype=np.int64)
    cand = np.empty((S, K))
    cand_flat = cand.reshape(-1)
    row_starts = np.arange(0, S * K, K)
    peaks = None if beam is None else np.empty(T)
    add = np.add
    # Overflow and inf - inf are reported below as ScoreOverflow.
    with np.errstate(over="ignore", invalid="ignore"):
        add(model.init, values[0], out=scores[0])
        if beam is not None:
            peaks[0] = _prune(scores[0], beam)
        frames = zip(scores, scores[1:], back[1:], values[1:])
        for t, (prev, cur, slot, emit) in enumerate(frames, 1):
            # Every index is in range; "clip" skips the check and the
            # buffered copy of out that the default mode makes.
            prev.take(pred, out=cand, mode="clip")
            add(cand, pred_logp, out=cand)
            cand.argmax(axis=1, out=slot)  # first occurrence: lowest predecessor wins ties
            add(slot, row_starts, out=slot)
            cand_flat.take(slot, out=cur, mode="clip")
            add(cur, emit, out=cur)
            if beam is not None:
                peaks[t] = _prune(cur, beam)

    # peaks holds each frame's maximum before pruning. The lattice dies at
    # the first frame where it is NEG_INF and overflows at the first where
    # it is +inf or nan; the frames computed after that one change nothing,
    # so one check here replaces a check per frame.
    if peaks is None:
        peaks = scores.max(axis=1)
    bad = np.flatnonzero(~np.isfinite(peaks))
    if bad.size:
        t = bad[0]
        if peaks[t] == NEG_INF:
            raise BeamCollapse(f"{matrix.utterance_id}: no surviving state at frame {t}")
        raise ScoreOverflow(f"{matrix.utterance_id}: path score is {peaks[t]} at frame {t}")

    state = int(np.argmax(scores[T - 1]))
    score = float(scores[T - 1, state])
    path = [state] * T
    for t in range(T - 1, 0, -1):
        state = pred.item(back.item(t, state))
        path[t - 1] = state
    states = np.array(path, dtype=np.int64)
    return DecodeResult(
        matrix.utterance_id, states, score, collapse_states(states, model.senone_phones)
    )


def _prune(row: np.ndarray, beam: float) -> float:
    """Set states more than beam below the row maximum to NEG_INF, in place.

    Returns the maximum before pruning. A nan maximum or beam prunes the
    whole row, as the comparison is then false everywhere.
    """
    peak = row.max()
    row[~(row >= peak - beam)] = NEG_INF
    return peak


def write_transition_model(model: TransitionModel) -> str:
    """Text layout: senone count, init row, S transition rows, then one
    "index phone" line per senone."""
    lines = [str(model.S)]
    lines.append(" ".join(repr(float(v)) for v in model.init))
    for row in model.trans:
        lines.append(" ".join(repr(float(v)) for v in row))
    for i, phone in enumerate(model.senone_phones):
        lines.append(f"{i} {phone}")
    return "\n".join(lines) + "\n"


def read_transition_model(text: str) -> TransitionModel:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty transition model")
    try:
        s = int(lines[0])
    except ValueError:
        raise FormatError(f"bad senone count {lines[0]!r}") from None
    if s < 1:
        raise FormatError(f"senone count must be >= 1, got {s}")
    if len(lines) != 2 + 2 * s:
        raise FormatError(f"expected {2 + 2 * s} lines for {s} senones, got {len(lines)}")

    def parse_row(line, lineno):
        fields = line.split()
        if len(fields) != s:
            raise FormatError(f"line {lineno}: expected {s} values, got {len(fields)}")
        try:
            return [float(f) for f in fields]
        except ValueError:
            raise FormatError(f"line {lineno}: unparseable float") from None

    init = parse_row(lines[1], 2)
    trans = [parse_row(lines[2 + i], 3 + i) for i in range(s)]
    phones = [None] * s
    for line in lines[2 + s:]:
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"bad senone label line {line!r}")
        try:
            idx = int(fields[0])
        except ValueError:
            raise FormatError(f"bad senone index in {line!r}") from None
        if not (0 <= idx < s) or phones[idx] is not None:
            raise FormatError(f"senone index {idx} out of range or repeated")
        phones[idx] = fields[1]
    return TransitionModel(np.array(init), np.array(trans), phones)
