"""Frame-synchronous Viterbi decoding over senone HMMs.

The decoder consumes a (possibly re-weighted) score matrix and a senone
transition model and returns the single best state path. Path score is

    score = init(s_1) + m(1, s_1) + sum_t [ trans(s_{t-1}, s_t) + m(t, s_t) ]

where m is the score matrix after any replacement and weighting. Ties
are broken toward the lowest senone index at every step, so the
returned path is deterministic.
"""

from dataclasses import dataclass, field
from itertools import accumulate, groupby

import numpy as np

from .corpus_io import NEG_INF, ScoreMatrix, line_fields, read_float_row, write_float_row
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

    The rest is the predecessor table, grouped by degree (a senone's
    number of live predecessors) rounded up to a power of two and capped
    at the largest degree. order lists the senones by that width, then by
    index; pos is its inverse; groups holds a (width, rows) pair per
    width. Row i, for senone order[i], starts at row_starts[i] of pred,
    which holds each predecessor's position in order: live ones in
    ascending senone order, then dead ones. pred_logp holds their trans
    entries.
    """

    init: np.ndarray
    trans: np.ndarray
    senone_phones: list
    order: np.ndarray = field(init=False, repr=False)
    pos: np.ndarray = field(init=False, repr=False)
    groups: tuple = field(init=False, repr=False)
    row_starts: np.ndarray = field(init=False, repr=False)
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
        live = trans > NEG_INF
        degrees = live.sum(axis=0).tolist()
        k = max(degrees)
        # Python ints: numpy's unique and log2 would cost memory at import.
        width = [min(k, 1 << max(d - 1, 0).bit_length()) for d in degrees]
        order = np.array(sorted(range(s), key=width.__getitem__))
        widths = [width[j] for j in order]
        # A stable sort of each column's dead flags puts its live
        # predecessors first, in ascending index order.
        ranked = np.argsort(~live, axis=0, kind="stable").T
        cells = np.concatenate([ranked[j, :w] for j, w in zip(order, widths)])
        self.init, self.trans, self.order, self.pos = init, trans, order, np.argsort(order)
        self.groups = tuple((w, len(list(run))) for w, run in groupby(widths))
        self.row_starts = np.array([0, *accumulate(widths[:-1])])
        self.pred = self.pos[cells]
        self.pred_logp = trans[cells, np.repeat(order, widths)]
        for arr in (init, trans, order, self.pos, self.row_starts, self.pred, self.pred_logp):
            arr.setflags(write=False)
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
    n = len(senone_phones)
    phones = []
    # Only the first frame of each run of one state can start a new phone.
    for i, _ in groupby(states):
        if not 0 <= i < n:
            raise UnknownSenone(f"senone index {int(i)} outside [0, {n})")
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

    # The lattice runs over positions in model.order, so each degree
    # group's rows sit side by side in cand.
    values = values.take(model.order, axis=1)
    pred, pred_logp, row_starts = model.pred, model.pred_logp, model.row_starts
    scores = np.empty((T, S))
    # back[t, i] is the cell of cand that holds the best predecessor of
    # position i; pred at that cell is the predecessor's position.
    back = np.zeros((T, S), dtype=np.int64)
    cand = np.empty(pred.size)
    # best[i] is the slot, within position i's row, of its best predecessor.
    best = np.empty(S, dtype=np.int64)
    groups, row = [], 0
    for width, rows in model.groups:
        cell = row_starts.item(row)
        groups.append((cand[cell:cell + width * rows].reshape(rows, width), best[row:row + rows]))
        row += rows
    add = np.add
    # Overflow and inf - inf are reported below as ScoreOverflow. The
    # loop passes out and mode by position, which costs less per call
    # than by keyword.
    with np.errstate(over="ignore", invalid="ignore"):
        add(model.init.take(model.order), values[0], scores[0])
        for prev, cur, slot, emit in zip(scores, scores[1:], back[1:], values[1:]):
            if beam is not None:
                # Keeps the maximum, nan or +inf too, for the check below; the last row needs none.
                prev[prev < prev.max() - beam] = NEG_INF
            # Every index is in range; "clip" skips the check and the
            # buffered copy of out that the default mode makes.
            prev.take(pred, None, cand, "clip")
            add(cand, pred_logp, cand)
            for group, out in groups:
                # First occurrence: the lowest live predecessor wins ties,
                # as dead cells sit after the live ones.
                group.argmax(1, out)
            add(best, row_starts, slot)
            cand.take(slot, None, cur, "clip")
            add(cur, emit, cur)

    # The lattice dies at the first frame whose maximum is NEG_INF and
    # overflows at the first where it is +inf or nan; the frames computed
    # after that one change nothing, so one check here replaces a check
    # per frame.
    peaks = scores.max(axis=1)
    bad = np.flatnonzero(~np.isfinite(peaks))
    if bad.size:
        t = bad[0]
        if peaks[t] == NEG_INF:
            raise BeamCollapse(f"{matrix.utterance_id}: no surviving state at frame {t}")
        raise ScoreOverflow(f"{matrix.utterance_id}: path score is {peaks[t]} at frame {t}")

    # In senone order, so the lowest index wins a tie at the last frame.
    last = scores[T - 1].take(model.pos)
    state = int(np.argmax(last))
    score = float(last[state])
    path = [model.pos.item(state)] * T
    for t in range(T - 1, 0, -1):
        path[t - 1] = pred.item(back.item(t, path[t]))
    states = model.order.take(path)
    return DecodeResult(
        matrix.utterance_id, states, score, collapse_states(states.tolist(), model.senone_phones)
    )


def write_transition_model(model: TransitionModel) -> str:
    """Text layout: senone count, init row, S transition rows, then one
    "index phone" line per senone."""
    lines = [str(model.S), write_float_row(model.init), *map(write_float_row, model.trans)]
    lines += [f"{i} {phone}" for i, phone in enumerate(model.senone_phones)]
    return "\n".join(lines) + "\n"


def read_transition_model(text: str) -> TransitionModel:
    rows = line_fields(text)
    lineno, header = next(rows, (0, []))
    if not header:
        raise FormatError("empty transition model")
    try:
        (s,) = map(int, header)
    except ValueError:
        raise FormatError(f"line {lineno}: bad senone count {' '.join(header)!r}") from None
    if s < 1:
        raise FormatError(f"line {lineno}: senone count must be >= 1, got {s}")
    # Rows become floats as they are read; zip takes range first, so it leaves the labels.
    table = [read_float_row(n, fields, s) for _, (n, fields) in zip(range(1 + s), rows)]
    labels = list(rows)
    if len(table) + len(labels) != 1 + 2 * s:
        got = 1 + len(table) + len(labels)
        raise FormatError(f"line {lineno}: {s} senones need {2 + 2 * s} non-blank lines, got {got}")
    phones = [None] * s
    for n, fields in labels:
        if len(fields) != 2:
            raise FormatError(f"line {n}: expected 'index phone', got {' '.join(fields)!r}")
        try:
            idx = int(fields[0])
        except ValueError:
            raise FormatError(f"line {n}: bad senone index {fields[0]!r}") from None
        if not (0 <= idx < s) or phones[idx] is not None:
            raise FormatError(f"line {n}: senone index {idx} out of range or repeated")
        phones[idx] = fields[1]
    return TransitionModel(np.array(table[0]), np.array(table[1:]), phones)
