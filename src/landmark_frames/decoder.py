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
    LandmarkFramesError,
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


# Back-pointers of the frames just decoded stay in an intp block of at
# most this many cells (one frame at least, no more than the lattice)
# and are narrowed block by block, so a frame pays no cast.
_BLOCK_CELLS = 1 << 14

# A batch of fewer than this many rows walks each row back alone, as a
# list, which costs less than a gather's fixed numpy calls per frame. A
# larger batch gathers the live rows of every frame, from its last one.
GATHER_ROWS = 8


def index_type(cells: int):
    """The narrowest signed integer type that holds any cell index of a
    row of cells cells: int8 up to 127, then int16, then int32."""
    return np.int8 if cells <= 127 else np.int16 if cells <= 32767 else np.int32


def viterbi(
    matrix: ScoreMatrix,
    model: TransitionModel,
    weights: np.ndarray | None = None,
    beam: float | None = None,
) -> DecodeResult:
    """Best-path decode of one utterance: viterbi_batch on a batch of one,
    raising its BeamCollapse or ScoreOverflow.

    weights, if given, scale each frame's emission row through
    strategy.apply_weights (NEG_INF entries stay NEG_INF), once the
    senone count and the beam have passed their checks.
    """
    if weights is not None and matrix.S == model.S and (beam is None or beam > 0):
        matrix = apply_weights(matrix, weights)
    (result,) = viterbi_batch([matrix], model, beam, lengths=[matrix.T])
    if isinstance(result, LandmarkFramesError):
        raise result
    return result


def viterbi_batch(matrices, model: TransitionModel, beam: float | None = None, *, lengths) -> list:
    """Best-path decodes of several utterances in one pass, in input order.

    beam, if given, prunes the states of an utterance whose partial
    score falls more than beam below its frame maximum. Pruning
    everything fails the utterance with BeamCollapse, as does a model
    with no feasible path; partial scores that overflow to +inf or nan
    fail it with ScoreOverflow. Both name the utterance and the frame.
    Returns, for each utterance, its DecodeResult or the error it raises
    when decoded alone: every utterance decodes exactly as it would
    alone, whatever the others do.

    matrices is any iterable of ScoreMatrix, read once in input order,
    and lengths holds each one's frame count, an integer of at least 1; a
    count or shape that differs, or a length that is no such count,
    raises ShapeError. A LandmarkFramesError in place of a matrix is
    that utterance's outcome. Each matrix is copied into the lattice as
    it is read and not kept.
    """
    if beam is not None and not beam > 0:
        raise InvalidConfig(f"beam must be positive, got {beam}")
    for b, L in enumerate(lengths):
        if not isinstance(L, (int, np.integer)) or L < 1:
            raise ShapeError(f"length {b} is {L!r}, not a frame count of at least 1")
    S, P = model.S, model.pred.size
    # Rows run longest first, so the rows still live at a frame come
    # first. Buffers are time-major: frame t holds rows starts[t] to
    # starts[t + 1] of scores and back, one per live row.
    rows = sorted(range(len(lengths)), key=lambda b: -lengths[b])
    lengths = [lengths[b] for b in rows]
    B = len(rows)
    # Frames t0 to t1 - 1 of each segment (t0, t1, n) have n live rows.
    starts, segments, n, t0 = [0], [], B, 0
    for t1 in reversed(lengths):
        if t1 > t0:
            starts += range(starts[-1] + n, starts[-1] + n * (t1 - t0) + 1, n)
            segments.append((t0, t1, n))
            t0 = t1
        n -= 1
    offsets = np.array(starts)
    # scores holds the emissions, in group order, until the frame loop
    # adds each frame's best path scores to them. Row r's frame t is
    # buffer row starts[t] + r.
    scores = np.empty((starts[-1], S))
    outcomes, uids = [None] * B, [None] * B
    rank = {b: r for r, b in enumerate(rows)}
    read = 0
    for b, matrix in enumerate(matrices):
        read += 1
        if b >= B:
            continue  # counted for the error below
        r = rank[b]
        frames = offsets[:lengths[r]] + r
        if isinstance(matrix, LandmarkFramesError):
            outcomes[b] = matrix
            scores[frames] = 0.0  # decoded, never read
            continue
        if matrix.S != S:
            raise ShapeError(f"matrix has {matrix.S} senones, model has {S}")
        if matrix.T != lengths[r]:
            raise ShapeError(f"{matrix.utterance_id}: {matrix.T} frames, expected {lengths[r]}")
        scores[frames] = matrix.values.take(model.order, axis=1)
        uids[b] = matrix.utterance_id
    if read != B:
        raise ShapeError(f"matrix count {read} differs from length count {B}")
    if not B:
        return []
    # back at row r's frame t, position i, holds the cell of r's row of
    # the predecessor table that holds the best predecessor: pred there is
    # its position at frame t - 1. Frame 0's rows stay unread. block holds
    # the same cells offset by r * P, as cand indexes them.
    back = np.empty(scores.shape, dtype=index_type(P))
    block = np.empty(min(max(_BLOCK_CELLS, B * S), scores.size), dtype=np.intp)
    cand = np.empty(B * P)
    best = np.empty(B * S, dtype=np.intp)
    incoming = np.empty(B * S)
    # The table tiled per row, so no add broadcasts: row r gathers at
    # r * S + pred, and its position i's first cell is r * P + row_starts[i].
    r = np.arange(B)[:, None]
    pred_r = (r * S + model.pred).ravel()
    logp_r = np.tile(model.pred_logp, B)
    cells_r = (r * P + model.row_starts).ravel()
    row_offsets = np.arange(0, B * P, P).repeat(S)
    groups, row = [], 0
    for width, count in model.groups:
        cell = model.row_starts.item(row)
        groups.append((
            cand.reshape(B, P)[:, cell:cell + width * count].reshape(B, count, width),
            best.reshape(B, S)[:, row:row + count],
        ))
        row += count
    add = np.add
    # Overflow and inf - inf are reported below as ScoreOverflow. The
    # loop passes out and mode by position, which costs less per call
    # than by keyword.
    with np.errstate(over="ignore", invalid="ignore"):
        add(model.init.take(model.order), scores[:starts[1]], scores[:starts[1]])
        # Each frame's live rows are one flat block of n * S values; the
        # loop starts at frame 1.
        for t0, t1, n in segments:
            t0 = max(t0, 1)
            nS = n * S
            prev = scores[starts[t0 - 1]:starts[t0 - 1] + n].ravel()
            pred, logp, cand_n = pred_r[:n * P], logp_r[:n * P], cand[:n * P]
            cells, best_n, incoming_n = cells_r[:nS], best[:nS], incoming[:nS]
            groups_n = [(group[:n], out[:n]) for group, out in groups]
            step = block.size // nS
            for b0 in range(t0, t1, step):
                lo, hi, k = starts[b0], starts[min(b0 + step, t1)], min(step, t1 - b0)
                slots = block[:k * nS].reshape(k, nS)
                for cur, slot in zip(scores[lo:hi].reshape(k, nS), slots):
                    if beam is not None:
                        # Keeps each row's maximum, nan or +inf too, for the
                        # check below; a row's last frame needs none.
                        grid = prev.reshape(n, S)
                        grid[grid < grid.max(1, None, True) - beam] = NEG_INF
                    # Every index is in range; "clip" skips the check and the
                    # buffered copy of out that the default mode makes.
                    prev.take(pred, None, cand_n, "clip")
                    add(cand_n, logp, cand_n)
                    for group, out in groups_n:
                        # First occurrence: the lowest live predecessor wins
                        # ties, as dead cells sit after the live ones.
                        group.argmax(2, out)
                    add(best_n, cells, slot)
                    cand_n.take(slot, None, incoming_n, "clip")
                    add(incoming_n, cur, cur)
                    prev = cur
                np.subtract(slots, row_offsets[:nS], back[lo:hi].reshape(k, nS))

    # A row dies at its first frame whose maximum is NEG_INF and
    # overflows at the first where it is +inf or nan. Either state lasts
    # to its last frame, as emissions are finite or NEG_INF, so the
    # frames are searched only when some last frame is bad; buffer rows
    # are time-major, so each row's first bad frame comes first.
    ends = offsets[np.array(lengths) - 1] + np.arange(B)
    last = scores[ends]
    if not np.isfinite(last.max(axis=1)).all():
        peaks = scores.max(axis=1)
        bad = np.flatnonzero(~np.isfinite(peaks))
        frames = offsets.searchsorted(bad, "right") - 1
        _, first = np.unique(bad - offsets[frames], return_index=True)
        for j, t in zip(bad[first].tolist(), frames[first].tolist()):
            b, peak = rows[j - starts[t]], peaks.item(j)
            if outcomes[b] is not None:
                continue
            if peak == NEG_INF:
                outcomes[b] = BeamCollapse(f"{uids[b]}: no surviving state at frame {t}")
            else:
                outcomes[b] = ScoreOverflow(f"{uids[b]}: path score is {peak} at frame {t}")
    # The backtrace reads back only: the scores, and every view of them, go.
    scores = prev = cur = grid = None

    # In senone order, so the lowest index wins a tie at the last frame.
    last = last.take(model.pos, axis=1)
    final = last.argmax(axis=1)
    at = model.pos.take(final)
    flat_back, pred = back.ravel(), pred_r[:P]
    if B < GATHER_ROWS:
        paths = []
        for r, L in enumerate(lengths):
            p = at.item(r)
            path = [p]
            for t in range(L - 1, 0, -1):
                p = pred.item(flat_back.item((starts[t] + r) * S + p))
                path.append(p)
            paths.append(path[::-1])
    else:
        # walk holds each row's position at each frame, time-major like back.
        walk = np.empty(starts[-1], dtype=back.dtype)
        walk[ends] = at
        places = np.arange(0, B * S, S)
        cell = np.empty(B, dtype=back.dtype)
        for t0, t1, n in reversed(segments):
            for t in range(t1 - 1, max(t0, 1) - 1, -1):
                place = places[:n] + starts[t] * S
                add(place, at[:n], place)
                flat_back.take(place, None, cell[:n], "clip")
                pred.take(cell[:n], None, at[:n], "clip")
                walk[starts[t - 1]:starts[t - 1] + n] = at[:n]
        paths = [walk[offsets[:L] + r] for r, L in enumerate(lengths)]
    for r, (b, path) in enumerate(zip(rows, paths)):
        if outcomes[b] is None:
            path = model.order.take(path)
            outcomes[b] = DecodeResult(
                uids[b], path, last.item(r, final.item(r)),
                collapse_states(path.tolist(), model.senone_phones),
            )
    return outcomes


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
