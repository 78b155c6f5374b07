"""Independent oracles: brute-force routes and reference loops the package
must agree with.

Nothing here reuses package internals beyond public data types, errors,
frame weighting and the mask and landmark primitives, so a bug in the
decoder, the scorer or the strategy composition cannot hide in its own
oracle.
"""

import itertools
import math
import warnings

import numpy as np

from landmark_frames import (
    NEG_INF,
    BeamCollapse,
    DecodeResult,
    FrameMask,
    InvalidConfig,
    ScoreOverflow,
    ShapeError,
    UnknownSenone,
    apply_weights,
    frame_map,
    landmark_frames,
    mask_random,
    mask_regular,
)


def sequence_score(values, log_init, log_trans, states, weights=None):
    """Path score of one state sequence, each emission scaled by its frame weight."""
    T = values.shape[0]
    w = np.ones(T) if weights is None else np.asarray(weights, dtype=np.float64)
    score = log_init[states[0]] + w[0] * values[0, states[0]]
    for t in range(1, T):
        score = score + log_trans[states[t - 1], states[t]] + w[t] * values[t, states[t]]
    return float(score)


def enumerate_viterbi(values, log_init, log_trans, weights=None):
    """Best path by exhaustive enumeration over all S^T state sequences.

    Ties on score resolve to the path whose reversed state sequence is
    lexicographically smallest, which is what per-step lowest-index
    backtracking produces.
    """
    T, S = values.shape
    best_score = -math.inf
    best_key = None
    best_path = None
    for path in itertools.product(range(S), repeat=T):
        score = sequence_score(values, log_init, log_trans, path, weights)
        if score == -math.inf:
            continue
        key = tuple(reversed(path))
        if best_path is None or score > best_score or (score == best_score and key < best_key):
            best_score = score
            best_key = key
            best_path = path
    return float(best_score), list(best_path)


def reference_viterbi(matrix, model, weights=None, beam=None):
    """A dense decode loop over the full transition table.

    One (S, S) candidate table per frame over every (predecessor, state)
    pair, argmax down each column, and a collapse and overflow check at
    every frame, before pruning. `viterbi`, which reads only each state's
    live predecessors and checks once after its loop, must return the
    same states and score, and raise the same BeamCollapse or
    ScoreOverflow at the same frame.
    """
    if matrix.S != model.S:
        raise ShapeError(f"matrix has {matrix.S} senones, model has {model.S}")
    if beam is not None and not beam > 0:
        raise InvalidConfig(f"beam must be positive, got {beam}")
    values = matrix.values if weights is None else apply_weights(matrix, weights).values
    T, S = values.shape

    back = np.zeros((T, S), dtype=np.int64)
    delta = model.init + values[0]
    delta = _reference_prune(delta, beam, matrix.utterance_id, 0)
    for t in range(1, T):
        cand = delta[:, None] + model.trans
        back[t] = np.argmax(cand, axis=0)  # first occurrence: lowest predecessor wins ties
        delta = cand[back[t], np.arange(S)] + values[t]
        delta = _reference_prune(delta, beam, matrix.utterance_id, t)

    best = int(np.argmax(delta))
    score = float(delta[best])
    states = np.zeros(T, dtype=np.int64)
    states[T - 1] = best
    for t in range(T - 1, 0, -1):
        states[t - 1] = back[t, states[t]]
    return DecodeResult(
        matrix.utterance_id, states, score, reference_collapse(states, model.senone_phones)
    )


def _reference_prune(delta, beam, utterance_id, t):
    peak = delta.max()
    if peak == NEG_INF:
        raise BeamCollapse(f"{utterance_id}: no surviving state at frame {t}")
    if not peak < math.inf:
        raise ScoreOverflow(f"{utterance_id}: path score is {peak} at frame {t}")
    if beam is None:
        return delta
    return np.where(delta >= peak - beam, delta, NEG_INF)


def reference_collapse(states, senone_phones):
    """The frame loop `collapse_states` had before it walked state runs."""
    phones = []
    for s in states:
        i = int(s)
        if not 0 <= i < len(senone_phones):
            raise UnknownSenone(f"senone index {i} outside [0, {len(senone_phones)})")
        phone = senone_phones[i]
        if not phones or phones[-1] != phone:
            phones.append(phone)
    return phones


def _reference_landmark_mask(frames, num_frames, regime):
    """keep: drop every frame outside frames; drop: drop exactly frames."""
    marked = frame_map(frames, num_frames)
    if regime == "keep" and not marked.any():
        warnings.warn("landmark keep with no landmark frames drops every frame")
    return FrameMask(marked if regime == "drop" else ~marked)


def _reference_or(a, b):
    return FrameMask(a.dropped | b.dropped)


def reference_realize(spec, num_frames, landmarks=None, rng=None, default_radius=0):
    """The per-part composition `realize_strategy` had before its single pass.

    Every part builds its own FrameMask from landmark frame indices, and
    each is OR-ed into a new FrameMask; hybrid subtracts the landmark
    frames from its regular mask; each weighted part multiplies in a
    full weight vector, ones except its factor on the landmark frames.
    Weight products are returned as they come, even past the float range.
    """
    mask = FrameMask(np.zeros(num_frames, dtype=bool))
    weights = np.ones(num_frames, dtype=np.float64)
    for kind, params in spec.parts:
        frames = None
        if kind in ("landmark", "hybrid", "overweight") or "match" in params:
            frames = landmark_frames(landmarks, num_frames, params.get("r", default_radius))
        if kind == "regular":
            mask = _reference_or(mask, mask_regular(num_frames, params["P"], params["D"]))
        elif kind == "random":
            if "n" in params:
                n_drop = params["n"]
            elif "rate" in params:
                n_drop = int(np.floor(params["rate"] * num_frames + 0.5))
            else:
                n_drop = _reference_landmark_mask(frames, num_frames, params["match"]).n_dropped
            seed = params.get("seed")
            if seed is None:
                seed = int(rng.integers(0, 2**63))
            mask = _reference_or(mask, mask_random(num_frames, n_drop, seed))
        elif kind == "landmark":
            mask = _reference_or(mask, _reference_landmark_mask(frames, num_frames, params["mode"]))
        elif kind == "hybrid":
            regular = mask_regular(num_frames, params["P"], params["D"])
            protected = frame_map(frames, num_frames)
            mask = _reference_or(mask, FrameMask(regular.dropped & ~protected))
        if kind in ("hybrid", "overweight"):
            part = np.ones(num_frames, dtype=np.float64)
            part[frame_map(frames, num_frames)] = params["overweight" if kind == "hybrid" else "factor"]
            with np.errstate(over="ignore", invalid="ignore"):
                weights = weights * part
    return mask, weights


def reference_copy(values, dropped):
    """The frame loop `apply_replacement(..., "copy")` had before it was vectorized.

    Each dropped row repeats the most recent kept row; dropped rows before
    the first kept one take the per-senone mean over all input frames.
    """
    out = values.copy()
    fallback = values.mean(axis=0)
    last = None
    for t in range(values.shape[0]):
        if dropped[t]:
            out[t] = fallback if last is None else out[last]
        else:
            last = t
    return out


def dyadic_uniform_model(rng, n_states):
    """Random init/trans log tables with exactly representable values.

    Every row is uniform over a random support, with log(1/m) rounded
    onto a 2^-30 grid: exp-sums stay within ~5e-10 of 1 (inside the
    normalization tolerance) while every path score is an exact float64
    sum, so score ties are genuine and exercise the tie rule.
    """

    def dyadic_log(m):
        return round(math.log(1.0 / m) * 2**30) / 2**30

    def uniform_row():
        m = int(rng.integers(1, n_states + 1))
        support = rng.choice(n_states, size=m, replace=False)
        row = np.full(n_states, -np.inf)
        row[support] = dyadic_log(m)
        return row

    init = uniform_row()
    trans = np.vstack([uniform_row() for _ in range(n_states)])
    return init, trans


def dyadic_matrix(rng, n_frames, n_states):
    # Multiples of 0.25 in [-8, 8]: exact sums, frequent ties.
    return rng.integers(-32, 33, size=(n_frames, n_states)) / 4.0


def edit_distance_matchings(ref, hyp):
    """Minimum unit-cost edit distance via exhaustive monotone matchings.

    Every alignment corresponds to an order-preserving matching of k
    reference positions to k hypothesis positions; its cost is the
    mismatched matched pairs plus everything unmatched. No dynamic
    program involved.
    """
    n, m = len(ref), len(hyp)
    best = n + m
    for k in range(1, min(n, m) + 1):
        for ri in itertools.combinations(range(n), k):
            for hi in itertools.combinations(range(m), k):
                cost = (n - k) + (m - k) + sum(
                    1 for i, j in zip(ri, hi) if ref[i] != hyp[j]
                )
                if cost < best:
                    best = cost
    return best


def wilcoxon_enumeration_p(diffs):
    """Exact two-sided signed-rank p by enumerating all 2^n sign vectors.

    Ranks come from scipy (independent midrank source). The two-sided
    rule is P(W+ <= w) + P(W+ >= total - w) with w = min(W+, W-), and 1
    when the observed statistic sits at or past the distribution middle.
    """
    import scipy.stats

    diffs = np.asarray(diffs, dtype=np.float64)
    diffs = diffs[diffs != 0]
    n = diffs.size
    ranks = scipy.stats.rankdata(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)
    total = float(ranks.sum())
    if w >= total - w:
        return 1.0
    count_le = 0
    count_ge = 0
    for signs in itertools.product((False, True), repeat=n):
        wp = sum(r for r, s in zip(ranks, signs) if s)
        if wp <= w:
            count_le += 1
        if wp >= total - w:
            count_ge += 1
    return (count_le + count_ge) / 2.0**n
