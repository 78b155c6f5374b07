"""Independent oracles: brute-force routes and reference loops the package
must agree with.

Nothing here reuses package internals beyond public data types, errors,
frame weighting and the regular and random mask primitives; landmark
frames and frame maps come from the reference loops below. A bug in the
decoder, the scorer, the landmark map or the strategy composition
cannot hide in its own oracle. The end-to-end reference
(reference_outcomes) also takes the corpus, the strategy grammar,
upsample replacement, matrix serialization and edit_distance from the
package.
"""

import hashlib
import itertools
import math
import warnings

import numpy as np

from landmark_frames import (
    BASELINE,
    NEG_INF,
    AnnotationConfig,
    BeamCollapse,
    DecodeResult,
    EmptyInput,
    FrameMask,
    InvalidConfig,
    InvalidPattern,
    LandmarkFramesError,
    LandmarkSet,
    ScoreMatrix,
    ScoreOverflow,
    ShapeError,
    UnknownPhone,
    UnknownSenone,
    apply_replacement,
    apply_weights,
    gen_corpus,
    mask_random,
    mask_regular,
    parse_strategy,
    write_score_matrix,
)
from landmark_frames.scoring import edit_distance


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


def reference_collapse_runs(states, senone_phones):
    """The ndarray pass `collapse_states` had before it grouped a path list.

    One vectorized range check, then one phone lookup per run of a state.
    """
    states = np.asarray(states, dtype=np.int64)
    n = len(senone_phones)
    bad = (states < 0) | (states >= n)
    if bad.any():
        raise UnknownSenone(f"senone index {int(states[bad.argmax()])} outside [0, {n})")
    phones = []
    for i in states[np.flatnonzero(np.diff(states, prepend=-1))].tolist():
        phone = senone_phones[i]
        if not phones or phones[-1] != phone:
            phones.append(phone)
    return phones


def reference_adjust_mask_to_rate(mask, target_n, protected=(), seed=0):
    """`adjust_mask_to_rate` as it was before it took a boolean protected map.

    Rebuilds the protected map from frame indices at every call and
    hands FrameMask a writeable array, which it copies.
    """
    if not 0 <= target_n <= mask.T:
        raise InvalidPattern(f"cannot drop {target_n} of {mask.T} frames")
    prot = reference_frame_map(protected, mask.T)
    delta = target_n - mask.n_dropped
    if delta == 0:
        return FrameMask(mask.dropped)
    dropped = mask.dropped.copy()
    rng = np.random.default_rng(seed)
    if delta > 0:
        pool = np.flatnonzero(~dropped & ~prot)
        if pool.size < delta:
            raise InvalidPattern(f"need {delta} more drops but only {pool.size} unprotected kept frames")
        dropped[rng.choice(pool, size=delta, replace=False)] = True
    else:
        pool = np.flatnonzero(dropped & ~prot)
        if pool.size < -delta:
            raise InvalidPattern(f"need {-delta} fewer drops but only {pool.size} unprotected drops")
        dropped[rng.choice(pool, size=-delta, replace=False)] = False
    return FrameMask(dropped)


def _reference_landmark_mask(frames, num_frames, regime):
    """keep: drop every frame outside frames; drop: drop exactly frames."""
    marked = reference_frame_map(frames, num_frames)
    if regime == "keep" and not marked.any():
        warnings.warn("landmark keep with no landmark frames drops every frame")
    return FrameMask(marked if regime == "drop" else ~marked)


def _reference_or(a, b):
    return FrameMask(a.dropped | b.dropped)


def reference_realize(spec, num_frames, landmarks=None, rng=None):
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
            frames = reference_landmark_frames(landmarks, num_frames, params.get("r", 0))
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
            protected = reference_frame_map(frames, num_frames)
            mask = _reference_or(mask, FrameMask(regular.dropped & ~protected))
        if kind in ("hybrid", "overweight"):
            part = np.ones(num_frames, dtype=np.float64)
            part[reference_frame_map(frames, num_frames)] = params["overweight" if kind == "hybrid" else "factor"]
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


def reference_upsample(values, dropped, taps):
    """The definition of `apply_replacement(..., "upsample")`, one cell at a time.

    A dropped row t is a left fold from 0.0, in ascending frame order, of
    (tap / window sum) * value over the kept frames f with |f - t| <= half,
    the tap taken at f - t; the window sum is a left fold over the same
    frames. A NEG_INF among them makes the cell NEG_INF. A zero window sum
    copies the nearest kept row, the earlier one on a tie.
    """
    out = values.copy()
    half = len(taps) // 2
    kept = [f for f in range(len(dropped)) if not dropped[f]]
    for t in range(len(dropped)):
        if not dropped[t]:
            continue
        window = [f for f in kept if abs(f - t) <= half]
        total = 0.0
        for f in window:
            total += taps[f - t + half]
        if total == 0.0:
            out[t] = values[min(kept, key=lambda f: abs(f - t))]
            continue
        for s in range(values.shape[1]):
            acc = 0.0
            for f in window:
                if values[f, s] == NEG_INF:
                    acc = NEG_INF
                    break
                acc += (taps[f - t + half] / total) * values[f, s]
            out[t, s] = acc
    return out


def reference_landmark_frames(landmarks, num_frames, radius=0):
    """Sorted indices of the frames within radius of an event, by a loop over the events."""
    if radius < 0:
        raise InvalidConfig(f"radius must be >= 0, got {radius}")
    marked = np.zeros(num_frames, dtype=bool)
    for frame, _ in landmarks.events:
        lo = max(frame - radius, 0)
        hi = min(frame + radius + 1, num_frames)
        if lo < hi:
            marked[lo:hi] = True
    return np.flatnonzero(marked)


def reference_frame_map(frames, num_frames):
    """Boolean map of frame indices; a frame outside [0, num_frames) is an InvalidConfig."""
    marked = np.zeros(num_frames, dtype=bool)
    for frame in frames:
        if not 0 <= frame < num_frames:
            raise InvalidConfig(f"frame {frame} outside [0, {num_frames})")
        marked[int(frame)] = True
    return marked


def reference_annotate(alignment, manner_table, config):
    """The manner if-chain `annotate` had before it read one manner->events table.

    Every segment lists its events tagged by role; a second pass over
    the junctions filters out the releases and closures each MC event
    absorbs, and the MC events are appended after all segment events.
    """
    if not alignment.segments:
        raise EmptyInput(f"{alignment.utterance_id}: nothing to annotate")

    manners = []
    for phone, _, _ in alignment.segments:
        if phone not in manner_table:
            raise UnknownPhone(f"{alignment.utterance_id}: no manner for phone {phone!r}")
        manners.append(manner_table[phone])

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
            events.append(["start", "Sr"])
            events.append(["start", "Fc"])
            events.append(["end", "Fr"])
        per_segment.append(events)

    consonantal = ("fricative", "affricate", "nasal", "stop")
    mc_frames = []
    if config.merge_mc:
        for i in range(len(manners) - 1):
            left, right = manners[i], manners[i + 1]
            if left in consonantal and right in consonantal and left != right:
                junction = alignment.segments[i + 1][1]
                per_segment[i] = [
                    e for e in per_segment[i] if not (e[0] == "end" and e[1] in ("Fr", "Sr", "Nr"))
                ]
                per_segment[i + 1] = [
                    e for e in per_segment[i + 1]
                    if not (e[0] == "start" and e[1] in ("Fc", "Sc", "Nc"))
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
                    frame = a + math.floor(0.33 * duration + 0.5)
            else:
                frame = b - 1
                if offsets:
                    frame = b - 1 - math.floor(0.20 * duration + 0.5)
            frame = min(max(frame, a), b - 1)
            events.append((frame, kind))
    events.extend((frame, "MC") for frame in mc_frames)
    return LandmarkSet(alignment.utterance_id, events)


def dyadic_log(m):
    """log(1/m) rounded onto a 2^-30 grid (see dyadic_uniform_model)."""
    return round(math.log(1.0 / m) * 2**30) / 2**30


def dyadic_uniform_model(rng, n_states):
    """Random init/trans log tables with exactly representable values.

    Every row is uniform over a random support, with log(1/m) rounded
    onto a 2^-30 grid: exp-sums stay within ~5e-10 of 1 (inside the
    normalization tolerance) while every path score is an exact float64
    sum, so score ties are genuine and exercise the tie rule.
    """

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


def reference_edit_ops(ref, hyp):
    """Unit-cost edit alignment of two symbol sequences, from a full table.

    Returns (distance, ops) where ops is a list of
    ("match"|"sub"|"del"|"ins", ref_symbol|None, hyp_symbol|None) tuples
    in reference order. When several alignments are optimal the
    backtrace prefers match/substitution over deletion over insertion.
    """
    n, m = len(ref), len(hyp)
    # d[i][j] is the distance between ref[:i] and hyp[:j].
    d = [[i + j if i == 0 or j == 0 else 0 for j in range(m + 1)] for i in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                          d[i - 1][j] + 1, d[i][j - 1] + 1)
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            kind = "match" if ref[i - 1] == hyp[j - 1] else "sub"
            ops.append((kind, ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and d[i][j] == d[i - 1][j] + 1:
            ops.append(("del", ref[i - 1], None))
            i -= 1
        else:
            ops.append(("ins", None, hyp[j - 1]))
            j -= 1
    ops.reverse()
    return d[n][m], ops


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


def reference_betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz
    iteration), with the even and odd terms of each step written out."""
    max_iter = 300
    eps = 3e-16
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    return h


# The stream labels of the experiment driver's rng derivations.
_STREAM_STRATEGY = 2
_STREAM_ADJUST = 3


def _reference_replace(matrix, mask, method):
    """Dropped rows rewritten by the reference loops; upsample goes through the package."""
    dropped = mask.dropped
    if method == "upsample" or not dropped.any():
        return apply_replacement(matrix, mask, method).values
    if method == "copy":
        return reference_copy(matrix.values, dropped)
    values = matrix.values.copy()
    values[dropped] = 0.0 if method == "fill_0" else matrix.values.mean(axis=0)
    return values


def _reference_masks(config, corpus, spec, index, rep, adjust_rate):
    """Every utterance's (mask, weights) under spec, strategy index of the stream.

    An unseeded random part draws from the rng of (seed, strategy stream,
    rep, index, utterance); the rate adjustment seeds from (seed, adjust
    stream, rep, index, utterance) and protects the landmark frames of
    every non-random part that reads them, at their widest radius.
    """
    ann = AnnotationConfig(config.annotation, config.merge_mc)
    radii = [
        params.get("r", 0)
        for kind, params in spec.parts
        if kind in ("landmark", "hybrid", "overweight")
    ]
    realized = []
    for ui, utt in enumerate(corpus.utterances):
        T = utt.matrix.T
        landmarks = None
        if spec.needs_landmarks():
            landmarks = reference_annotate(utt.alignment, corpus.manner_table, ann)
        rng = None
        if spec.needs_rng():
            rng = np.random.default_rng((config.seed, _STREAM_STRATEGY, rep, index, ui))
        mask, weights = reference_realize(spec, T, landmarks, rng)
        if adjust_rate is not None:
            protected = reference_landmark_frames(landmarks, T, max(radii)) if radii else ()
            seed = np.random.SeedSequence((config.seed, _STREAM_ADJUST, rep, index, ui))
            mask = reference_adjust_mask_to_rate(
                mask, int(np.floor(adjust_rate * T + 0.5)), protected,
                seed=int(seed.generate_state(1, np.uint64)[0]),
            )
        realized.append((mask, weights))
    return realized


def reference_outcomes(config, rep=0, adjust_rate=None):
    """One point of an experiment on its synthetic corpus, composed from the reference loops.

    Returns one dict per row, the baseline first: the baseline is the
    identity strategy at index 0, rep 0, never adjusted; strategy i of
    config.strategies has index i + 1, draws for repeat rep and is
    adjusted to adjust_rate when that is given. A row holds what a
    StrategyOutcome carries, each list in corpus order: counts (n_ref,
    errors), decodes (id, phones without silence), masks (id, FrameMask)
    and checksums (id, sha256 of the replaced and weighted matrix). A row
    whose realization or adjustment fails for some utterance, or whose
    replacement, weighting or decode fails once every mask is built,
    holds {"error": the first such exception} instead.
    """
    corpus = gen_corpus(config.synth, config.seed)
    silence = {p for p, m in corpus.manner_table.items() if m == "silence"}
    rows = []
    points = [(BASELINE, 0, None)] + [(raw, rep, adjust_rate) for raw in config.strategies]
    for index, (raw, row_rep, row_rate) in enumerate(points):
        spec = parse_strategy(raw)
        row = {"counts": [], "decodes": [], "masks": [], "checksums": []}
        try:
            realized = _reference_masks(config, corpus, spec, index, row_rep, row_rate)
            for utt, (mask, weights) in zip(corpus.utterances, realized):
                uid = utt.alignment.utterance_id
                replaced = _reference_replace(utt.matrix, mask, spec.method)
                modified = apply_weights(ScoreMatrix(uid, replaced), weights)
                decoded = reference_viterbi(modified, corpus.model, beam=config.beam)
                hyp = [p for p in decoded.phones if p not in silence]
                ref = [p for p in utt.alignment.phones() if p not in silence]
                row["counts"].append((len(ref), edit_distance(ref, hyp)))
                row["decodes"].append((uid, hyp))
                row["masks"].append((uid, mask))
                digest = hashlib.sha256(write_score_matrix(modified)).hexdigest()
                row["checksums"].append((uid, digest))
        except LandmarkFramesError as e:
            row = {"error": e}
        rows.append(row)
    return rows
