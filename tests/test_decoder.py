import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import landmark_frames.experiment as experiment
from landmark_frames import (
    NEG_INF,
    BeamCollapse,
    Corpus,
    DecodeResult,
    FormatError,
    FrameMask,
    InvalidConfig,
    LandmarkFramesError,
    PhoneAlignment,
    ScoreMatrix,
    ScoreOverflow,
    ShapeError,
    TransitionModel,
    InvalidPattern,
    UnknownSenone,
    Utterance,
    collapse_states,
    read_transition_model,
    viterbi,
    viterbi_batch,
    write_transition_model,
)
from landmark_frames.decoder import GATHER_ROWS, index_type
from oracles import (
    dyadic_log,
    dyadic_matrix,
    dyadic_uniform_model,
    enumerate_viterbi,
    reference_collapse,
    reference_collapse_runs,
    reference_viterbi,
    sequence_score,
)


def uniform_model(n_states, phones=None):
    init = np.log(np.full(n_states, 1.0 / n_states))
    trans = np.log(np.full((n_states, n_states), 1.0 / n_states))
    return TransitionModel(init, trans, phones or [f"p{i}" for i in range(n_states)])


def dyadic_model(rng, n_states):
    init, trans = dyadic_uniform_model(rng, n_states)
    return TransitionModel(init, trans, [f"p{i}" for i in range(n_states)])


def mat(rows, uid="u"):
    return ScoreMatrix(uid, np.asarray(rows, dtype=np.float64))


class TestTransitionModel:
    def test_valid_uniform(self):
        model = uniform_model(3)
        assert model.S == 3

    def test_init_not_normalized(self):
        init = np.log(np.array([0.6, 0.6]))
        trans = np.log(np.full((2, 2), 0.5))
        with pytest.raises(FormatError):
            TransitionModel(init, trans, ["a", "b"])

    def test_row_not_normalized(self):
        init = np.log(np.full(2, 0.5))
        trans = np.log(np.array([[0.5, 0.5], [0.3, 0.3]]))
        with pytest.raises(FormatError):
            TransitionModel(init, trans, ["a", "b"])

    def test_tolerance_is_one_sided(self):
        # 5e-7 off stays inside the 1e-6 gate; 5e-6 does not.
        init = np.log(np.array([0.5 + 2.5e-7, 0.5 + 2.5e-7]))
        trans = np.log(np.full((2, 2), 0.5))
        TransitionModel(init, trans, ["a", "b"])
        bad = np.log(np.array([0.5 + 2.5e-6, 0.5 + 2.5e-6]))
        with pytest.raises(FormatError):
            TransitionModel(bad, trans, ["a", "b"])

    def test_shape_errors(self):
        init = np.log(np.full(2, 0.5))
        trans = np.log(np.full((2, 2), 0.5))
        with pytest.raises(ShapeError):
            TransitionModel(init[None, :], trans, ["a", "b"])
        with pytest.raises(ShapeError):
            TransitionModel(init, np.log(np.full((3, 3), 1 / 3)), ["a", "b"])
        with pytest.raises(ShapeError):
            TransitionModel(init, trans, ["a"])

    def test_nan_rejected(self):
        init = np.array([0.0, np.nan])
        trans = np.log(np.full((2, 2), 0.5))
        with pytest.raises(FormatError):
            TransitionModel(init, trans, ["a", "b"])

    def test_neg_inf_rows_allowed_when_normalized(self):
        # Left-to-right chain: each state moves to the next or stays.
        init = np.array([0.0, NEG_INF])
        trans = np.log(np.array([[0.5, 0.5], [1e-300, 1.0]]))
        trans[1, 0] = NEG_INF
        model = TransitionModel(init, trans, ["a", "b"])
        assert model.trans[1, 0] == NEG_INF

    def test_dead_senone_rejected(self):
        init = np.log(np.full(2, 0.5))
        trans = np.array([[0.0, NEG_INF], [NEG_INF, NEG_INF]])
        with pytest.raises(FormatError):
            TransitionModel(init, trans, ["a", "b"])

    def test_no_start_rejected(self):
        init = np.array([NEG_INF, NEG_INF])
        trans = np.log(np.full((2, 2), 0.5))
        with pytest.raises(FormatError):
            TransitionModel(init, trans, ["a", "b"])

    def test_text_round_trip(self):
        rng = np.random.default_rng(0)
        model = dyadic_model(rng, 4)
        back = read_transition_model(write_transition_model(model))
        assert (back.init == model.init).all()
        assert (back.trans == model.trans).all()
        assert back.senone_phones == model.senone_phones


def scored_hypothesis(path, senone_phones, manner_table):
    """The phones a run scores for a decode forced onto path.

    collapse_states keeps silence; the scoring step drops it from the
    collapsed phones.
    """
    T, S = len(path), len(senone_phones)
    values = np.full((T, S), NEG_INF)
    values[np.arange(T), path] = 0.0
    model = uniform_model(S, senone_phones)
    alignment = PhoneAlignment("u", [(senone_phones[path[0]], 0, T)])
    corpus = Corpus(model, manner_table, [Utterance(alignment, ScoreMatrix("u", values))])
    task = ([(0, FrameMask(np.zeros(T, dtype=bool)), np.ones(T), "copy")], None, True)
    ((_, hyp, _),) = experiment._score_task(corpus, task)
    return hyp


class TestCollapse:
    def test_merges_consecutive(self):
        assert collapse_states([0, 0, 1, 1], ["a", "b"]) == ["a", "b"]

    def test_reentry_kept(self):
        assert collapse_states([0, 1, 0], ["a", "b"]) == ["a", "b", "a"]

    def test_senones_of_same_phone_merge(self):
        assert collapse_states([0, 1, 2], ["a", "a", "b"]) == ["a", "b"]

    def test_silence_removed_after_merge(self):
        manners = {"sil": "silence", "a": "vowel"}
        phones = ["sil", "a", "sil"]
        assert collapse_states([0, 0, 1, 2, 2], phones) == ["sil", "a", "sil"]
        assert scored_hypothesis([0, 0, 1, 2, 2], phones, manners) == ["a"]
        # Merging comes first, so silence between two runs of a phone keeps both.
        assert scored_hypothesis([1, 0, 1], phones, manners) == ["a", "a"]

    def test_all_silence(self):
        assert collapse_states([0, 0], ["sil"]) == ["sil"]
        assert scored_hypothesis([0, 0], ["sil"], {"sil": "silence"}) == []

    def test_empty_states(self):
        assert collapse_states([], ["a"]) == []

    def test_unknown_senone(self):
        with pytest.raises(UnknownSenone):
            collapse_states([2], ["a", "b"])
        with pytest.raises(UnknownSenone):
            collapse_states([-1], ["a", "b"])

    def test_unknown_senone_named_in_path_order(self):
        with pytest.raises(UnknownSenone, match=r"^senone index 5 outside \[0, 2\)$"):
            collapse_states([0, 0, 5, 1, -1], ["a", "b"])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-2, 6), max_size=30),
        st.lists(st.sampled_from(["a", "b", "sil"]), min_size=1, max_size=5),
    )
    @example([], ["a"])
    @example([0, 0, 1, 1, 0], ["sil", "sil"])
    @example([1, 1, 0, 2, 7, -1], ["a", "b", "a"])
    def test_equals_reference_loop(self, states, phones):
        # viterbi passes a list of ints; a DecodeResult holds an int64 array.
        def outcome(collapse, path):
            try:
                return collapse(path, phones)
            except UnknownSenone as e:
                return type(e), str(e)

        path = np.array(states, dtype=np.int64)
        want = outcome(reference_collapse, path)
        assert outcome(reference_collapse_runs, path) == want
        assert outcome(collapse_states, states) == want
        assert outcome(collapse_states, path) == want


class TestViterbi:
    def test_single_frame_is_weighted_argmax(self):
        model = uniform_model(3)
        res = viterbi(mat([[-5.0, -1.0, -3.0]]), model)
        assert res.states.tolist() == [1]
        assert res.score == pytest.approx(np.log(1 / 3) - 1.0)

    def test_uniform_transitions_reduce_to_framewise_argmax(self):
        model = uniform_model(3)
        values = np.array([[-1.0, -2.0, -3.0], [-9.0, -1.0, -2.0], [-4.0, -4.0, -1.0]])
        res = viterbi(mat(values), model)
        assert res.states.tolist() == [0, 1, 2]

    def test_two_state_hand_enumeration(self):
        init = np.log(np.array([0.8, 0.2]))
        trans = np.log(np.array([[0.9, 0.1], [0.4, 0.6]]))
        model = TransitionModel(init, trans, ["a", "b"])
        m = mat([[-1.0, -0.5], [-2.0, -0.1], [-0.2, -3.0]])
        want_score, want_path = enumerate_viterbi(m.values, model.init, model.trans)
        res = viterbi(m, model)
        assert res.states.tolist() == list(want_path)
        assert res.score == pytest.approx(want_score, abs=1e-12)

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            S = int(rng.integers(2, 5))
            T = int(rng.integers(1, 7))
            model = dyadic_model(rng, S)
            m = ScoreMatrix("u", dyadic_matrix(rng, T, S))
            want_score, want_path = enumerate_viterbi(m.values, model.init, model.trans)
            res = viterbi(m, model)
            assert abs(res.score - want_score) < 1e-9
            assert res.states.tolist() == list(want_path)

    def test_tie_breaks_toward_lowest_index(self):
        model = uniform_model(3)
        res = viterbi(mat(np.zeros((4, 3))), model)
        assert res.states.tolist() == [0, 0, 0, 0]

    def test_phones_collapsed_on_result(self):
        model = uniform_model(2, phones=["a", "a"])
        res = viterbi(mat([[-1.0, 0.0], [0.0, -1.0]]), model)
        assert res.states.tolist() == [1, 0]
        assert res.phones == ["a"]

    def test_weights_none_equals_unit_weights(self):
        rng = np.random.default_rng(3)
        model = dyadic_model(rng, 3)
        m = ScoreMatrix("u", rng.normal(size=(10, 3)))
        bare = viterbi(m, model)
        unit = viterbi(m, model, weights=np.ones(10))
        assert bare.score == unit.score
        assert (bare.states == unit.states).all()

    def test_zero_weight_ignores_frame(self):
        # With frame 1 zero-weighted, only frames 0 and 2 matter.
        model = uniform_model(2)
        values = np.array([[-1.0, -5.0], [-9.0, 0.0], [-1.0, -5.0]])
        res = viterbi(mat(values), model, weights=np.array([1.0, 0.0, 1.0]))
        assert res.states.tolist() == [0, 0, 0]
        assert res.score == pytest.approx(3 * np.log(0.5) - 2.0)

    def test_weight_matches_prescaled_matrix(self):
        rng = np.random.default_rng(9)
        model = dyadic_model(rng, 3)
        values = rng.normal(size=(8, 3))
        weights = rng.uniform(0.25, 2.0, size=8)
        direct = viterbi(ScoreMatrix("u", values), model, weights=weights)
        scaled = viterbi(ScoreMatrix("u", values * weights[:, None]), model)
        assert direct.score == pytest.approx(scaled.score, abs=1e-12)
        assert (direct.states == scaled.states).all()

    def test_single_state_path_invariant_to_weights(self):
        init = np.zeros(1)
        trans = np.zeros((1, 1))
        model = TransitionModel(init, trans, ["a"])
        m = mat([[-2.0], [-4.0]])
        res = viterbi(m, model, weights=np.array([3.0, 0.5]))
        assert res.states.tolist() == [0, 0]
        assert res.score == pytest.approx(3.0 * -2.0 + 0.5 * -4.0)

    def test_neg_inf_emission_stays_under_weighting(self):
        model = uniform_model(2)
        values = np.array([[NEG_INF, -1.0]])
        res = viterbi(mat(values), model, weights=np.array([0.0]))
        assert res.states.tolist() == [1]

    def test_weight_shape_error(self):
        model = uniform_model(2)
        with pytest.raises(ShapeError):
            viterbi(mat(np.zeros((3, 2))), model, weights=np.ones(2))

    def test_senone_count_mismatch(self):
        with pytest.raises(ShapeError):
            viterbi(mat(np.zeros((3, 3))), uniform_model(2))


class TestBeam:
    def test_wide_beam_is_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = dyadic_model(rng, 4)
            m = ScoreMatrix("u", rng.normal(size=(12, 4)))
            full = viterbi(m, model)
            pruned = viterbi(m, model, beam=1e9)
            assert full.score == pruned.score
            assert (full.states == pruned.states).all()

    def test_narrow_beam_can_collapse(self):
        # Two isolated self-loop states. The beam prunes b at frame 0,
        # but only b can emit at frame 1, so the lattice dies.
        init = np.log(np.array([0.5, 0.5]))
        trans = np.array([[0.0, NEG_INF], [NEG_INF, 0.0]])
        model = TransitionModel(init, trans, ["a", "b"])
        values = np.array([[0.0, -100.0], [NEG_INF, 0.0]])
        assert viterbi(mat(values), model).states.tolist() == [1, 1]
        with pytest.raises(BeamCollapse):
            viterbi(mat(values), model, beam=1.0)

    def test_infeasible_matrix_collapses(self):
        model = uniform_model(2)
        with pytest.raises(BeamCollapse):
            viterbi(mat([[NEG_INF, NEG_INF]]), model)

    def test_nonpositive_beam_rejected(self):
        model = uniform_model(2)
        with pytest.raises(InvalidConfig):
            viterbi(mat(np.zeros((2, 2))), model, beam=0.0)

    def test_nan_beam_rejected(self):
        with pytest.raises(InvalidConfig, match="beam must be positive, got nan"):
            viterbi(mat(np.zeros((2, 2))), uniform_model(2), beam=float("nan"))


@st.composite
def decode_cases(draw):
    """A model, a matrix, frame weights and a beam for one decode.

    Sparse models put NEG_INF on transitions, so states have fewer live
    predecessors than the widest one and some have none; integer masses
    and integer scores make equal path scores, so the tie rule decides;
    NEG_INF scores and narrow beams make the lattice collapse.
    """
    S = draw(st.integers(1, 12))
    T = draw(st.integers(1, 40))
    sparse = draw(st.booleans())

    def log_row():
        mass = np.array(draw(st.lists(st.integers(1, 4), min_size=S, max_size=S)), dtype=float)
        if sparse:
            support = draw(st.lists(st.booleans(), min_size=S, max_size=S))
            support[draw(st.integers(0, S - 1))] = True
            mass[~np.array(support)] = 0.0
        with np.errstate(divide="ignore"):
            return np.log(mass / mass.sum())

    model = TransitionModel(log_row(), np.vstack([log_row() for _ in range(S)]),
                            [f"p{i // 2}" for i in range(S)])
    if draw(st.booleans()):
        cell = st.sampled_from([0.0, -1.0, -2.0, -3.0])
    else:
        cell = st.floats(-20.0, 0.0)
    if draw(st.booleans()):
        cell = st.one_of(cell, st.just(NEG_INF))
    values = np.array(draw(st.lists(st.lists(cell, min_size=S, max_size=S),
                                    min_size=T, max_size=T)))
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                         min_size=T, max_size=T)))
    beam = draw(st.sampled_from([None, 0.5, 1.0, 3.0, 1e9]))
    return ScoreMatrix("u", values), model, weights, beam


def degree_model(draw, rng):
    """A model built column by column from drawn degrees (see degree_cases)."""
    S = draw(st.sampled_from([1, 2, 3, 5, 6, 9, 21, 24]))
    live = np.zeros((S, S), dtype=bool)
    for j in range(S):
        degree = min(S, draw(st.sampled_from([0, 1, 2, 3, 5, 20, S])))
        live[rng.choice(S, size=degree, replace=False), j] = True
    for i in np.flatnonzero(~live.any(axis=1)):
        live[i, rng.integers(S)] = True
    trans = np.where(live, [[dyadic_log(n)] for n in live.sum(axis=1)], NEG_INF)
    starts = rng.choice(S, size=int(rng.integers(1, S + 1)), replace=False)
    init = np.full(S, NEG_INF)
    init[starts] = dyadic_log(starts.size)
    return TransitionModel(init, trans, [f"p{i // 3}" for i in range(S)])


def degree_matrix(draw, rng, T, S):
    """Dyadic scores, maybe with NEG_INF cells and a 1e308 cell over two frames."""
    values = dyadic_matrix(rng, T, S)
    if draw(st.booleans()):
        values[rng.random((T, S)) < 0.2] = NEG_INF
    if draw(st.booleans()):
        t = int(rng.integers(T))
        values[t:t + 2, rng.integers(S)] = 1e308
    return values


@st.composite
def degree_cases(draw):
    """A model built column by column from drawn degrees, with a matrix,
    frame weights and a beam.

    Degrees 3, 5 and 20 round up to rows with dead slots; degree 0 leaves
    a state no predecessor; S = 1 is a single-state model. Each row moves
    uniformly to its successors, with logs on a 2^-30 grid, and scores
    are multiples of 0.25, so path scores tie exactly. Cells of 1e308
    overflow to +inf, which then meets dead slots as nan.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = degree_model(draw, rng)
    T = draw(st.integers(1, 30))
    values = degree_matrix(draw, rng, T, model.S)
    weights = None
    if draw(st.booleans()):
        weights = rng.choice([0.0, 0.5, 1.0, 3.0], size=T)
    beam = draw(st.sampled_from([None, 0.05, 1.0, 4.0]))
    return ScoreMatrix("u", values), model, weights, beam


@st.composite
def batch_cases(draw):
    """A degree-drawn model, 1 to 20 matrices of mixed lengths and a beam.

    Lengths repeat and include T = 1, so live rows end together and
    alone. A batch of fewer than GATHER_ROWS rows walks each row back
    alone; a larger one gathers every frame, some with fewer than
    GATHER_ROWS live rows. Any matrix may collapse on its NEG_INF cells or overflow on its
    1e308 ones, so some batches fail in one row or several.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = degree_model(draw, rng)
    lengths = draw(st.lists(st.sampled_from([1, 2, 3, 8, 17, 30]), min_size=1, max_size=20))
    matrices = [
        ScoreMatrix(f"u{b}", degree_matrix(draw, rng, T, model.S)) for b, T in enumerate(lengths)
    ]
    return matrices, model, draw(st.sampled_from([None, 0.05, 1.0, 4.0]))


def decode_outcome(decode, matrix, model, weights=None, beam=None):
    """What a decoder returns or raises, in comparable form."""
    try:
        res = decode(matrix, model, weights=weights, beam=beam)
    except LandmarkFramesError as e:
        return type(e), str(e)
    return res.utterance_id, res.states.dtype, res.states.tolist(), res.score, res.phones


class TestReferenceDecoder:
    @settings(max_examples=300, deadline=None)
    @given(decode_cases())
    def test_viterbi_equals_reference_loop(self, case):
        matrix, model, weights, beam = case
        got = decode_outcome(viterbi, matrix, model, weights, beam)
        assert got == decode_outcome(reference_viterbi, matrix, model, weights, beam)

    def test_collapse_names_the_first_dead_frame(self):
        values = np.zeros((6, 2))
        values[3] = NEG_INF
        with pytest.raises(BeamCollapse, match=r"^u: no surviving state at frame 3$"):
            viterbi(mat(values), uniform_model(2))

    def test_overflow_and_nan_beam_match_reference(self):
        # Both decoders reject a nan beam. 1e308 + 1e308 overflows to +inf at
        # frame 1, which both name.
        init = np.log(np.array([0.5, 0.5]))
        trans = np.array([[0.0, NEG_INF], [NEG_INF, 0.0]])
        model = TransitionModel(init, trans, ["a", "b"])
        m = mat(np.full((4, 2), 1e308))
        nan_beam = [decode_outcome(d, m, model, beam=float("nan"))
                    for d in (viterbi, reference_viterbi)]
        assert nan_beam == [(InvalidConfig, "beam must be positive, got nan")] * 2
        # An infinite beam prunes nothing; at the +inf row its threshold is nan.
        for beam in (None, 1.0, float("inf")):
            got = quiet_outcome(m, model, beam=beam)
            assert got == (ScoreOverflow, "u: path score is inf at frame 1")
            assert got == reference_outcome(m, model, beam=beam)

    def test_overflow_names_the_utterance_and_first_frame(self):
        values = np.zeros((5, 2))
        values[2:] = 1e308
        for beam in (None, 2.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ScoreOverflow, match=r"^w7: path score is inf at frame 3$"):
                    viterbi(mat(values, uid="w7"), uniform_model(2), beam=beam)


def quiet_outcome(matrix, model, weights=None, beam=None):
    """decode_outcome of viterbi, failing on any numpy RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return decode_outcome(viterbi, matrix, model, weights, beam)


def reference_outcome(matrix, model, weights=None, beam=None):
    """decode_outcome of the reference loop, which may warn on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return decode_outcome(reference_viterbi, matrix, model, weights, beam)


def sparse_model(rows, init=None):
    """A model whose row i moves uniformly to the states in rows[i]."""
    S = len(rows)
    trans = np.full((S, S), NEG_INF)
    for i, succ in enumerate(rows):
        trans[i, succ] = -np.log(len(succ))
    init = np.log(np.full(S, 1.0 / S)) if init is None else init
    return TransitionModel(init, trans, [f"p{i}" for i in range(S)])


def table_rows(model):
    """Each senone's row of the grouped predecessor table, in senone
    order: its predecessor senones and their log probabilities, slot by slot."""
    widths = [width for width, rows in model.groups for _ in range(rows)]
    rows = [None] * model.S
    for i, (start, width) in enumerate(zip(model.row_starts.tolist(), widths)):
        cells = slice(start, start + width)
        rows[model.order[i]] = (
            model.order[model.pred[cells]].tolist(), model.pred_logp[cells].tolist()
        )
    return rows


def assert_grouped_table(model):
    """The degree-grouped table holds exactly what trans says.

    Each row lists its live predecessors in ascending order, then dead
    ones; its width is the degree rounded up to a power of two, capped at
    the largest degree K; rows sit group by group, ascending within a
    group; and there are at most ceil(log2 K) + 1 groups.
    """
    S = model.S
    live = model.trans > NEG_INF
    degrees = live.sum(axis=0)
    K = int(degrees.max())
    widths = [width for width, _ in model.groups]
    assert widths == sorted(set(widths))
    assert len(widths) <= math.ceil(math.log2(K)) + 1
    assert sum(rows for _, rows in model.groups) == S
    assert sorted(model.order.tolist()) == list(range(S))
    assert (model.pos[model.order] == np.arange(S)).all()
    start = 0
    for width, rows in model.groups:
        group = model.order[start:start + rows]
        assert (np.diff(group) > 0).all()
        start += rows
    cells = [width for width, rows in model.groups for _ in range(rows)]
    assert model.row_starts.tolist() == [sum(cells[:i]) for i in range(S)]
    assert model.pred.size == model.pred_logp.size == sum(cells)
    for j, (preds, logps) in enumerate(table_rows(model)):
        d = int(degrees[j])
        assert len(preds) == min(K, 2 ** math.ceil(math.log2(max(d, 1)))) < 2 * max(d, 1)
        assert preds[:d] == np.flatnonzero(live[:, j]).tolist()
        assert logps == model.trans[preds, j].tolist()
        assert all(lp == NEG_INF for lp in logps[d:])
    for arr in (model.order, model.pos, model.row_starts, model.pred, model.pred_logp):
        assert not arr.flags.writeable


class TestPredecessorTable:
    def assert_decodes_like_reference(self, model, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            T = int(rng.integers(1, 30))
            m = ScoreMatrix("u", dyadic_matrix(rng, T, model.S))
            for beam in (None, 2.0):
                got = quiet_outcome(m, model, beam=beam)
                assert got == reference_outcome(m, model, beam=beam)

    @settings(max_examples=300, deadline=None)
    @given(degree_cases())
    def test_grouped_table_decodes_like_reference(self, case):
        matrix, model, weights, beam = case
        assert_grouped_table(model)
        with np.errstate(over="ignore", invalid="ignore"):
            got = decode_outcome(viterbi, matrix, model, weights, beam)
            assert got == decode_outcome(reference_viterbi, matrix, model, weights, beam)

    def test_rows_list_live_predecessors_in_ascending_order(self):
        model = sparse_model([[0, 1], [0, 2], [0]])
        # Columns: 0 <- {0, 1, 2}, 1 <- {0}, 2 <- {1}; K = 3.
        assert [preds for preds, _ in table_rows(model)] == [[0, 1, 2], [0], [1]]
        assert model.groups == ((1, 2), (3, 1))
        assert model.order.tolist() == [1, 2, 0]
        assert model.pos.tolist() == [2, 0, 1]
        # No degree needs rounding up, so no slot is dead.
        assert (model.pred_logp > NEG_INF).all()
        assert_grouped_table(model)

    def test_unreachable_state(self):
        # No state moves into 2, so its column is all NEG_INF and its row
        # of the table is one dead slot; it can only hold frame 0.
        model = sparse_model([[0, 1], [0, 1], [0, 1]])
        assert model.groups == ((1, 1), (3, 2))
        assert table_rows(model)[2] == ([0], [NEG_INF])
        assert_grouped_table(model)
        res = viterbi(mat([[-9.0, -9.0, 0.0], [-1.0, -2.0, 0.0]]), model)
        assert res.states.tolist() == [2, 0]
        self.assert_decodes_like_reference(model, seed=1)

    def test_fully_dense_model(self):
        rng = np.random.default_rng(2)
        init = np.log(np.full(5, 0.2))
        probs = rng.uniform(0.1, 1.0, size=(5, 5))
        model = TransitionModel(init, np.log(probs / probs.sum(axis=1, keepdims=True)),
                                list("abcde"))
        assert [preds for preds, _ in table_rows(model)] == [list(range(5))] * 5
        assert model.groups == ((5, 5),)
        assert_grouped_table(model)
        self.assert_decodes_like_reference(model, seed=2)

    def test_widest_column_belongs_to_one_state(self):
        # Every state can return to 0; the others have one or two predecessors.
        model = sparse_model([[0, 1], [0, 2], [0, 3], [0, 4], [0]])
        assert model.groups == ((1, 4), (5, 1))
        assert [sum(lp > NEG_INF for lp in logps) for _, logps in table_rows(model)] == [
            5, 1, 1, 1, 1
        ]
        assert_grouped_table(model)
        self.assert_decodes_like_reference(model, seed=3)

    def test_overflow_next_to_pad_slots(self):
        # State 0 overflows to +inf at frame 1. In the second model state 3
        # has three predecessors, so its row is rounded up to four slots and
        # the dead one is state 0: at frame 2, +inf + NEG_INF gives nan
        # there. Both decodes still name frame 1, as the reference does.
        plain = sparse_model([[0, 1], [0, 2], [0]])
        padded = sparse_model([[0, 4], [1, 3, 4], [2, 3, 4], [4], [0, 1, 2, 3]])
        preds, logps = table_rows(padded)[3]
        assert preds == [1, 2, 4, 0]
        assert logps[3] == NEG_INF
        assert_grouped_table(padded)
        for model in (plain, padded):
            values = np.zeros((5, model.S))
            values[:2, 0] = 1e308
            m = mat(values, uid="w2")
            for beam in (None, 1.0):
                got = quiet_outcome(m, model, beam=beam)
                assert got == (ScoreOverflow, "w2: path score is inf at frame 1")
                assert got == reference_outcome(m, model, beam=beam)


def row_outcome(result):
    """decode_outcome's form of one row that viterbi_batch returns."""
    if isinstance(result, LandmarkFramesError):
        return type(result), str(result)
    return result.utterance_id, result.states.dtype, result.states.tolist(), result.score, result.phones


def batch_outcome(matrices, model, beam=None, lengths=None):
    """row_outcome of each row of viterbi_batch, or the error it raises; fails on any RuntimeWarning.

    lengths defaults to the frame counts of matrices, a list then.
    """
    if lengths is None:
        lengths = [m.T for m in matrices]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            results = viterbi_batch(matrices, model, beam, lengths=lengths)
        except LandmarkFramesError as e:
            return type(e), str(e)
    return [row_outcome(r) for r in results]


class TestBatch:
    @settings(max_examples=300, deadline=None)
    @given(batch_cases())
    @example(([ScoreMatrix("u0", np.zeros((1, 2))), ScoreMatrix("u1", np.zeros((3, 2)))],
              TransitionModel(np.log([0.5, 0.5]), np.log(np.full((2, 2), 0.5)), ["a", "b"]),
              None))
    def test_rows_decode_as_alone_and_as_the_reference(self, case):
        matrices, model, beam = case
        alone = [quiet_outcome(m, model, beam=beam) for m in matrices]
        assert alone == [reference_outcome(m, model, beam=beam) for m in matrices]
        # Each row's result or error is the one it gets alone, whatever the others do.
        assert batch_outcome(matrices, model, beam) == alone

    def test_each_failing_row_keeps_its_own_error(self):
        # Row 1 dies at frame 3 and row 2 overflows at frame 1; rows sort
        # by length, so the longer row 2 runs first inside the batch.
        model = uniform_model(2)
        dead = np.zeros((5, 2))
        dead[3] = NEG_INF
        big = np.zeros((8, 2))
        big[:2] = 1e308
        rows = [mat(np.zeros((4, 2)), "a"), mat(dead, "b"), mat(big, "c")]
        errors = [(BeamCollapse, "b: no surviving state at frame 3"),
                  (ScoreOverflow, "c: path score is inf at frame 1")]
        fine = quiet_outcome(rows[0], model)
        assert batch_outcome(rows, model) == [fine, *errors]
        assert batch_outcome(rows[::-1], model) == [*errors[::-1], fine]
        assert batch_outcome([rows[0], rows[2]], model, beam=1.0) == [
            quiet_outcome(rows[0], model, beam=1.0), errors[1]
        ]

    def test_decoding_leaves_the_model_as_built(self):
        rng = np.random.default_rng(4)
        model = sparse_model([[0, 1], [1, 2], [2, 0]])
        built = copy.deepcopy(model)
        rows = [ScoreMatrix(f"u{b}", dyadic_matrix(rng, T, 3)) for b, T in enumerate([4, 9, 1, 6])]
        # A batch, then a batch of one: each tiles its own tables.
        for batch in (rows[:2], rows, rows[1:3], rows[3:]):
            alone = [quiet_outcome(m, model) for m in batch]
            assert batch_outcome(batch, model) == alone
        for f in dataclasses.fields(model):
            now, then = getattr(model, f.name), getattr(built, f.name)
            if isinstance(now, np.ndarray):
                assert np.array_equal(now, then) and not now.flags.writeable, f.name
            else:
                assert now == then, f.name

    def test_checks_and_empty_batch(self):
        model = uniform_model(2)
        assert viterbi_batch([], model, lengths=[]) == []
        assert viterbi_batch(iter([]), model, lengths=[]) == []
        with pytest.raises(ShapeError, match="matrix has 3 senones, model has 2"):
            viterbi_batch([mat(np.zeros((2, 2))), mat(np.zeros((2, 3)))], model, lengths=[2, 2])
        with pytest.raises(ShapeError, match="matrix has 3 senones, model has 2"):
            viterbi_batch(iter([mat(np.zeros((2, 3)))]), model, lengths=[2])
        with pytest.raises(ShapeError, match="u: 2 frames, expected 3"):
            viterbi_batch(iter([mat(np.zeros((2, 2)))]), model, lengths=[3])
        with pytest.raises(InvalidConfig, match="beam must be positive, got 0.0"):
            viterbi_batch([mat(np.zeros((2, 2)))], model, beam=0.0, lengths=[2])
        # The matrices and lengths count the same rows, or the batch fails
        # naming both counts; no row is read from an unfilled lattice.
        m = mat(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="^matrix count 1 differs from length count 2$"):
            viterbi_batch(iter([m]), model, lengths=[2, 5])
        with pytest.raises(ShapeError, match="^matrix count 2 differs from length count 1$"):
            viterbi_batch(iter([m, m]), model, lengths=[2])
        with pytest.raises(ShapeError, match="^matrix count 1 differs from length count 0$"):
            viterbi_batch(iter([m]), model, lengths=[])
        # A frame count below 1 or not an integer fails, naming its
        # position, before any buffer is sized.
        error = ShapeError("x")
        for batch, lengths, bad in [
            ([error], [0], "length 0 is 0"),
            ([error], [-2], "length 0 is -2"),
            ([mat(np.zeros((37, 2))), error], [37, 0], "length 1 is 0"),
            ([error], [2.5], "length 0 is 2.5"),
        ]:
            with pytest.raises(ShapeError, match=f"^{bad}, not a frame count of at least 1$"):
                viterbi_batch(batch, model, lengths=lengths)

    def test_rows_read_once_in_input_order_and_errors_pass_through(self):
        # Given lengths, the rows come from a generator that holds no
        # matrix; an error in a row's place is that row's outcome.
        rng = np.random.default_rng(7)
        model = dyadic_model(rng, 4)
        lengths = [3, 12, 1, 12, 7, 9, 2, 5, 11, 4]
        matrices = [ScoreMatrix(f"u{b}", dyadic_matrix(rng, T, 4)) for b, T in enumerate(lengths)]
        refused = InvalidPattern("u4: replace: refused")
        read = []

        def rows():
            for b, matrix in enumerate(matrices):
                read.append(b)
                yield refused if b == 4 else matrix

        got = batch_outcome(rows(), model, lengths=lengths)
        assert read == list(range(len(lengths)))
        want = [quiet_outcome(m, model) for m in matrices]
        want[4] = (InvalidPattern, "u4: replace: refused")
        assert got == want


def dense_model(S):
    """Every senone moves to every senone with one dyadic log probability,
    so each row of the predecessor table has S * S cells and every
    predecessor ties."""
    logp = dyadic_log(S)
    return TransitionModel(np.full(S, logp), np.full((S, S), logp), [f"p{i // 4}" for i in range(S)])


class TestBackPointerWidths:
    """Back-pointers take the narrowest type that holds a cell index of a
    row of the predecessor table."""

    @pytest.mark.parametrize("cells, dtype", [
        (1, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
        (2**31 - 1, np.int32),
    ])
    def test_index_type(self, cells, dtype):
        assert index_type(cells) is dtype

    @pytest.mark.parametrize("S", [11, 12, 200])
    def test_dense_models_decode_like_the_reference(self, S):
        # P = S * S: 121 cells take int8, 144 int16 and 40,000 int32.
        model = dense_model(S)
        assert model.pred.size == S * S
        rng = np.random.default_rng(S)
        lengths = [6, 1, 10, 6, 3, 9, 2, 8, 5]
        matrices = []
        for b, T in enumerate(lengths):
            # Scores on a quarter grid tie between states.
            values = dyadic_matrix(rng, T, S)
            if b == 3:
                values[4] = NEG_INF  # collapses at frame 4
            matrices.append(ScoreMatrix(f"u{b}", values))
        collapse = (BeamCollapse, "u3: no surviving state at frame 4")
        assert reference_outcome(matrices[3], model) == collapse
        for beam in (None, 0.5, 3.0):
            want = [reference_outcome(m, model, beam=beam) for m in matrices]
            assert [quiet_outcome(m, model, beam=beam) for m in matrices] == want
            # The first GATHER_ROWS - 1 rows walk back alone. The larger
            # batches gather every frame, also each from 1 or 2 on, where
            # fewer than GATHER_ROWS rows are live: 7 down to 1.
            for n in (GATHER_ROWS - 1, GATHER_ROWS, GATHER_ROWS + 1):
                assert batch_outcome(matrices[:n], model, beam) == want[:n]


class TestSequenceScore:
    def test_matches_viterbi_score(self):
        rng = np.random.default_rng(5)
        model = dyadic_model(rng, 3)
        m = ScoreMatrix("u", rng.normal(size=(9, 3)))
        weights = rng.uniform(0.5, 1.5, size=9)
        res = viterbi(m, model, weights=weights)
        score = sequence_score(m.values, model.init, model.trans, res.states, weights)
        assert score == pytest.approx(res.score, abs=1e-9)

    def test_no_other_path_scores_higher(self):
        rng = np.random.default_rng(6)
        model = dyadic_model(rng, 2)
        m = ScoreMatrix("u", rng.normal(size=(5, 2)))
        best = viterbi(m, model).score
        for code in range(2**5):
            path = [(code >> t) & 1 for t in range(5)]
            assert sequence_score(m.values, model.init, model.trans, path) <= best + 1e-9


def test_decode_result_is_dataclass():
    res = DecodeResult("u", np.array([0]), -1.0, ["a"])
    assert res.utterance_id == "u"
