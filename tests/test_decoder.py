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
    UnknownSenone,
    Utterance,
    collapse_states,
    read_transition_model,
    viterbi,
    write_transition_model,
)
from oracles import (
    dyadic_matrix,
    dyadic_uniform_model,
    enumerate_viterbi,
    reference_collapse,
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
    task = (0, FrameMask(np.zeros(T, dtype=bool)), np.ones(T), "copy", None, False)
    _, hyp, _ = experiment._score_one(corpus, task)
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
        def outcome(collapse):
            try:
                return collapse(np.array(states, dtype=np.int64), phones)
            except UnknownSenone as e:
                return type(e), str(e)

        assert outcome(collapse_states) == outcome(reference_collapse)


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
        for beam in (None, 1.0):
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


class TestPredecessorTable:
    def assert_decodes_like_reference(self, model, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            T = int(rng.integers(1, 30))
            m = ScoreMatrix("u", dyadic_matrix(rng, T, model.S))
            for beam in (None, 2.0):
                got = quiet_outcome(m, model, beam=beam)
                assert got == reference_outcome(m, model, beam=beam)

    def test_rows_list_live_predecessors_in_ascending_order(self):
        model = sparse_model([[0, 1], [0, 2], [0]])
        # Columns: 0 <- {0, 1, 2}, 1 <- {0}, 2 <- {1}; K = 3.
        assert model.pred.tolist() == [[0, 1, 2], [0, 1, 2], [1, 0, 2]]
        live = model.pred_logp > NEG_INF
        assert live.tolist() == [[True] * 3, [True, False, False], [True, False, False]]
        assert (model.pred_logp == model.trans[model.pred, np.arange(3)[:, None]]).all()
        for arr in (model.pred, model.pred_logp):
            assert not arr.flags.writeable

    def test_unreachable_state(self):
        # No state moves into 2, so its column is all NEG_INF and its row
        # of the table is all padding; it can only hold frame 0.
        model = sparse_model([[0, 1], [0, 1], [0, 1]])
        assert model.pred.shape == (3, 3)
        assert (model.pred_logp[2] == NEG_INF).all()
        res = viterbi(mat([[-9.0, -9.0, 0.0], [-1.0, -2.0, 0.0]]), model)
        assert res.states.tolist() == [2, 0]
        self.assert_decodes_like_reference(model, seed=1)

    def test_fully_dense_model(self):
        rng = np.random.default_rng(2)
        init = np.log(np.full(5, 0.2))
        probs = rng.uniform(0.1, 1.0, size=(5, 5))
        model = TransitionModel(init, np.log(probs / probs.sum(axis=1, keepdims=True)),
                                list("abcde"))
        assert model.pred.tolist() == [list(range(5))] * 5
        self.assert_decodes_like_reference(model, seed=2)

    def test_widest_column_belongs_to_one_state(self):
        # Every state can return to 0; the others have one or two predecessors.
        model = sparse_model([[0, 1], [0, 2], [0, 3], [0, 4], [0]])
        assert model.pred.shape == (5, 5)
        assert ((model.pred_logp > NEG_INF).sum(axis=1) == [5, 1, 1, 1, 1]).all()
        self.assert_decodes_like_reference(model, seed=3)

    def test_overflow_next_to_pad_slots(self):
        # State 0 overflows to +inf at frame 1. At frame 2, state 0 is a pad
        # slot of state 2, so +inf + NEG_INF gives nan there; the decode
        # still names frame 1, as the reference does.
        model = sparse_model([[0, 1], [0, 2], [0]])
        assert model.pred[2].tolist() == [1, 0, 2]
        values = np.zeros((5, 3))
        values[:2, 0] = 1e308
        m = mat(values, uid="w2")
        for beam in (None, 1.0):
            got = quiet_outcome(m, model, beam=beam)
            assert got == (ScoreOverflow, "w2: path score is inf at frame 1")
            assert got == reference_outcome(m, model, beam=beam)


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
