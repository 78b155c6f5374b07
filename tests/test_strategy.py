import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landmark_frames import (
    LANDMARK_TYPES,
    NEG_INF,
    REPLACEMENT_METHODS,
    ExperimentConfig,
    FrameMask,
    InvalidConfig,
    InvalidPattern,
    LandmarkSet,
    ScoreMatrix,
    ScoreOverflow,
    ShapeError,
    StrategySpec,
    TransitionModel,
    adjust_mask_to_rate,
    apply_replacement,
    apply_weights,
    design_interp_filter,
    mask_random,
    mask_regular,
    parse_strategy,
    realize_strategy,
    viterbi,
)
from landmark_frames import strategy
from landmark_frames.strategy import INTERP_TAPS
from oracles import (
    reference_adjust_mask_to_rate,
    reference_copy,
    reference_frame_map,
    reference_landmark_frames,
    reference_realize,
    reference_upsample,
)


def mat(rows, uid="u"):
    return ScoreMatrix(uid, np.asarray(rows, dtype=np.float64))


def keep_all(num_frames):
    return FrameMask(np.zeros(num_frames, dtype=bool))


class TestRegularMask:
    @pytest.mark.parametrize(
        "T,P,D,expect",
        [
            (6, 2, 1, [0, 2, 4]),
            (9, 3, 1, [0, 3, 6]),
            (9, 3, 2, [0, 1, 3, 4, 6, 7]),
            (7, 4, 3, [0, 1, 2, 4, 5, 6]),
        ],
    )
    def test_pinned_drop_sets(self, T, P, D, expect):
        mask = mask_regular(T, P, D)
        assert mask.dropped_frames().tolist() == expect

    def test_count_formula_across_grid(self):
        for T in range(1, 30):
            for P in range(2, 7):
                for D in range(1, P):
                    mask = mask_regular(T, P, D)
                    assert mask.n_dropped == (T // P) * D + min(T % P, D)

    @pytest.mark.parametrize("P,D", [(1, 0), (2, 0), (2, 2), (3, 3), (0, 1)])
    def test_invalid_period_drop(self, P, D):
        with pytest.raises(InvalidPattern):
            mask_regular(10, P, D)


class TestRandomMask:
    def test_exact_count_and_determinism(self):
        a = mask_random(50, 20, seed=7)
        b = mask_random(50, 20, seed=7)
        assert a.n_dropped == 20
        assert (a.dropped == b.dropped).all()
        c = mask_random(50, 20, seed=8)
        assert (a.dropped != c.dropped).any()

    def test_infeasible(self):
        with pytest.raises(InvalidPattern, match="^cannot drop 11 of 10 frames$"):
            mask_random(10, 11, seed=0)
        with pytest.raises(InvalidPattern):
            mask_random(10, -1, seed=0)

    def test_zero_drops(self):
        assert mask_random(10, 0, seed=0).n_dropped == 0


def landmarks_at(*frames):
    return LandmarkSet("u", [(f, "V") for f in frames])


def realized(text, num_frames, *frames):
    return realize_strategy(parse_strategy(text), num_frames, landmarks=landmarks_at(*frames))


class TestLandmarkMask:
    def test_keep_regime(self):
        mask, _, _ = realized("landmark:keep", 8, 2, 5)
        assert mask.dropped_frames().tolist() == [0, 1, 3, 4, 6, 7]

    def test_drop_regime(self):
        mask, _, _ = realized("landmark:drop", 8, 2, 5)
        assert mask.dropped_frames().tolist() == [2, 5]

    def test_keep_with_no_landmarks_warns(self):
        for text in ("landmark:keep", "random:match=keep,seed=0"):
            with pytest.warns(UserWarning, match="no landmark frames"):
                mask, _, _ = realized(text, 4)
            assert mask.n_dropped == 4

    def test_bad_regime(self):
        # A regime enters only through the grammar, which refuses anything else.
        for text in ("landmark:mode=invert", "random:match=invert"):
            with pytest.raises(InvalidPattern, match="regime must be keep or drop"):
                parse_strategy(text)


class TestMaskAlgebra:
    def test_or_union(self):
        mask, _, _ = realized("regular:P=2,D=1+landmark:drop", 6, 1)
        assert mask.dropped_frames().tolist() == [0, 1, 2, 4]

    def test_subtract_clears_protected(self):
        mask, _, _ = realized("hybrid:P=2,D=1,overweight=1.0", 6, 2)
        assert mask.dropped_frames().tolist() == [0, 4]

    def test_subtract_noop_for_kept_frames(self):
        mask, _, _ = realized("hybrid:P=2,D=1,overweight=1.0", 6, 1, 3)
        assert (mask.dropped == mask_regular(6, 2, 1).dropped).all()


@st.composite
def _adjust_cases(draw):
    """(dropped, protected map, target count, seed): delta 0, up, down or out of range."""
    T = draw(st.integers(1, 40))
    dropped = np.array(draw(st.lists(st.booleans(), min_size=T, max_size=T)))
    protected = draw(st.sampled_from(["none", "all", "some"]))
    if protected == "some":
        protected = np.array(draw(st.lists(st.booleans(), min_size=T, max_size=T)))
    else:
        protected = np.full(T, protected == "all")
    target_n = draw(st.one_of(st.just(int(dropped.sum())), st.integers(-1, T + 1)))
    return dropped, protected, target_n, draw(st.integers(0, 2**32))


class TestAdjustMaskToRate:
    def test_grow_is_superset(self):
        base = mask_regular(20, 4, 1)
        out = adjust_mask_to_rate(base, 9, seed=3)
        assert out.n_dropped == 9
        assert (base.dropped <= out.dropped).all()

    def test_shrink_is_subset(self):
        base = mask_regular(20, 2, 1)
        out = adjust_mask_to_rate(base, 4, seed=3)
        assert out.n_dropped == 4
        assert (out.dropped <= base.dropped).all()

    def test_exact_count_is_identity(self):
        base = mask_regular(20, 2, 1)
        out = adjust_mask_to_rate(base, base.n_dropped, seed=3)
        assert (out.dropped == base.dropped).all()

    def test_protected_frames_untouched(self):
        base = keep_all(10)
        protected = np.arange(10) < 3
        out = adjust_mask_to_rate(base, 7, protected=protected, seed=1)
        assert out.n_dropped == 7
        assert not out.dropped[protected].any()

    def test_infeasible_with_protection(self):
        with pytest.raises(InvalidPattern):
            adjust_mask_to_rate(keep_all(10), 8, protected=np.arange(10) < 3, seed=0)

    def test_target_out_of_range(self):
        with pytest.raises(InvalidPattern):
            adjust_mask_to_rate(keep_all(10), 11)

    def test_deterministic(self):
        base = mask_regular(30, 3, 1)
        a = adjust_mask_to_rate(base, 15, seed=9)
        b = adjust_mask_to_rate(base, 15, seed=9)
        assert (a.dropped == b.dropped).all()

    def test_protected_map_must_cover_the_mask(self):
        with pytest.raises(ShapeError):
            adjust_mask_to_rate(keep_all(10), 3, protected=np.zeros(9, dtype=bool))

    @settings(max_examples=300, deadline=None)
    @given(_adjust_cases())
    @example((np.zeros(6, dtype=bool), np.eye(6, dtype=bool)[5], 5, 0))  # not frames 0 and 1
    @example((np.zeros(6, dtype=bool), np.ones(6, dtype=bool), 2, 0))  # full protected set
    @example((np.ones(6, dtype=bool), np.ones(6, dtype=bool), 3, 0))
    @example((np.ones(6, dtype=bool), np.zeros(6, dtype=bool), 0, 1))  # empty protected set
    @example((np.eye(6, dtype=bool)[2], np.zeros(6, dtype=bool), 1, 7))  # delta 0
    def test_equals_reference_on_indices_and_maps(self, case):
        dropped, protected, target_n, seed = case
        mask = FrameMask(dropped)

        def outcome(adjust, prot):
            try:
                return adjust(mask, target_n, prot, seed=seed).dropped.tobytes()
            except InvalidPattern as e:
                return str(e)

        want = outcome(reference_adjust_mask_to_rate, np.flatnonzero(protected))
        assert outcome(adjust_mask_to_rate, protected) == want
        # Frame indices are refused rather than read as a map.
        with pytest.raises(ShapeError, match="must be a boolean map"):
            adjust_mask_to_rate(mask, target_n, np.flatnonzero(protected), seed=seed)


class TestInterpFilter:
    @pytest.mark.parametrize("period", range(2, 9))
    def test_designed_filter_invariants(self, period):
        taps = design_interp_filter(period)
        assert taps.shape == (INTERP_TAPS,)
        assert np.allclose(taps, taps[::-1])
        half = INTERP_TAPS // 2
        k = np.arange(INTERP_TAPS) - half
        on_coset = k % period == 0
        assert taps[half] == 1.0
        assert (taps[on_coset & (k != 0)] == 0.0).all()
        assert taps[~on_coset].sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("period", [0, 1, 9, 100])
    def test_period_bounds(self, period):
        with pytest.raises(InvalidPattern):
            design_interp_filter(period)


@st.composite
def _copy_cases(draw):
    """A score matrix with NEG_INF cells and a drop mask at a rate from 0.1 to 1."""
    T = draw(st.integers(1, 30))
    S = draw(st.integers(1, 5))
    cell = st.one_of(st.floats(-50.0, 0.0), st.just(NEG_INF))
    values = np.array(draw(st.lists(st.lists(cell, min_size=S, max_size=S),
                                    min_size=T, max_size=T)))
    rate = draw(st.sampled_from([0.1, 0.3, 0.5, 0.9, 1.0]))
    dropped = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=T, max_size=T))) < rate
    return values, dropped


@st.composite
def _upsample_cases(draw):
    """A matrix with NEG_INF cells, a drop-1-in-P period and the taps to use.

    P runs from 2 to min(8, T); at P == T frame 0 is the only drop. Half
    the cases swap the designed filter for taps on a 1/4 grid, so windows
    whose sum is exactly zero come up.
    """
    T = draw(st.integers(2, 40))
    period = draw(st.integers(2, min(8, T)))
    S = draw(st.integers(1, 4))
    cell = st.one_of(st.floats(-50.0, 50.0), st.just(NEG_INF))
    values = np.array(draw(st.lists(st.lists(cell, min_size=S, max_size=S),
                                    min_size=T, max_size=T)))
    if draw(st.booleans()):
        values[:, draw(st.integers(0, S - 1))] = NEG_INF
    if draw(st.booleans()):
        grid = st.lists(st.integers(-2, 2), min_size=INTERP_TAPS, max_size=INTERP_TAPS)
        return values, period, np.array(draw(grid)) / 4.0
    return values, period, design_interp_filter(period)


# Frame 2 of 5 at P=2 sees frames 1 and 3 through taps 0.5 and -0.5: a zero window sum.
_CANCELLING_TAPS = np.full(INTERP_TAPS, 0.25)
_CANCELLING_TAPS[INTERP_TAPS // 2 - 1] = 0.5
_CANCELLING_TAPS[INTERP_TAPS // 2 + 1] = -0.5


class TestReplacement:
    def test_copy_repeats_most_recent_kept(self):
        m = mat([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        mask = FrameMask(np.array([False, True, False]))
        out = apply_replacement(m, mask, "copy")
        assert out.values.tolist() == [[1.0, 2.0], [1.0, 2.0], [5.0, 6.0]]

    def test_copy_leading_drop_uses_column_means(self):
        m = mat([[2.0], [4.0], [6.0]])
        mask = FrameMask(np.array([True, False, False]))
        out = apply_replacement(m, mask, "copy")
        assert out.values[0, 0] == pytest.approx(4.0)

    @given(_copy_cases())
    @example((np.array([[1.0, NEG_INF], [2.0, 3.0], [4.0, 5.0]]), np.array([True, True, False])))
    @example((np.array([[1.0, -2.0], [NEG_INF, 3.0]]), np.array([True, True])))
    @example((np.array([[NEG_INF], [-1.0], [-2.0]]), np.array([False, True, True])))
    def test_copy_equals_frame_loop(self, case):
        values, dropped = case
        out = apply_replacement(mat(values), FrameMask(dropped), "copy")
        assert out.values.tobytes() == reference_copy(values, dropped).tobytes()

    def test_fill_0(self):
        m = mat([[-1.5], [-2.5]])
        mask = FrameMask(np.array([True, False]))
        out = apply_replacement(m, mask, "fill_0")
        assert out.values.tolist() == [[0.0], [-2.5]]

    def test_fill_const_means_over_all_input_frames(self):
        m = mat([[-1.0], [-3.0]])
        mask = FrameMask(np.array([False, True]))
        out = apply_replacement(m, mask, "fill_const")
        assert out.values.tolist() == [[-1.0], [-2.0]]

    def test_upsample_reconstructs_constant(self):
        T = 24
        m = mat(np.full((T, 3), -2.0))
        mask = mask_regular(T, 2, 1)
        out = apply_replacement(m, mask, "upsample")
        assert np.abs(out.values + 2.0).max() < 1e-9

    def test_upsample_keeps_retained_rows_bit_exact(self):
        rng = np.random.default_rng(4)
        m = mat(rng.normal(size=(20, 5)))
        mask = mask_regular(20, 4, 1)
        out = apply_replacement(m, mask, "upsample")
        kept = np.flatnonzero(~mask.dropped)
        assert (out.values[kept] == m.values[kept]).all()

    def test_upsample_rejects_non_coset_mask(self):
        mask = FrameMask(np.array([False, True, False, False]))
        with pytest.raises(InvalidPattern):
            apply_replacement(mat(np.zeros((4, 2))), mask, "upsample")

    def test_upsample_neg_inf_is_absorbing(self):
        values = np.full((8, 2), -1.0)
        values[1, 0] = NEG_INF
        mask = mask_regular(8, 2, 1)
        out = apply_replacement(mat(values), mask, "upsample")
        assert out.values[0, 0] == NEG_INF
        assert out.values[0, 1] == pytest.approx(-1.0, abs=1e-9)

    @given(_upsample_cases())
    @example((np.array([[1.0, NEG_INF], [-2.0, NEG_INF], [3.0, -0.5], [0.0, -1.0], [-4.0, 2.0]]),
              2, _CANCELLING_TAPS))
    @example((np.array([[1.0], [-2.0]]), 2, np.zeros(INTERP_TAPS)))
    # A window of -0.0 cells: a fold from 0.0 gives +0.0, one from the first term -0.0.
    @example((np.full((6, 1), -0.0), 2, np.full(INTERP_TAPS, 0.25)))
    @example((np.array([[0.5, NEG_INF], [-1.0, NEG_INF], [2.0, NEG_INF]]), 3,
              design_interp_filter(3)))
    @example((np.arange(38.0).reshape(19, 2) - 20.0, 8, design_interp_filter(8)))
    @settings(max_examples=300, deadline=None)
    def test_upsample_equals_cell_loop(self, case):
        values, period, taps = case
        mask = mask_regular(len(values), period, 1)
        asked = []

        def filter_for(p):
            asked.append(p)
            return taps

        with patch.object(strategy, "design_interp_filter", filter_for):
            out = apply_replacement(mat(values), mask, "upsample").values
        assert asked == [period]
        want = reference_upsample(values, mask.dropped, taps)
        np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))

    def test_unknown_method(self):
        with pytest.raises(InvalidPattern):
            apply_replacement(mat(np.zeros((4, 2))), keep_all(4), "splice")

    def test_mask_matrix_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_replacement(mat(np.zeros((4, 2))), keep_all(5), "fill_0")

    def test_empty_mask_returns_equal_values(self):
        m = mat([[1.0, 2.0], [3.0, 4.0]])
        out = apply_replacement(m, keep_all(2), "fill_0")
        assert out is m

    @pytest.mark.parametrize("method", REPLACEMENT_METHODS)
    def test_input_untouched_and_output_read_only(self, method):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(18, 4))
        values[4, 1] = NEG_INF
        m = mat(values)
        out = apply_replacement(m, mask_regular(18, 3, 1), method)
        assert m.values.tobytes() == values.tobytes()
        assert not m.values.flags.writeable
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, m.values)

    @pytest.mark.parametrize("method", ["copy", "fill_0", "fill_const", "upsample"])
    def test_kept_rows_untouched(self, method):
        rng = np.random.default_rng(11)
        m = mat(rng.normal(size=(18, 4)))
        mask = mask_regular(18, 3, 1)
        out = apply_replacement(m, mask, method)
        kept = np.flatnonzero(~mask.dropped)
        assert (out.values[kept] == m.values[kept]).all()


class TestWeights:
    def test_landmark_weights(self):
        _, w, _ = realized("overweight:factor=2.5", 5, 1, 3)
        assert w.tolist() == [1.0, 2.5, 1.0, 2.5, 1.0]

    def test_negative_factor(self):
        # A factor enters only through the grammar, which refuses a negative one.
        for text in ("overweight:factor=-0.5", "hybrid:P=2,D=1,overweight=-0.5"):
            with pytest.raises(InvalidPattern, match="must be finite and >= 0"):
                parse_strategy(text)

    def test_factor_product_past_float_range_is_refused(self):
        with pytest.raises(InvalidPattern, match="multiply past the float range"):
            realized("overweight:factor=1e200+overweight:factor=1e200", 5, 1)
        _, w, _ = realized("overweight:factor=1e200+overweight:factor=1e-200", 5, 1)
        assert w[1] == 1e200 * 1e-200

    def test_apply_overflow_names_utterance_and_frame(self):
        m = mat(np.full((2, 2), 1e308), uid="utt7")
        with pytest.raises(ScoreOverflow, match=r"^utt7: weighted score overflows at frame 0$"):
            apply_weights(m, np.array([2.0, 1.0]))
        # A negative score that overflows must not pass for the NEG_INF sentinel.
        m = mat([[-1.0, -2.0], [-1e308, NEG_INF]], uid="utt8")
        with pytest.raises(ScoreOverflow, match=r"^utt8: weighted score overflows at frame 1$"):
            apply_weights(m, np.array([3.0, 2.0]))

    def test_viterbi_weights_overflow_names_utterance(self):
        model = TransitionModel(np.log([0.5, 0.5]), np.log(np.full((2, 2), 0.5)), ["a", "b"])
        with pytest.raises(ScoreOverflow, match=r"^utt7: weighted score overflows at frame 0$"):
            viterbi(mat(np.full((2, 2), 1e308), uid="utt7"), model, weights=np.array([2.0, 1.0]))

    def test_apply_scales_rows(self):
        m = mat([[-2.0, -4.0], [-1.0, -3.0]])
        out = apply_weights(m, np.array([2.0, 1.0]))
        assert out.values.tolist() == [[-4.0, -8.0], [-1.0, -3.0]]

    def test_apply_neg_inf_stays(self):
        m = mat([[NEG_INF, -1.0]])
        out = apply_weights(m, np.array([0.5]))
        assert out.values[0, 0] == NEG_INF
        assert out.values[0, 1] == -0.5

    def test_apply_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_weights(mat([[0.0], [0.0]]), np.ones(3))

    def test_apply_rejects_bad_weights(self):
        with pytest.raises(InvalidConfig):
            apply_weights(mat([[0.0]]), np.array([-1.0]))
        with pytest.raises(InvalidConfig):
            apply_weights(mat([[0.0]]), np.array([np.inf]))

    def test_unit_weights_return_the_input(self):
        m = mat([[NEG_INF, -1.5], [0.0, -3.0]])
        assert apply_weights(m, np.ones(2)) is m
        assert apply_weights(m, [1, 1]) is m
        assert apply_weights(m, np.array([1.0, 0.5])) is not m

    def test_unit_weights_still_validated(self):
        m = mat([[0.0], [-1.0]])
        for bad in ([1.0, -1.0], [1.0, np.nan], [1.0, np.inf]):
            with pytest.raises(InvalidConfig):
                apply_weights(m, np.array(bad))
        for shape in (np.ones(1), np.ones(3), np.ones((2, 1))):
            with pytest.raises(ShapeError):
                apply_weights(m, shape)


_RADIUS = {"r": st.integers(0, 5)}
_FACTOR = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_SEED = st.integers(0, 2**63 - 1)


def _part(kind, required, optional=None):
    return st.fixed_dictionaries(required, optional=optional or {}).map(lambda p: (kind, p))


def _periodic(kind, extra=None):
    return st.integers(2, 9).flatmap(
        lambda P: _part(kind, {"P": st.just(P), "D": st.integers(1, P - 1), **(extra or {})})
    )


# Valid parts of every kind the grammar accepts.
_PARTS = st.one_of(
    _part("identity", {}),
    _periodic("regular"),
    st.one_of(
        _part("random", {"rate": st.floats(0.0, 1.0)}, {"seed": _SEED}),
        _part("random", {"n": st.integers(0, 10**6)}, {"seed": _SEED}),
        _part("random", {"match": st.sampled_from(["keep", "drop"])}, {**_RADIUS, "seed": _SEED}),
    ),
    _part("landmark", {"mode": st.sampled_from(["keep", "drop"])}, _RADIUS),
    _periodic("hybrid", {"overweight": _FACTOR}),
    _part("overweight", {"factor": _FACTOR}, _RADIUS),
)


class TestGrammar:
    ROUND_TRIPS = [
        "identity",
        "regular:P=2,D=1",
        "regular:P=3,D=2,method=fill_0",
        "random:rate=0.5",
        "random:n=12,seed=7",
        "random:match=keep,r=1,seed=7",
        "landmark:keep",
        "landmark:drop,r=2",
        "regular:P=3,D=2+landmark:keep",
        "hybrid:P=2,D=1,overweight=1.5",
        "overweight:factor=3.0",
        "overweight:factor=3.0,r=1,method=upsample",
        "overweight:factor=1e16",
    ]

    @pytest.mark.parametrize("text", ["regular:P=2,\nD=1", "landmark:keep\n", "identity\r"])
    def test_line_break_refused(self, text):
        with pytest.raises(InvalidPattern, match="holds a line break"):
            parse_strategy(text)

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_render_round_trip(self, text):
        spec = parse_strategy(text)
        again = parse_strategy(spec.render())
        assert again.parts == spec.parts
        assert again.method == spec.method

    @given(st.lists(_PARTS, min_size=1, max_size=3), st.sampled_from(REPLACEMENT_METHODS))
    def test_render_round_trip_property(self, parts, method):
        spec = StrategySpec("", parts, method)
        again = parse_strategy(spec.render())
        assert again.parts == spec.parts
        assert again.method == spec.method

    @pytest.mark.parametrize(
        "text, canonical",
        [
            ("overweight:r=1,factor=2", "overweight:factor=2.0,r=1"),
            ("hybrid:r=1,overweight=2,D=1,P=3", "hybrid:P=3,D=1,overweight=2.0,r=1"),
            ("random:seed=3,n=4", "random:n=4,seed=3"),
            (
                "landmark:drop,r=2+regular:P=4,D=1,method=fill_0",
                "landmark:drop,r=2,method=fill_0+regular:P=4,D=1",
            ),
            ("random: match = keep , seed = 7", "random:match=keep,seed=7"),
            ("landmark:mode=keep", "landmark:keep"),
            ("identity:", "identity"),
        ],
    )
    def test_canonical_render(self, text, canonical):
        assert parse_strategy(text).render() == canonical

    def test_repeated_key_is_named(self):
        with pytest.raises(InvalidPattern, match="'P' given twice"):
            parse_strategy("regular:P=2,P=3,D=1")
        with pytest.raises(InvalidPattern, match="'mode' given twice"):
            parse_strategy("landmark:keep,drop")

    def test_default_method_is_copy(self):
        assert parse_strategy("regular:P=2,D=1").method == "copy"

    def test_landmark_mode_shorthand(self):
        spec = parse_strategy("landmark:keep")
        assert spec.parts == [("landmark", {"mode": "keep"})]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "  ",
            "rotate:P=2",
            "regular:P=2",
            "regular:D=1",
            "random:rate=1.5",
            "random:rate=0.5,n=3",
            "random",
            "landmark",
            "landmark:sideways",
            "hybrid:P=2,D=1",
            "overweight",
            "regular:P=2,D=1,method=zero",
            "regular:P=2,D=1,method=copy+random:n=1,seed=0,method=fill_0",
            "regular:P=x,D=1",
            "regular:P=2,D=1,flavor=mild",
            "random:n=1,seed=0,keep",
            "regular:P=1,D=1",
            "regular:P=3,D=3",
            "hybrid:P=2,D=2,overweight=1.5",
            "overweight:factor=-1.0",
            "overweight:factor=nan",
            "overweight:factor=inf",
            "hybrid:P=2,D=1,overweight=nan",
            "hybrid:P=2,D=1,overweight=inf",
            "landmark:keep,",
            "regular:,P=2,D=1",
            "landmark:keep=1",
            "regular:P=2,P=3,D=1",
            "landmark:keep,drop",
            "landmark:mode=x,keep",
            "random:rate=0.5,r=2",
            "random:n=3,r=1",
        ],
    )
    def test_rejects_bad_strings(self, text):
        with pytest.raises(InvalidPattern):
            parse_strategy(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("random:n=3,seed=-1", "seed"),
            ("random:n=-1", "n"),
            ("random:match=keep,r=-1", "r"),
            ("landmark:keep,r=-1", "r"),
            ("hybrid:P=2,D=1,overweight=1.5,r=-1", "r"),
            ("overweight:factor=2.0,r=-1", "r"),
        ],
    )
    def test_negative_numbers_refused_as_parsed(self, text, key):
        # Refused before any corpus is built, not by the first utterance it realizes.
        message = f"^{key} must be finite and >= 0, got -1$"
        with pytest.raises(InvalidPattern, match=message):
            parse_strategy(text)
        with pytest.raises(InvalidPattern, match=message):
            ExperimentConfig(strategies=[text])

    def test_needs_flags(self):
        assert not parse_strategy("identity").needs_landmarks()
        assert parse_strategy("landmark:keep").needs_landmarks()
        assert parse_strategy("overweight:factor=2.0").needs_landmarks()
        assert parse_strategy("random:match=drop,seed=1").needs_landmarks()
        assert parse_strategy("random:n=3").needs_rng()
        assert not parse_strategy("random:n=3,seed=1").needs_rng()


class TestRealize:
    LMS = LandmarkSet("u", [(2, "V"), (6, "Fc")])

    def test_identity(self):
        mask, weights, _ = realize_strategy(parse_strategy("identity"), 8)
        assert mask.n_dropped == 0
        assert weights.tolist() == [1.0] * 8

    def test_regular_part(self):
        mask, weights, _ = realize_strategy(parse_strategy("regular:P=2,D=1"), 6)
        assert mask.dropped_frames().tolist() == [0, 2, 4]
        assert (weights == 1.0).all()

    def test_random_rate_rounds_to_nearest(self):
        mask, _, _ = realize_strategy(parse_strategy("random:rate=0.5,seed=3"), 9)
        assert mask.n_dropped == 5
        mask, _, _ = realize_strategy(parse_strategy("random:rate=0.25,seed=3"), 8)
        assert mask.n_dropped == 2

    def test_random_match_copies_landmark_count(self):
        spec = parse_strategy("random:match=drop,seed=5")
        mask, _, _ = realize_strategy(spec, 10, landmarks=self.LMS)
        assert mask.n_dropped == 2
        spec = parse_strategy("random:match=keep,seed=5")
        mask, _, _ = realize_strategy(spec, 10, landmarks=self.LMS)
        assert mask.n_dropped == 8

    def test_random_match_respects_radius(self):
        spec = parse_strategy("random:match=drop,r=1,seed=5")
        mask, _, _ = realize_strategy(spec, 10, landmarks=self.LMS)
        assert mask.n_dropped == 6

    def test_landmark_keep(self):
        mask, _, _ = realize_strategy(parse_strategy("landmark:keep"), 10, landmarks=self.LMS)
        assert np.flatnonzero(~mask.dropped).tolist() == [2, 6]

    def test_landmark_widen(self):
        mask, _, _ = realize_strategy(parse_strategy("landmark:keep,r=1"), 10, landmarks=self.LMS)
        assert np.flatnonzero(~mask.dropped).tolist() == [1, 2, 3, 5, 6, 7]

    def test_hybrid_protects_landmarks_and_boosts(self):
        spec = parse_strategy("hybrid:P=2,D=1,overweight=1.5")
        mask, weights, _ = realize_strategy(spec, 10, landmarks=self.LMS)
        assert 2 not in mask.dropped_frames()
        assert 6 not in mask.dropped_frames()
        assert mask.dropped_frames().tolist() == [0, 4, 8]
        assert weights[2] == 1.5 and weights[6] == 1.5
        assert weights[0] == 1.0

    def test_overweight_only(self):
        spec = parse_strategy("overweight:factor=3.0")
        mask, weights, _ = realize_strategy(spec, 10, landmarks=self.LMS)
        assert mask.n_dropped == 0
        assert weights[2] == 3.0 and weights[6] == 3.0
        assert weights.sum() == pytest.approx(8 + 6.0)

    def test_parts_or_combine(self):
        spec = parse_strategy("regular:P=3,D=1+landmark:drop")
        mask, _, _ = realize_strategy(spec, 10, landmarks=self.LMS)
        assert mask.dropped_frames().tolist() == [0, 2, 3, 6, 9]

    def test_missing_landmarks(self):
        with pytest.raises(InvalidConfig):
            realize_strategy(parse_strategy("landmark:keep"), 10)

    def test_missing_rng(self):
        with pytest.raises(InvalidConfig):
            realize_strategy(parse_strategy("random:n=2"), 10)

    def test_seeded_random_without_rng(self):
        mask, _, _ = realize_strategy(parse_strategy("random:n=2,seed=4"), 10)
        assert mask.n_dropped == 2

    def test_unseeded_random_draws_from_rng(self):
        spec = parse_strategy("random:n=3")
        a, _, _ = realize_strategy(spec, 12, rng=np.random.default_rng(1))
        b, _, _ = realize_strategy(spec, 12, rng=np.random.default_rng(1))
        assert (a.dropped == b.dropped).all()


_EVENTS = st.lists(st.tuples(st.integers(0, 40), st.sampled_from(LANDMARK_TYPES)), max_size=6)


def _reference_realize_protecting(spec, num_frames, landmarks=None, rng=None):
    """reference_realize, plus the map of the landmark frames of every non-random
    part that reads them, at their widest radius: all False when there are none."""
    mask, weights = reference_realize(spec, num_frames, landmarks, rng)
    radii = [
        params.get("r", 0) for kind, params in spec.parts
        if kind in ("landmark", "hybrid", "overweight")
    ]
    frames = reference_landmark_frames(landmarks, num_frames, max(radii)) if radii else []
    return mask, weights, reference_frame_map(frames, num_frames)


def _realize_outcome(realize, parts, num_frames, events, seed, radius):
    """Mask bytes, weight bytes, protected-map bytes and warnings of one realization, or its error.

    radius is the r= of every landmark-reading part that sets none.
    """
    parts = [
        (kind, {"r": radius, **params}
         if kind in ("landmark", "hybrid", "overweight") or "match" in params else params)
        for kind, params in parts
    ]
    spec = StrategySpec("", parts)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            mask, weights, protected = realize(
                spec, num_frames, landmarks=LandmarkSet("u", events),
                rng=np.random.default_rng(seed),
            )
            assert protected.dtype == bool and protected.shape == (num_frames,)
            result = (
                mask.dropped.tobytes(), weights.tobytes(), np.isfinite(weights).all(),
                protected.tobytes(),
            )
        except (InvalidPattern, InvalidConfig) as e:
            result = (type(e), str(e))
    return result, [(w.category, str(w.message)) for w in caught]


class TestRealizeEqualsPerPartComposition:
    """realize_strategy's one pass gives the bytes the per-part wrappers gave, and protects
    the landmark frames of its non-random landmark-reading parts at their widest radius."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_PARTS, min_size=1, max_size=3), st.integers(1, 30), _EVENTS,
        st.integers(0, 2**32), st.integers(0, 3),
    )
    # Both warn here: the warnings must be equal, and TestLandmarkMask checks the new one warns.
    @example([("landmark", {"mode": "keep"})], 7, [], 0, 0)
    @example(parse_strategy("overweight:factor=2.0+hybrid:P=2,D=1,overweight=3.0").parts,
             12, [(2, "V"), (6, "Fc"), (11, "Sr")], 0, 1)
    @example(parse_strategy("regular:P=3,D=1+landmark:drop").parts, 10, [(2, "V"), (6, "Fc")], 0, 0)
    # Radii 0 and 2: the protected map is the wider one's.
    @example(parse_strategy("landmark:keep,r=0+overweight:factor=2.0,r=2").parts,
             12, [(2, "V"), (9, "Fc")], 0, 0)
    # A matched control reads landmarks but protects none.
    @example(parse_strategy("random:match=keep,r=2+regular:P=2,D=1").parts,
             12, [(2, "V"), (9, "Fc")], 0, 2)
    def test_equals_reference(self, parts, num_frames, events, seed, radius):
        args = (parts, num_frames, events, seed, radius)
        want, want_warnings = _realize_outcome(_reference_realize_protecting, *args)
        got, got_warnings = _realize_outcome(realize_strategy, *args)
        assert got_warnings == want_warnings
        if len(want) == 4 and not want[2]:
            # The old composition let a weight product overflow; the one pass refuses it.
            assert got == (InvalidPattern, "weight factors of '' multiply past the float range")
        else:
            assert got == want
        protects = any(kind in ("landmark", "hybrid", "overweight") for kind, _ in parts)
        if len(got) == 4 and not protects:
            assert got[3] == bytes(num_frames)  # all False
