import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import landmark_frames.stats as stats
from landmark_frames import (
    DegenerateTest,
    EmptyInput,
    InvalidConfig,
    StatResult,
    cv_folds,
    summarize_cv,
    welch_t,
    wilcoxon_signed_rank,
    write_stats_csv,
)
from landmark_frames.stats import EXACT_WILCOXON_MAX_N
from oracles import reference_betacf, wilcoxon_enumeration_p


def random_pairs(rng, n, no_ties=False):
    if no_ties:
        # Distinct magnitudes by construction; rejection would stall for
        # large n.
        mags = rng.choice(np.arange(1, 4 * n + 1), size=n, replace=False)
        signs = rng.choice([-1.0, 1.0], size=n)
        b = rng.integers(0, 40, size=n).astype(float)
        return list(zip(b + signs * mags, b))
    while True:
        a = rng.integers(0, 40, size=n).astype(float)
        b = rng.integers(0, 40, size=n).astype(float)
        if ((a - b) != 0).any():
            return list(zip(a, b))


class TestWilcoxon:
    def test_worked_case(self):
        pairs = [(d, 0.0) for d in (1.0, 2.0, 3.0, 4.0, 5.0)]
        res = wilcoxon_signed_rank(pairs)
        assert res.statistic == 0.0
        assert res.p == 0.0625
        assert res.n == 5
        assert not res.degenerate

    def test_zero_differences_discarded(self):
        pairs = [(1.0, 1.0), (2.0, 2.0)] + [(d, 0.0) for d in (1.0, 2.0, 3.0, 4.0, 5.0)]
        res = wilcoxon_signed_rank(pairs)
        assert res.n == 5
        assert res.p == 0.0625

    def test_all_zero_is_degenerate_not_raised(self):
        res = wilcoxon_signed_rank([(3.0, 3.0), (4.0, 4.0)])
        assert res.degenerate
        assert res.p == 1.0
        assert res.n == 0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            wilcoxon_signed_rank([])

    def test_bad_method(self):
        with pytest.raises(InvalidConfig):
            wilcoxon_signed_rank([(1.0, 0.0)], method="bootstrap")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_before_ranking(self, bad):
        # A nan once sent the tie grouping into an endless loop.
        with pytest.raises(InvalidConfig, match="pairs must be finite"):
            wilcoxon_signed_rank([(1.0, 2.0), (bad, 3.0), (4.0, 1.0)])

    def test_exact_matches_enumeration_no_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(3, 11))
            pairs = random_pairs(rng, n, no_ties=True)
            res = wilcoxon_signed_rank(pairs, method="exact")
            want = wilcoxon_enumeration_p([a - b for a, b in pairs])
            assert res.p == pytest.approx(want, abs=1e-12)

    def test_exact_matches_enumeration_with_midranks(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            pairs = random_pairs(rng, n)
            res = wilcoxon_signed_rank(pairs, method="exact")
            want = wilcoxon_enumeration_p([a - b for a, b in pairs])
            assert res.p == pytest.approx(want, abs=1e-12)

    def test_auto_switches_to_approx_above_threshold(self):
        rng = np.random.default_rng(4)
        pairs = random_pairs(rng, EXACT_WILCOXON_MAX_N + 5, no_ties=True)
        auto = wilcoxon_signed_rank(pairs)
        approx = wilcoxon_signed_rank(pairs, method="approx")
        assert auto.p == approx.p

    def test_forced_exact_near_approx_at_n30(self):
        rng = np.random.default_rng(5)
        pairs = random_pairs(rng, 30, no_ties=True)
        exact = wilcoxon_signed_rank(pairs, method="exact")
        approx = wilcoxon_signed_rank(pairs, method="approx")
        assert abs(exact.p - approx.p) < 0.02

    def test_approx_matches_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pairs = random_pairs(rng, 40)
            a, b = zip(*pairs)
            mine = wilcoxon_signed_rank(pairs, method="approx")
            ref = scipy.stats.wilcoxon(
                list(a), list(b), zero_method="wilcox", correction=True, mode="approx"
            )
            assert mine.statistic == pytest.approx(ref.statistic)
            assert mine.p == pytest.approx(ref.pvalue, abs=1e-9)

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(7)
        pairs = random_pairs(rng, 12)
        base = wilcoxon_signed_rank(pairs)
        shifted = [(3.0 * a + 11.0, 3.0 * b + 11.0) for a, b in pairs]
        res = wilcoxon_signed_rank(shifted)
        assert res.statistic == pytest.approx(base.statistic)
        assert res.p == pytest.approx(base.p)

    def test_symmetry_in_pair_order(self):
        rng = np.random.default_rng(8)
        pairs = random_pairs(rng, 9)
        forward = wilcoxon_signed_rank(pairs)
        backward = wilcoxon_signed_rank([(b, a) for a, b in pairs])
        assert forward.statistic == pytest.approx(backward.statistic)
        assert forward.p == pytest.approx(backward.p)


class TestWelch:
    def test_hand_oracle(self):
        res = welch_t([2.1, 2.5, 2.3], [2.0, 2.2, 2.1])
        # mean diff 0.2, va=0.04, vb=0.01 -> t = 0.2 / sqrt(0.05/3).
        assert res.statistic == pytest.approx(0.2 / np.sqrt(0.05 / 3.0), abs=1e-12)
        assert res.statistic == pytest.approx(1.549193, abs=1e-6)
        assert res.df == pytest.approx(2.941176, abs=1e-6)
        ref = scipy.stats.ttest_ind([2.1, 2.5, 2.3], [2.0, 2.2, 2.1], equal_var=False)
        assert res.p == pytest.approx(ref.pvalue, abs=1e-8)

    def test_p_matches_scipy_broadly(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.normal(size=rng.integers(2, 12))
            b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(2, 12))
            res = welch_t(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert res.statistic == pytest.approx(ref.statistic, abs=1e-10)
            assert res.df == pytest.approx(ref.df, abs=1e-10)
            assert res.p == pytest.approx(ref.pvalue, abs=1e-8)

    def test_antisymmetry(self):
        a = [1.0, 3.0, 2.0]
        b = [4.0, 2.0, 5.0, 3.0]
        fwd = welch_t(a, b)
        rev = welch_t(b, a)
        assert fwd.statistic == pytest.approx(-rev.statistic)
        assert fwd.p == pytest.approx(rev.p)

    def test_identical_nonconstant_samples(self):
        res = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.statistic == 0.0
        assert res.p == 1.0

    def test_separated_means(self):
        res = welch_t([1.0, 2.0, 3.0], [11.0, 12.0, 13.0])
        assert abs(res.statistic) > 5
        assert res.p < 0.01

    def test_both_variances_zero(self):
        with pytest.raises(DegenerateTest):
            welch_t([2.0, 2.0], [3.0, 3.0])

    def test_one_zero_variance_allowed(self):
        res = welch_t([2.0, 2.0, 2.0], [1.0, 3.0, 2.0])
        assert np.isfinite(res.p)

    def test_too_small_samples(self):
        with pytest.raises(EmptyInput):
            welch_t([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(InvalidConfig, match="samples must be finite"):
            welch_t([1.0, bad, 4.0], [2.0, 3.0, 1.0])
        with pytest.raises(InvalidConfig, match="samples must be finite"):
            welch_t([1.0, 2.0, 4.0], [bad, 3.0, 1.0])


class TestBetaContinuedFraction:
    """_betacf's shared Lentz step gives the two-term reference loop's bits."""

    @settings(max_examples=500)
    @given(
        a=st.floats(1e-3, 1e5),
        b=st.floats(1e-3, 1e5),
        x=st.floats(0.0, 1.0),
    )
    def test_betainc_equals_the_reference_bit_for_bit(self, a, b, x):
        got = stats._betainc(a, b, x)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats, "_betacf", reference_betacf)
            want = stats._betainc(a, b, x)
        assert got.hex() == want.hex()
        if 0.0 < x < 1.0:
            assert stats._betacf(a, b, x).hex() == reference_betacf(a, b, x).hex()


class TestCvFolds:
    SPEAKERS = [(f"s{i:02d}", "F" if i < 10 else "M") for i in range(20)]

    def test_each_fold_one_per_gender(self):
        gender = dict(self.SPEAKERS)
        for fold in cv_folds(self.SPEAKERS, k=10, seed=0):
            assert sorted(gender[s] for s in fold) == ["F", "M"]

    def test_disjoint_cover(self):
        folds = cv_folds(self.SPEAKERS, k=7, seed=1)
        assert len(folds) == 7
        seen = [s for fold in folds for s in fold]
        assert sorted(seen) == sorted(s for s, _ in self.SPEAKERS)
        assert len(seen) == len(set(seen))

    def test_fold_sizes_balanced(self):
        sizes = [len(f) for f in cv_folds(self.SPEAKERS, k=7, seed=1)]
        assert max(sizes) - min(sizes) <= 1

    def test_gender_balance_within_one(self):
        speakers = [(f"s{i:02d}", "F" if i < 13 else "M") for i in range(31)]
        gender = dict(speakers)
        for seed in range(5):
            folds = cv_folds(speakers, k=10, seed=seed)
            f_counts = [sum(1 for s in fold if gender[s] == "F") for fold in folds]
            assert max(f_counts) - min(f_counts) <= 1

    def test_deterministic(self):
        a = cv_folds(self.SPEAKERS, k=10, seed=3)
        assert a == cv_folds(self.SPEAKERS, k=10, seed=3)
        assert a != cv_folds(self.SPEAKERS, k=10, seed=4)

    def test_order_of_pairs_does_not_matter(self):
        for seed in range(3):
            folds = cv_folds(self.SPEAKERS, k=7, seed=seed)
            assert cv_folds(self.SPEAKERS[::-1], k=7, seed=seed) == folds

    def test_duplicate_speaker(self):
        with pytest.raises(InvalidConfig):
            cv_folds([("s0", "F"), ("s0", "M"), ("s1", "F")], k=2)

    def test_k_too_small_or_large(self):
        with pytest.raises(InvalidConfig):
            cv_folds(self.SPEAKERS, k=1)
        with pytest.raises(InvalidConfig):
            cv_folds(self.SPEAKERS, k=21)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            cv_folds([], k=2)


class TestSummarizeCv:
    def test_constant(self):
        assert summarize_cv([4.0, 4.0, 4.0]) == (4.0, 0.0)

    def test_single_value(self):
        assert summarize_cv([5.0]) == (5.0, 0.0)

    def test_two_value_formula(self):
        mean, sd = summarize_cv([2.0, 6.0])
        assert mean == 4.0
        assert sd == pytest.approx(4.0 / np.sqrt(2.0))

    def test_reproduces_table_style_summary(self):
        rng = np.random.default_rng(10)
        raw = rng.normal(size=10)
        z = (raw - raw.mean()) / raw.std(ddof=1)
        values = 46.5 + 1.34 * z
        mean, sd = summarize_cv(list(values))
        assert round(mean, 2) == 46.5
        assert round(sd, 2) == 1.34


class TestStatsCsv:
    def test_verdict_thresholds(self):
        rows = [
            StatResult("welch_t", 2.0, 0.04, df=9.0, n=12),
            StatResult("welch_t", 1.0, 0.2, df=9.0, n=12),
            StatResult("wilcoxon", 3.0, 0.004, n=10),
        ]
        text = write_stats_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "test,statistic,df,p,verdict"
        verdicts = [line.split(",")[-1] for line in lines[1:]]
        assert verdicts[0] != "ns"
        assert verdicts[1] == "ns"
        assert verdicts[2] != verdicts[1]
