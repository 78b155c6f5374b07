"""Paired significance testing and cross-validation splits.

The Wilcoxon signed-rank test gets an exact small-sample p-value by
enumerating the signed-rank distribution; larger samples use the
tie-corrected normal approximation. The Welch t-test computes its
two-sided p through the regularized incomplete beta function, so there
is no runtime dependency beyond numpy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus_io import format_csv
from .errors import DegenerateTest, EmptyInput, InvalidConfig, ShapeError

EXACT_WILCOXON_MAX_N = 25


@dataclass
class StatResult:
    """Outcome of one significance test.

    degenerate marks inputs that carry no evidence (for example, all
    paired differences are zero); such results report p = 1.
    """

    test: str
    statistic: float
    p: float
    df: float | None = None
    n: int = 0
    degenerate: bool = False

    @property
    def verdict(self) -> str:
        if self.p < 0.001:
            return "**"
        if self.p < 0.05:
            return "*"
        return "ns"


def _exact_signed_rank_p(doubled_ranks: np.ndarray, w_doubled: int) -> float:
    """P(min(W+, W-) <= w) under random signs, by subset-sum counting."""
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled_ranks:
        r = int(r)
        counts[r:] += counts[: total + 1 - r].copy()
    n = len(doubled_ranks)
    low = counts[: w_doubled + 1].sum()
    high = counts[max(total - w_doubled, 0):].sum()
    if w_doubled >= total - w_doubled:
        return 1.0
    return float((low + high) / 2.0**n)


def wilcoxon_signed_rank(pairs, method: str = "auto") -> StatResult:
    """Two-sided paired Wilcoxon signed-rank test over (a, b) pairs.

    A non-finite value is refused before ranking. Zero differences are
    discarded; ties get midranks. Under "auto", 25 or fewer informative
    pairs get an exact p-value over all sign assignments and larger
    samples the tie-corrected normal approximation with continuity
    correction; "exact" and "approx" force one route. All-zero differences yield a degenerate result.
    """
    if method not in ("auto", "exact", "approx"):
        raise InvalidConfig(f"method must be auto, exact, or approx, got {method!r}")
    pairs = np.asarray(list(pairs), dtype=np.float64)
    if pairs.size == 0:
        raise EmptyInput("no pairs")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ShapeError(f"pairs must be (n, 2), got {pairs.shape}")
    if not np.isfinite(pairs).all():
        raise InvalidConfig("pairs must be finite")
    diffs = pairs[:, 0] - pairs[:, 1]
    diffs = diffs[diffs != 0]
    n = diffs.size
    if n == 0:
        return StatResult("wilcoxon", 0.0, 1.0, n=0, degenerate=True)
    # One grouping of |d| gives each tie group's midrank and its size.
    _, group, tie_counts = np.unique(np.abs(diffs), return_inverse=True, return_counts=True)
    ends = np.cumsum(tie_counts)
    ranks = ((ends - tie_counts + 1 + ends) / 2.0)[group]
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)
    if method == "exact" or (method == "auto" and n <= EXACT_WILCOXON_MAX_N):
        doubled = np.rint(2 * ranks).astype(np.int64)
        p = _exact_signed_rank_p(doubled, int(round(2 * w)))
        return StatResult("wilcoxon", w, min(p, 1.0), n=n)
    mean = n * (n + 1) / 4.0
    tie_term = float(((tie_counts**3 - tie_counts)).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        return StatResult("wilcoxon", w, 1.0, n=n, degenerate=True)
    z = (w - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * _normal_cdf(z))
    return StatResult("wilcoxon", w, p, n=n)


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function (modified
    # Lentz iteration): every partial numerator aa goes through one step,
    # and c = inf makes the leading step's c exactly 1, so h starts at its d.
    max_iter = 300
    eps = 3e-16
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def step(aa, c, d):
        """(c, d) updated by aa and kept off zero, with d returned inverted."""
        c, d = 1.0 + aa / c, 1.0 + aa * d
        return (tiny if abs(c) < tiny else c), 1.0 / (tiny if abs(d) < tiny else d)

    c, d = step(-qab * x / qap, math.inf, 1.0)
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        c, d = step(m * (b - m) * x / ((qam + m2) * (a + m2)), c, d)
        h *= d * c
        c, d = step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def welch_t(a, b) -> StatResult:
    """Two-sided Welch t-test for independent samples of unequal variance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError("samples must be 1-d")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidConfig("samples must be finite")
    if a.size < 2 or b.size < 2:
        raise EmptyInput("need at least two observations per group")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        if a.mean() == b.mean():
            raise DegenerateTest("both groups constant and equal")
        raise DegenerateTest("both groups constant; t statistic undefined")
    se2 = va / a.size + vb / b.size
    t = float((a.mean() - b.mean()) / math.sqrt(se2))
    df = se2**2 / (
        (va / a.size) ** 2 / (a.size - 1) + (vb / b.size) ** 2 / (b.size - 1)
    )
    p = _betainc(df / 2.0, 0.5, df / (df + t * t))
    return StatResult("welch_t", t, min(max(p, 0.0), 1.0), df=float(df), n=a.size + b.size)


def cv_folds(speakers, k: int = 10, seed: int = 0) -> list:
    """Gender-stratified speaker folds from (speaker_id, gender) pairs.

    Returns k disjoint lists of speaker ids covering every speaker. Each
    gender group is sorted by id, shuffled and dealt round-robin, so the
    order of the pairs does not matter; the dealing position carries over
    between groups so fold sizes stay balanced and every fold's gender
    mix is within one speaker of the global ratio.
    """
    speakers = sorted(speakers)
    if not speakers:
        raise EmptyInput("no speakers to split")
    seen = set()
    for speaker_id, _ in speakers:
        if speaker_id in seen:
            raise InvalidConfig(f"duplicate speaker {speaker_id!r}")
        seen.add(speaker_id)
    if k < 2:
        raise InvalidConfig(f"need at least 2 folds, got {k}")
    if k > len(speakers):
        raise InvalidConfig(f"cannot split {len(speakers)} speakers into {k} folds")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    position = 0
    for g in sorted({g for _, g in speakers}):
        group = [s for s, sg in speakers if sg == g]
        group = [group[i] for i in rng.permutation(len(group))]
        for speaker_id in group:
            folds[position % k].append(speaker_id)
            position += 1
    return folds


def summarize_cv(values):
    """Mean and sample (n-1) standard deviation; a single fold has spread 0."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyInput("no fold values")
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1))


def write_stats_csv(results) -> str:
    rows = [(r.test, r.statistic, r.df, r.p, r.verdict) for r in results]
    return format_csv(("test", "statistic", "df", "p", "verdict"), rows)
