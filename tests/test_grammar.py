"""Every strategy string the grammar accepts runs, or fails with a LandmarkFramesError.

Strings of one to three parts are drawn over every kind and method, with
integers up to 10**30 and factors up to the float maximum. Each goes
through the whole pipeline: parse, config, realize, replace, weight and
decode one synthetic utterance, then a one-value drop_rate sweep.
"""

import sys
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landmark_frames import (
    ExperimentConfig,
    LandmarkFramesError,
    SynthConfig,
    annotate,
    apply_replacement,
    apply_weights,
    gen_corpus,
    parse_strategy,
    realize_strategy,
    sweep,
    viterbi,
)

SYNTH = SynthConfig(n_utterances=2, n_speakers=2, utterance_length=3)
CORPUS = gen_corpus(SYNTH, 0)

INTEGERS = st.integers(0, 10**30) | st.integers(0, 12)
FACTORS = st.floats(0.0, sys.float_info.max) | st.sampled_from([0.0, 0.5, 1.0, 2.5])
RADII = st.none() | INTEGERS


def _period(draw):
    P = draw(INTEGERS | st.integers(2, 5))
    D = draw(st.integers(1, max(P - 1, 1)) | INTEGERS)
    return f"P={P},D={D}"


def _radius(draw):
    r = draw(RADII)
    return "" if r is None else f",r={r}"


@st.composite
def parts(draw):
    kind = draw(st.sampled_from(["identity", "regular", "random", "landmark", "hybrid", "overweight"]))
    if kind == "identity":
        return kind
    if kind == "regular":
        return f"regular:{_period(draw)}"
    if kind == "random":
        source = draw(st.sampled_from(["rate", "n", "match"]))
        if source == "rate":
            text = f"rate={draw(st.floats(0.0, 1.0))!r}"
        elif source == "n":
            text = f"n={draw(INTEGERS)}"
        else:
            text = f"match={draw(st.sampled_from(['keep', 'drop']))}{_radius(draw)}"
        seed = draw(st.none() | INTEGERS)
        return f"random:{text}" + ("" if seed is None else f",seed={seed}")
    if kind == "landmark":
        return f"landmark:{draw(st.sampled_from(['keep', 'drop']))}{_radius(draw)}"
    if kind == "hybrid":
        return f"hybrid:{_period(draw)},overweight={draw(FACTORS)!r}{_radius(draw)}"
    return f"overweight:factor={draw(FACTORS)!r}{_radius(draw)}"


@st.composite
def strategy_strings(draw):
    text = "+".join(draw(st.lists(parts(), min_size=1, max_size=3)))
    method = draw(st.none() | st.sampled_from(["copy", "fill_0", "fill_const", "upsample"]))
    if method is not None:
        text += ("," if ":" in text.split("+")[0] else ":") + f"method={method}"
        head, _, tail = text.partition("+")
        if tail:  # method= belongs to the first part
            text = head
    return text


def run_everything(text):
    """The pipeline on text; a LandmarkFramesError from any stage ends it."""
    spec = parse_strategy(text)
    config = ExperimentConfig(strategies=[text], folds=2, synth=SYNTH)
    utt = CORPUS.utterances[0]
    landmarks = annotate(utt.alignment, CORPUS.manner_table)
    rng = np.random.default_rng(0)
    mask, weights, _ = realize_strategy(spec, utt.matrix.T, landmarks=landmarks, rng=rng)
    replaced = apply_replacement(utt.matrix, mask, spec.method)
    viterbi(apply_weights(replaced, weights), CORPUS.model)
    sweep(config, "drop_rate", [0.5], repeats=1, jobs=1)


@settings(max_examples=150, deadline=None)
@given(strategy_strings())
@example("regular:P=100000000000000000000,D=1")
@example("hybrid:P=1000000000000000000000000000000,D=999999999999999999999999999999,overweight=1.7976931348623157e308")
@example("landmark:keep,r=1000000000000000000000000000000+random:n=1000000000000000000000000000000")
@example("overweight:factor=1.7976931348623157e308,r=3,method=upsample")
def test_only_package_errors_escape(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            run_everything(text)
        except LandmarkFramesError:
            pass
