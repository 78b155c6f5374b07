"""Pipeline helpers shared across test modules."""

import landmark_frames as lf
from landmark_frames.experiment import _score_task


def corpus_reports(corpus, strategy="identity", landmarks=None, rng=None):
    """Realize strategy on every utterance, then replace, decode and score it.

    landmarks, if given, lists each utterance's LandmarkSet; rng is shared
    by the utterances in corpus order.
    """
    spec = lf.parse_strategy(strategy)
    reports = []
    for ui, utt in enumerate(corpus.utterances):
        mask, weights, _ = lf.realize_strategy(
            spec, utt.matrix.T, landmarks=None if landmarks is None else landmarks[ui], rng=rng
        )
        ((report, _, _),) = _score_task(corpus, ([(ui, mask, weights, spec.method)], None, True))
        reports.append(report)
    return reports


def corpus_per(corpus, strategy="identity", landmarks=None, rng=None):
    return lf.merge_reports(corpus_reports(corpus, strategy, landmarks, rng)).per
