"""Synthetic decoding corpus with a known ground truth.

Generates a small phone inventory with left-to-right senone HMMs,
Gaussian senone emissions, and per-utterance score matrices computed
under deliberately perturbed scoring means. Because the reference
alignment, the model, and the scores are all constructed, the decoding
pipeline can be validated end to end without any external data.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .corpus_io import Corpus, PhoneAlignment, ScoreMatrix, Utterance
from .decoder import TransitionModel
from .errors import InvalidConfig
from .landmarks import AnnotationConfig, annotate, landmark_map

# Manners cycle over the phone inventory so every manner class appears.
MANNER_CYCLE = ("vowel", "fricative", "stop", "nasal", "glide")


@dataclass
class SynthConfig:
    """Knobs for the generated corpus.

    noise_sigma jitters the scoring means away from the true emission
    means, which is what produces decoding errors; mean_separation is
    the minimum pairwise distance between true senone means.
    utterance_length is the mean phones per utterance; actual lengths
    vary around it. Observation noise is scaled by offpeak_noise on
    frames more than cue_radius frames from a landmark, so acoustic
    cues concentrate near landmarks; offpeak_noise = 1.0 makes every
    frame equally informative.
    """

    n_utterances: int = 50
    n_phones: int = 8
    states_per_phone: int = 3
    feature_dim: int = 6
    utterance_length: int = 8
    mean_separation: float = 3.0
    noise_sigma: float = 1.7
    self_loop: float = 0.75
    n_speakers: int = 20
    offpeak_noise: float = 2.5
    cue_radius: int = 1

    def __post_init__(self):
        for key in ("mean_separation", "noise_sigma", "offpeak_noise"):
            if not math.isfinite(getattr(self, key)):
                raise InvalidConfig(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.n_utterances < 1:
            raise InvalidConfig("n_utterances must be >= 1")
        if self.n_phones < 2:
            raise InvalidConfig("n_phones must be >= 2")
        if self.states_per_phone < 1:
            raise InvalidConfig("states_per_phone must be >= 1")
        if self.feature_dim < 1:
            raise InvalidConfig("feature_dim must be >= 1")
        if self.utterance_length < 1:
            raise InvalidConfig("utterance_length must be >= 1")
        if self.mean_separation <= 0:
            raise InvalidConfig("mean_separation must be positive")
        if self.noise_sigma < 0:
            raise InvalidConfig("noise_sigma must be >= 0")
        if not (0.0 < self.self_loop < 1.0):
            raise InvalidConfig("self_loop must lie in (0, 1)")
        if self.n_speakers < 1:
            raise InvalidConfig("n_speakers must be >= 1")
        if self.offpeak_noise < 0:
            raise InvalidConfig("offpeak_noise must be >= 0")
        if self.cue_radius < 0:
            raise InvalidConfig("cue_radius must be >= 0")


def parse_synth_config(text: str) -> SynthConfig:
    """Parse "key = value" lines (# starts a comment) into a SynthConfig."""
    types = {f.name: type(f.default) for f in fields(SynthConfig)}
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {line!r}")
        if key not in types:
            raise InvalidConfig(f"line {lineno}: unknown option {key!r}")
        if key in kwargs:
            raise InvalidConfig(f"line {lineno}: option {key!r} given twice")
        try:
            kwargs[key] = types[key](value)
        except ValueError:
            raise InvalidConfig(f"line {lineno}: bad value for {key}: {value!r}") from None
    return SynthConfig(**kwargs)


def _build_model(config: SynthConfig, bigram: np.ndarray, start: np.ndarray) -> TransitionModel:
    n, k = config.n_phones, config.states_per_phone
    s = n * k
    rho = config.self_loop
    trans = np.zeros((s, s))
    init = np.zeros(s)
    for i in range(n):
        init[i * k] = start[i]
        for j in range(k):
            idx = i * k + j
            trans[idx, idx] = rho
            if j + 1 < k:
                trans[idx, idx + 1] = 1.0 - rho
            else:
                for i2 in range(n):
                    trans[idx, i2 * k] = (1.0 - rho) * bigram[i, i2]
    with np.errstate(divide="ignore"):
        log_init = np.log(init)
        log_trans = np.log(trans)
    phones = [f"ph{i:02d}" for i in range(n) for _ in range(k)]
    return TransitionModel(log_init, log_trans, phones)


def _log_gauss_rows(obs: np.ndarray, means: np.ndarray) -> np.ndarray:
    # log N(o; mu, I) for every frame (rows) and senone (columns).
    d = obs.shape[1]
    sq = ((obs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return -0.5 * (sq + d * math.log(2.0 * math.pi))


def gen_corpus(config: SynthConfig, seed: int) -> Corpus:
    """Generate a corpus; identical (config, seed) gives identical output.

    The master stream (PCG64 on the seed) draws the global structure:
    phone bigram, senone means, and the scoring-mean perturbation.
    Utterance u then uses its own stream seeded with seed XOR u, so
    corpora stay reproducible when only n_utterances changes.
    """
    if seed < 0:
        raise InvalidConfig("seed must be >= 0")
    master = np.random.default_rng(seed)
    n, k = config.n_phones, config.states_per_phone

    start = master.dirichlet(np.ones(n))
    bigram = np.zeros((n, n))
    for i in range(n):
        row = master.dirichlet(np.ones(n - 1))
        bigram[i, :i] = row[:i]
        bigram[i, i + 1:] = row[i:]

    raw = master.normal(size=(n * k, config.feature_dim))
    diffs = raw[:, None, :] - raw[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    min_dist = dist[~np.eye(n * k, dtype=bool)].min()
    if min_dist == 0:
        raise InvalidConfig("degenerate senone means; try another seed")
    true_means = raw * (config.mean_separation / min_dist)
    scoring_means = true_means + config.noise_sigma * master.normal(size=true_means.shape)

    model = _build_model(config, bigram, start)
    manner_table = {f"ph{i:02d}": MANNER_CYCLE[i % len(MANNER_CYCLE)] for i in range(n)}

    utterances = []
    for u in range(config.n_utterances):
        rng = np.random.default_rng(seed ^ u)
        length = max(1, int(rng.poisson(config.utterance_length)))
        phones = [int(rng.choice(n, p=start))]
        while len(phones) < length:
            phones.append(int(rng.choice(n, p=bigram[phones[-1]])))

        state_path = []
        segments = []
        t = 0
        for phone in phones:
            seg_start = t
            for j in range(k):
                # Per-state dwell time: 2 + Geometric(0.5), so >= 3.
                dwell = 2 + int(rng.geometric(0.5))
                state_path.extend([phone * k + j] * dwell)
                t += dwell
            segments.append((f"ph{phone:02d}", seg_start, t))

        speaker_idx = u % config.n_speakers
        alignment = PhoneAlignment(
            f"utt{u:04d}",
            segments,
            speaker_id=f"spk{speaker_idx:02d}",
            gender="F" if speaker_idx % 2 == 0 else "M",
        )
        noise = rng.normal(size=(len(state_path), config.feature_dim))
        if config.offpeak_noise != 1.0:
            landmarks = annotate(alignment, manner_table, AnnotationConfig())
            marked = landmark_map(landmarks, len(state_path), config.cue_radius)
            noise = noise * np.where(marked, 1.0, config.offpeak_noise)[:, None]
        obs = true_means[state_path] + noise
        matrix = ScoreMatrix(alignment.utterance_id, _log_gauss_rows(obs, scoring_means))
        utterances.append(Utterance(alignment, matrix))
    return Corpus(model, manner_table, utterances)
