import numpy as np
import pytest

from landmark_frames import (
    AnnotationConfig,
    InvalidConfig,
    SynthConfig,
    annotate,
    gen_corpus,
    landmark_map,
    parse_synth_config,
)
from helpers import corpus_per


class TestConfig:
    def test_defaults(self):
        config = SynthConfig()
        assert config.n_utterances == 50
        assert config.n_phones == 8
        assert config.states_per_phone == 3
        assert config.noise_sigma == pytest.approx(1.7)
        assert config.offpeak_noise == pytest.approx(2.5)
        assert config.cue_radius == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_utterances": 0},
            {"n_phones": 1},
            {"states_per_phone": 0},
            {"feature_dim": 0},
            {"utterance_length": 0},
            {"mean_separation": -1.0},
            {"noise_sigma": -0.5},
            {"self_loop": 1.0},
            {"self_loop": -0.1},
            {"n_speakers": 0},
            {"offpeak_noise": -1.0},
            {"cue_radius": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            SynthConfig(**kwargs)

    def test_parse_round_trip(self):
        text = "n_utterances = 5\nnoise_sigma = 0.5\n"
        config = parse_synth_config(text)
        assert config.n_utterances == 5
        assert config.noise_sigma == 0.5

    def test_parse_unknown_key(self):
        with pytest.raises(InvalidConfig):
            parse_synth_config("volume = 11\n")

    def test_parse_duplicate_key(self):
        with pytest.raises(InvalidConfig, match="^line 3: option 'n_utterances' given twice$"):
            parse_synth_config("n_utterances = 4\nnoise_sigma = 0.5\nn_utterances = 9\n")

    def test_parse_bad_value(self):
        with pytest.raises(InvalidConfig):
            parse_synth_config("n_utterances = lots\n")

    def test_negative_seed_refused(self):
        # The seed is gen_corpus's argument, and gen_corpus checks it.
        with pytest.raises(InvalidConfig, match="seed must be >= 0"):
            gen_corpus(SynthConfig(n_utterances=1), seed=-1)


class TestCorpusShape:
    def test_deterministic_and_seed_sensitive(self):
        config = SynthConfig(n_utterances=6, n_speakers=3)
        a = gen_corpus(config, seed=5)
        b = gen_corpus(config, seed=5)
        assert len(a.utterances) == 6
        for ua, ub in zip(a.utterances, b.utterances):
            assert ua.alignment.segments == ub.alignment.segments
            assert ua.matrix.values.tobytes() == ub.matrix.values.tobytes()
        c = gen_corpus(config, seed=6)
        assert any(
            ua.matrix.values.tobytes() != uc.matrix.values.tobytes()
            for ua, uc in zip(a.utterances, c.utterances)
        )

    def test_alignment_invariants(self, small_corpus):
        model = small_corpus.model
        for u in small_corpus.utterances:
            segs = u.alignment.segments
            assert segs[0][1] == 0
            assert segs[-1][2] == u.alignment.num_frames
            for (_, _, b), (_, a2, _) in zip(segs, segs[1:]):
                assert b == a2
            assert u.matrix.T == u.alignment.num_frames
            assert u.matrix.S == model.S
            assert np.isfinite(u.matrix.values).all()

    def test_senone_count(self, small_corpus, small_config):
        assert small_corpus.model.S == small_config.n_phones * small_config.states_per_phone

    def test_manners_cycle_over_inventory(self, small_corpus, small_config):
        table = small_corpus.manner_table
        cycle = ["vowel", "fricative", "stop", "nasal", "glide"]
        for i in range(small_config.n_phones):
            assert table[f"ph{i:02d}"] == cycle[i % len(cycle)]

    def test_speakers_alternate_gender(self):
        corpus = gen_corpus(SynthConfig(n_utterances=8, n_speakers=4), seed=0)
        genders = {}
        for u in corpus.utterances:
            genders[u.alignment.speaker_id] = u.alignment.gender
        assert genders["spk00"] == "F"
        assert genders["spk01"] == "M"
        assert genders["spk02"] == "F"

    def test_reference_phones_never_silence(self, small_corpus):
        silence = {p for p, m in small_corpus.manner_table.items() if m == "silence"}
        for u in small_corpus.utterances:
            assert not any(p in silence for p, _, _ in u.alignment.segments)


class TestDifficulty:
    def test_noiseless_separated_corpus_decodes_perfectly(self):
        config = SynthConfig(
            n_utterances=10,
            noise_sigma=0.0,
            mean_separation=10.0,
            feature_dim=4,
        )
        corpus = gen_corpus(config, seed=2)
        assert corpus_per(corpus) == 0.0

    def test_per_grows_with_noise(self):
        pers = []
        for sigma in (0.3, 1.7, 4.0):
            config = SynthConfig(n_utterances=12, noise_sigma=sigma)
            pers.append(corpus_per(gen_corpus(config, seed=3)))
        assert pers[0] < pers[1] < pers[2]

    def test_default_baseline_is_moderate(self):
        corpus = gen_corpus(SynthConfig(), seed=0)
        per = corpus_per(corpus)
        assert 5.0 < per < 40.0


class TestCueConcentration:
    def test_flat_setting_shares_rng_stream(self):
        # offpeak_noise=1.0 skips the modulation entirely, so both runs
        # draw identical noise; rows at landmark frames stay bit-equal
        # even when the off-peak scale changes.
        flat_config = SynthConfig(n_utterances=5, offpeak_noise=1.0)
        flat = gen_corpus(flat_config, seed=4)
        bumpy = gen_corpus(SynthConfig(n_utterances=5, offpeak_noise=2.5), seed=4)
        changed = 0
        for uf, ub in zip(flat.utterances, bumpy.utterances):
            assert uf.alignment.segments == ub.alignment.segments
            lms = annotate(uf.alignment, flat.manner_table, AnnotationConfig())
            marked = landmark_map(lms, uf.alignment.num_frames, flat_config.cue_radius)
            assert (uf.matrix.values[marked] == ub.matrix.values[marked]).all()
            changed += int(
                (uf.matrix.values[~marked] != ub.matrix.values[~marked]).any()
            )
        assert changed == 5

    def test_offpeak_noise_hurts_offpeak_frames(self):
        flat = corpus_per(gen_corpus(SynthConfig(n_utterances=15, offpeak_noise=1.0), seed=7))
        bumpy = corpus_per(gen_corpus(SynthConfig(n_utterances=15, offpeak_noise=3.5), seed=7))
        assert bumpy > flat
