import pytest

import landmark_frames as lf


@pytest.fixture(scope="session")
def small_config():
    return lf.SynthConfig(n_utterances=8, n_speakers=4)


@pytest.fixture(scope="session")
def small_corpus(small_config):
    return lf.gen_corpus(small_config, seed=11)
