"""Pinned output digests of small fixed commands at seed 0.

A refactor that claims byte-identical outputs must keep these digests.
If a pin moves on purpose, the new digest and the reason belong in the
change log. The digests hold on every CPU: the run pin is rerun under
other BLAS and numpy kernels, and the package makes no BLAS call, whose
summation order the CPU would pick.
"""

import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import landmark_frames
from landmark_frames.cli import main

SYNTH = {"n_utterances": 12, "n_speakers": 4, "utterance_length": 6}

# All four replacement methods, hybrid, an rng control and a comparison,
# so every strategy but the comparison writes stats.csv.
RUN = {
    "strategies": [
        "regular:P=2,D=1",
        "regular:P=3,D=1,method=upsample",
        "landmark:keep,r=1,method=fill_const",
        "random:match=keep,r=1,method=fill_0",
        "hybrid:P=2,D=1,overweight=1.5",
    ],
    "comparison": "landmark:keep,r=1,method=fill_const",
    "folds": 3,
    "synth": SYNTH,
}

# The same run under a beam that changes every row's PER.
RUN_BEAM = {**RUN, "beam": 4.0}

# RUN on a corpus directory that `synth` writes from SYNTH at seed 0, in either
# matrix format. Both read back the corpus RUN generates, so they pin RUN's digest.
RUN_DISK = {key: value for key, value in RUN.items() if key != "synth"}

# The S=96 shape of the run-s96-disk workload on 6 utterances: 32 phone-entry
# states with 32 live predecessors and 64 states with 2, so the decoder's
# predecessor table mixes degrees. The extra noise gives every row a nonzero
# PER; the beam prunes and changes every row's PER again.
SYNTH_S96 = {
    "n_utterances": 6, "n_speakers": 3, "n_phones": 32, "utterance_length": 16, "noise_sigma": 5.0,
}
RUN_S96 = {
    "strategies": [
        "regular:P=2,D=1",
        "landmark:keep,r=1,method=fill_const",
        "overweight:factor=3.0,r=1",
    ],
    "folds": 3,
    "synth": SYNTH_S96,
}
RUN_S96_BEAM = {**RUN_S96, "beam": 2.0}

# name -> (parameter, config, values).
SWEEPS = {
    "drop_rate": (
        "drop_rate",
        {"strategies": ["landmark:keep", "random:match=keep"], "synth": SYNTH},
        "0.1,0.5",
    ),
    "overweight": (
        "overweight",
        {
            "strategies": ["overweight:factor=2.0", "hybrid:P=2,D=1,overweight=1.5"],
            "comparison": "overweight:factor=2.0",
            "synth": SYNTH,
        },
        "1.0,3.0",
    ),
    # A rate adjustment protects the landmark frames of every non-random part at the
    # widest radius: here 0 and 2 in one strategy, 1 on its own.
    "drop_rate_protected": (
        "drop_rate",
        {
            "strategies": [
                "hybrid:P=2,D=1,overweight=1.5",
                "landmark:keep,r=0+overweight:factor=2.0,r=2",
                "landmark:drop,r=1",
            ],
            "synth": SYNTH,
        },
        "0.1,0.5",
    ),
    # The drop_rate sweep under a beam that prunes inside every decoded batch.
    "drop_rate_beam": (
        "drop_rate",
        {"strategies": ["landmark:keep", "random:match=keep"], "synth": SYNTH, "beam": 4.0},
        "0.1,0.5",
    ),
    # The drop_rate sweep at S=96, whose predecessor table mixes degree groups.
    "drop_rate_s96": (
        "drop_rate",
        {"strategies": ["landmark:keep", "random:match=keep"], "synth": SYNTH_S96},
        "0.1,0.5",
    ),
}

RUN_CHECKSUMS_SHA256 = {
    "run": "ce7a02ed13269dac77ccd23b3fd39287338c36878f2bf56a68040672eb77d639",
    "run_beam": "e95a38b4273a289c86b8e3e091667fbc3a1bda212d2f295230324b1017dbc7a4",
    "run_s96": "796efbf72f002ecd6fe7c2ae3078e0d4d9758a173693643d1103cada7e4c65a3",
    "run_s96_beam": "683f398016d718a644b401fff9d69af7fbb707fbdd0cd51f922a09f7906d9454",
}
# decode.txt of `decode --beam 2.0` on the first matrix of a SYNTH_S96 corpus.
DECODE_S96_BEAM_SHA256 = "cbcaddb041451eb6d803edf62fa6dbb5e62ae42fb954671f9c17100ed4746bb4"
SWEEP_CSV_SHA256 = {
    "drop_rate": "9d50d1501acecacde100b6a756f3f07ca999a427087961b404c373829a43e3f6",
    "overweight": "8a46f7affef3caf63dca46cea776725246c30e25243c84ebc8170e51fedce604",
    "drop_rate_protected": "f0de54e517be4c3f2ce4f1f7cb00dddf54bade67f2f9c9d4a2dba7c95b9f026a",
    "drop_rate_beam": "f5152392f60902435c43ab897d50a5e74d56af81026fe5d699a1c762c20d5647",
    "drop_rate_s96": "98f3402d4be06f1eb06a6c95161254bb808f33b27968909e0ea70580fa0c44e0",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 0, **payload}))
    return str(path)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_checksums_pinned(tmp_path, jobs):
    for name, payload in (("run", RUN), ("run_beam", RUN_BEAM)):
        out = tmp_path / name
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", config, "--out", str(out), "--jobs", jobs]) == 0
        assert (out / "strategy_01" / "stats.csv").exists()
        assert sha256(out / "checksums.txt") == RUN_CHECKSUMS_SHA256[name], name


# Kernel choices that must leave the run pin where it is. OpenBLAS picks its
# kernel and numpy its dispatch targets when they load, so each runs in a
# fresh interpreter. Haswell is the kernel of AVX2 machines, Prescott the
# reference one; the numpy caps turn off its AVX-512 loops, then its AVX2
# ones too, down to the X86_V2 baseline.
KERNEL_ENVS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "numpy-x86-v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}

# Names that reach BLAS, whose summation order depends on the CPU.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg"}


@pytest.mark.parametrize("env", KERNEL_ENVS.values(), ids=list(KERNEL_ENVS))
def test_run_pin_holds_under_every_kernel(tmp_path, env):
    config = write_config(tmp_path, RUN)
    out = tmp_path / "run"
    src = os.path.dirname(os.path.dirname(landmark_frames.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "landmark_frames.cli", "run", "--config", config,
         "--out", str(out), "--jobs", "1"],
        env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sha256(out / "checksums.txt") == RUN_CHECKSUMS_SHA256["run"]


def test_package_makes_no_blas_call():
    found = []
    for path in sorted(pathlib.Path(landmark_frames.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in BLAS_NAMES):
                found.append(f"{path.name}:{node.lineno}: {node.func.id}()")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
                found += [f"{path.name}:{node.lineno}: import {name}"
                          for name in names if name in BLAS_NAMES]
    assert found == []


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_run_on_corpus_dir_pinned(tmp_path, fmt, jobs):
    synth = tmp_path / "synth.txt"
    synth.write_text("".join(f"{key} = {value}\n" for key, value in SYNTH.items()))
    corpus = tmp_path / "corpus"
    assert main(["synth", "--config", str(synth), "--out", str(corpus), "--format", fmt]) == 0
    config = write_config(tmp_path, {**RUN_DISK, "data_dir": str(corpus)})
    out = tmp_path / "run"
    assert main(["run", "--config", config, "--out", str(out), "--jobs", jobs]) == 0
    assert sha256(out / "checksums.txt") == RUN_CHECKSUMS_SHA256["run"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_s96_checksums_pinned(tmp_path, jobs):
    for name, payload in (("run_s96", RUN_S96), ("run_s96_beam", RUN_S96_BEAM)):
        out = tmp_path / name
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", config, "--out", str(out), "--jobs", jobs]) == 0
        assert (out / "strategy_02" / "stats.csv").exists()
        assert sha256(out / "checksums.txt") == RUN_CHECKSUMS_SHA256[name], name


def test_decode_s96_beam_pinned(tmp_path):
    synth = tmp_path / "synth.txt"
    synth.write_text("".join(f"{key} = {value}\n" for key, value in SYNTH_S96.items()))
    corpus = tmp_path / "corpus"
    assert main(["synth", "--config", str(synth), "--out", str(corpus)]) == 0
    out = tmp_path / "decode.txt"
    assert main([
        "decode", "--matrix", str(corpus / "utt0000.llm"), "--model", str(corpus / "model.tm"),
        "--beam", "2.0", "--out", str(out),
    ]) == 0
    assert sha256(out) == DECODE_S96_BEAM_SHA256


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_pinned(tmp_path, name):
    parameter, payload, values = SWEEPS[name]
    config = write_config(tmp_path, payload)
    for jobs in ("1", "2"):
        out = tmp_path / f"sweep{jobs}"
        assert main([
            "sweep", "--config", config, "--out", str(out), "--parameter", parameter,
            "--values", values, "--repeats", "2", "--jobs", jobs,
        ]) == 0
        assert sha256(out / "sweep.csv") == SWEEP_CSV_SHA256[name], f"--jobs {jobs}"
