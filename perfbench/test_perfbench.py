"""Tests of the benchmark's own parsing and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import landmark_frames.experiment as experiment  # noqa: E402
import spans  # noqa: E402
from landmark_frames.synth import SynthConfig  # noqa: E402
from run import CheckFailed, percentile, row_errors  # noqa: E402


def test_row_errors_reads_rows_whose_cells_hold_commas(tmp_path):
    report = tmp_path / "report.csv"
    report.write_text(
        "# seed=0\n"
        "strategy,drop_rate,per,delta_per,mean,stdev,p_wilcoxon,p_t,errors\n"
        "identity,0.0,30.0,0.0,0.0,0.0,,,\n"
        "regular:P=2,D=1,0.5,39.0,38.0,40.0,17.0,0.01,0.02,\n"
        "random:match=keep,r=1,,,,,,,,rep 9: need 62, got 61\n"
    )
    names = ["identity", "regular:P=2,D=1", "random:match=keep,r=1"]
    assert row_errors(report, names) == ["", "", "rep 9: need 62, got 61"]


def test_row_errors_rejects_missing_or_reordered_rows(tmp_path):
    report = tmp_path / "sweep.csv"
    report.write_text("strategy,drop_rate,per,delta_per,mean,stdev,p_wilcoxon,p_t\n"
                      "identity,0.0,30.0,0.0,0.0,0.0,,\n"
                      "b,0.1,1,1,1,1,,\n")
    with pytest.raises(CheckFailed):
        row_errors(report, ["identity", "a", "b"])
    with pytest.raises(CheckFailed):
        row_errors(report, ["identity", "a"])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_self_time_excludes_nested_spans_and_merge_adds():
    rec = spans.Recorder()
    with rec.span("outer"):
        with rec.span("inner", also=("inner.kind",)):
            sum(range(10000))
    data = rec.export()["spans"]
    assert data["inner"]["calls"] == data["inner.kind"]["calls"] == 1
    outer = data["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - data["inner"]["total_s"])
    other = spans.Recorder()
    other.merge(rec.export())
    other.merge(rec.export())
    assert other.export()["spans"]["outer"]["calls"] == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_tracing_counts_every_layer_call_and_restores_names(jobs):
    config = experiment.ExperimentConfig(
        strategies=["landmark:keep,method=fill_0"], folds=2,
        synth=SynthConfig(n_utterances=4, n_speakers=4),
    )
    before = dict(vars(experiment))
    plain, _ = experiment.compute_outcomes(config, jobs=jobs)
    tracer = spans.Tracer(pid=os.getpid())
    tracer.install()
    try:
        traced, _ = experiment.compute_outcomes(config, jobs=jobs)
    finally:
        tracer.uninstall()
    assert dict(vars(experiment)) == before
    assert [o.checksums for o in traced] == [o.checksums for o in plain]
    data = tracer.rec.export()
    assert data["spans"]["decoder.viterbi"]["calls"] == 8
    assert data["spans"]["strategy.replace.fill_0"]["calls"] == 4
    assert data["spans"]["synth.gen_corpus"]["calls"] == 1
    assert data["counts"].get("experiment.pool_starts", 0) == (jobs > 1)
    assert len(data["samples"]["decoder.viterbi"]) == 8
