import csv
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landmark_frames import (
    DegenerateBaseline,
    EmptyInput,
    PERReport,
    align_edit,
    merge_reports,
    per_increment,
    write_confusion_csv,
    write_report_csv,
)
from landmark_frames.scoring import DELETION, INSERTION, edit_distance, pooled_per
from oracles import edit_distance_matchings, reference_edit_ops


def counts(report):
    return report.n_ref, report.ins, report.dels, report.sub, report.confusion


def counts_of_ops(ref, ops):
    """(n_ref, ins, dels, sub, confusion) tallied from a list of edit ops."""
    kinds = [kind for kind, _, _ in ops]
    confusion = {}
    for kind, r, h in ops:
        key = (INSERTION if kind == "ins" else r, DELETION if kind == "del" else h)
        confusion[key] = confusion.get(key, 0) + 1
    return len(ref), kinds.count("ins"), kinds.count("del"), kinds.count("sub"), confusion


class TestEditOps:
    def test_identity(self):
        report = align_edit(["a", "b"], ["a", "b"])
        assert report.errors == 0
        assert counts(report)[1:] == (0, 0, 0, {("a", "a"): 1, ("b", "b"): 1})

    def test_substitution(self):
        report = align_edit(["a", "b", "c"], ["a", "x", "c"])
        assert report.errors == 1
        assert counts(report)[1:] == (0, 0, 1, {("a", "a"): 1, ("b", "x"): 1, ("c", "c"): 1})

    def test_deletion_and_insertion(self):
        assert counts(align_edit(["a"], [])) == (1, 0, 1, 0, {("a", DELETION): 1})
        assert counts(align_edit([], ["a"])) == (0, 1, 0, 0, {(INSERTION, "a"): 1})

    def test_sub_preferred_over_del_ins_pair(self):
        report = align_edit(["a", "b"], ["b", "a"])
        assert report.errors == 2
        assert counts(report)[1:] == (0, 0, 2, {("a", "b"): 1, ("b", "a"): 1})

    def test_del_preferred_over_ins_on_ties(self):
        # Equal-cost alignments exist that swap the del/ins order; the
        # backtrace prefers consuming the reference first.
        report = align_edit(["a"], ["b"])
        assert report.errors == 1
        assert counts(report)[1:] == (0, 0, 1, {("a", "b"): 1})
        report = align_edit(["a", "b"], ["b"])
        assert report.errors == 1
        assert counts(report)[1:] == (0, 1, 0, {("a", DELETION): 1, ("b", "b"): 1})
        # Preferring insertions here would give one insertion and two substitutions.
        report = align_edit(["a", "b", "a"], ["b", "c", "a", "b"])
        assert counts(report)[1:] == (2, 1, 0, {
            (INSERTION, "b"): 1, (INSERTION, "c"): 1, ("a", DELETION): 1,
            ("a", "a"): 1, ("b", "b"): 1,
        })

    def test_ops_replay_to_inputs(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcd")
        for _ in range(200):
            ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
            hyp = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
            dist, ops = reference_edit_ops(ref, hyp)
            got_ref = [r for op, r, _ in ops if op != "ins"]
            got_hyp = [h for op, _, h in ops if op != "del"]
            assert got_ref == ref and got_hyp == hyp
            assert dist == sum(1 for op, _, _ in ops if op != "match")

    def test_distance_matches_matching_oracle(self):
        rng = np.random.default_rng(1)
        alphabet = list("abc")
        for _ in range(150):
            ref = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 6))]
            hyp = [alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 6))]
            dist, _ = reference_edit_ops(ref, hyp)
            assert dist == edit_distance_matchings(ref, hyp)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from("abc"), max_size=6), st.lists(st.sampled_from("abc"), max_size=6))
    def test_ops_replay_ref_into_hyp_at_oracle_distance(self, ref, hyp):
        dist, ops = reference_edit_ops(ref, hyp)
        assert dist == edit_distance_matchings(ref, hyp)
        assert dist == sum(op != "match" for op, _, _ in ops)
        rest, built = list(ref), []
        for op, r, h in ops:
            if op != "ins":
                assert rest.pop(0) == r
            if op != "del":
                built.append(h)
            assert (op == "match") == (r == h)
        assert rest == [] and built == hyp

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from("ab"), max_size=8),
           st.lists(st.sampled_from("abc"), max_size=8))
    @example([], [])
    @example(["a", "b"], [])
    @example([], ["c", "c", "a"])
    def test_distance_only_equals_edit_ops_and_align_edit(self, ref, hyp):
        distance = reference_edit_ops(ref, hyp)[0]
        assert edit_distance(ref, hyp) == distance == align_edit(ref, hyp).errors


    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=60, max_size=150),
           st.lists(st.sampled_from("abcde"), max_size=150))
    @example(list("ab" * 40), [])
    @example(list("abc" * 30), list("abc" * 30))
    def test_distance_over_references_longer_than_a_word(self, ref, hyp):
        # Past 64 symbols the bit vectors of edit_distance span several
        # machine words, and so do the columns align_edit walks back through.
        distance, ops = reference_edit_ops(ref, hyp)
        assert edit_distance(ref, hyp) == distance
        assert counts(align_edit(ref, hyp)) == counts_of_ops(ref, ops)


class TestAlignEdit:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from("abc"), max_size=8),
           st.lists(st.sampled_from("abcd"), max_size=8))
    @example([], [])
    @example(["a", "b"], [])
    @example([], ["c", "c", "a"])
    @example(["a", "b", "a"], ["b", "c", "a", "b"])
    def test_counts_equal_the_reference_ops(self, ref, hyp):
        report = align_edit(ref, hyp)
        assert counts(report) == counts_of_ops(ref, reference_edit_ops(ref, hyp)[1])
        assert all(type(n) is int for n in counts(report)[:4])

    def test_counts_and_per(self):
        report = align_edit(["a", "b", "c"], ["a", "c"], "u")
        assert (report.n_ref, report.ins, report.dels, report.sub) == (3, 0, 1, 0)
        assert report.errors == 1
        assert report.per == pytest.approx(100.0 / 3.0)

    def test_empty_ref_and_hyp(self):
        report = align_edit([], [], "u")
        assert report.n_ref == 0
        assert report.per == 0.0

    def test_empty_ref_with_insertions(self):
        report = align_edit([], ["a", "b"], "u")
        assert report.ins == 2
        assert report.per == np.inf

    def test_confusion_sentinels(self):
        report = align_edit(["a", "b"], ["b"], "u")
        assert report.confusion[("a", DELETION)] == 1
        report = align_edit(["b"], ["a", "b"], "u")
        assert report.confusion[(INSERTION, "a")] == 1

    def test_confusion_marginals(self):
        report = align_edit(["a", "b", "a", "c"], ["a", "x", "a", "a", "c"], "u")
        ref_total = sum(c for (r, _), c in report.confusion.items() if r != INSERTION)
        hyp_total = sum(c for (_, h), c in report.confusion.items() if h != DELETION)
        assert ref_total == 4
        assert hyp_total == 5
        assert report.ins == sum(
            c for (r, _), c in report.confusion.items() if r == INSERTION
        )
        assert report.dels == sum(
            c for (_, h), c in report.confusion.items() if h == DELETION
        )

    def test_matches_recorded_in_confusion(self):
        report = align_edit(["a", "a"], ["a", "a"], "u")
        assert report.confusion == {("a", "a"): 2}


class TestMergeReports:
    def test_totals_add(self):
        a = align_edit(["a", "b", "c"], ["a", "c"], "u1")
        b = align_edit(["a"], ["b"], "u2")
        merged = merge_reports([a, b])
        assert merged.utterance_id == "all"
        assert merged.n_ref == 4
        assert merged.errors == 2
        assert merged.confusion[("a", "a")] == 1
        assert merged.confusion[("a", "b")] == 1
        assert merged.confusion[("b", DELETION)] == 1

    def test_per_pools_over_reference(self):
        a = PERReport("u1", 10, 0, 1, 0)
        b = PERReport("u2", 30, 0, 0, 3)
        assert merge_reports([a, b]).per == pytest.approx(10.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            merge_reports([])


class TestPooledPer:
    @pytest.mark.parametrize("counts,per", [
        ([(3, 1), (5, 0)], 12.5),
        ([(0, 1), (4, 1)], 50.0),
        # An empty reference: 0 with no errors, +inf once anything was inserted.
        ([(0, 0)], 0.0),
        ([], 0.0),
        ([(0, 0), (0, 1)], np.inf),
    ])
    def test_pools_errors_over_reference_length(self, counts, per):
        assert pooled_per(counts) == per
        reports = [PERReport(f"u{i}", n, e, 0, 0) for i, (n, e) in enumerate(counts)]
        assert [pooled_per([c]) for c in counts] == [r.per for r in reports]


class TestPerIncrement:
    def test_reference_anchors(self):
        assert per_increment(7.56, 51.7) == pytest.approx(583.862433862434)
        assert per_increment(7.56, 7.56) == 0.0

    def test_sign(self):
        assert per_increment(50.0, 25.0) == pytest.approx(-50.0)

    def test_degenerate_baseline(self):
        with pytest.raises(DegenerateBaseline):
            per_increment(0.0, 10.0)

    def test_equal_zero_pers_are_no_change(self):
        assert per_increment(0.0, 0.0) == 0.0

    def test_equal_infinite_pers_are_no_change(self):
        inf = float("inf")
        assert per_increment(inf, inf) == 0.0


class TestCSV:
    def test_report_round_trip(self):
        reports = [
            align_edit(["a", "b", "c"], ["a", "c"], "u1"),
            align_edit(["a"], ["b"], "u2"),
        ]
        header, *rows = csv.reader(write_report_csv(reports).splitlines())
        assert header == ["utterance_id", "N", "ins", "del", "sub", "per"]
        assert len(rows) == 2
        for want, row in zip(reports, rows):
            assert row[0] == want.utterance_id
            assert [int(f) for f in row[1:5]] == [want.n_ref, want.ins, want.dels, want.sub]
            assert float(row[5]) == want.per

    def test_confusion_round_trip(self):
        report = align_edit(["a", "b", "a"], ["a", "x"], "u")
        header, *rows = csv.reader(write_confusion_csv(report).splitlines())
        assert header == ["ref", "hyp", "count"]
        assert {(ref, hyp): int(count) for ref, hyp, count in rows} == report.confusion

    def test_confusion_header(self):
        assert write_confusion_csv(align_edit(["a"], ["a"], "u")).splitlines()[0] == "ref,hyp,count"
