"""Phone error rate scoring.

Hypotheses are scored against reference phone sequences with unit-cost
edit distance. Reports carry the error breakdown and a confusion map so
corpus-level aggregation is a plain sum.
"""

from dataclasses import dataclass, field

from .corpus_io import format_csv
from .errors import DegenerateBaseline, EmptyInput, FormatError

DELETION = "<del>"
INSERTION = "<ins>"


def _edit_rows(ref, hyp):
    """Rows of the unit-cost edit-distance table, one per prefix of ref.

    Row i holds the distances between ref[:i] and every prefix of hyp;
    plain ints in lists, so no cell goes through a numpy scalar.
    """
    row = list(range(len(hyp) + 1))
    yield row
    for i, r in enumerate(ref, start=1):
        prev, row = row, [i]
        for h, diag, up in zip(hyp, prev, prev[1:]):
            row.append(min(diag + (r != h), up + 1, row[-1] + 1))
        yield row


def edit_distance(ref, hyp) -> int:
    """Unit-cost edit distance of two symbol sequences, without the alignment.

    Equal to edit_ops(ref, hyp)[0]; keeps one row of the table at a time.
    """
    for row in _edit_rows(ref, hyp):
        pass
    return row[-1]


def edit_ops(ref, hyp):
    """Unit-cost edit alignment of two symbol sequences.

    Returns (distance, ops) where ops is a list of
    ("match"|"sub"|"del"|"ins", ref_symbol|None, hyp_symbol|None) tuples
    in reference order. When several alignments are optimal the
    backtrace prefers match/substitution over deletion over insertion.
    """
    n, m = len(ref), len(hyp)
    # d[i][j] is the distance between ref[:i] and hyp[:j].
    d = list(_edit_rows(ref, hyp))

    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            kind = "match" if ref[i - 1] == hyp[j - 1] else "sub"
            ops.append((kind, ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and d[i][j] == d[i - 1][j] + 1:
            ops.append(("del", ref[i - 1], None))
            i -= 1
        else:
            ops.append(("ins", None, hyp[j - 1]))
            j -= 1
    ops.reverse()
    return int(d[n][m]), ops


def pooled_per(counts) -> float:
    """PER in percent of (n_ref, errors) pairs pooled: total errors over total N.

    An empty reference has no rate; it reads 0 with no errors and +inf
    when anything was inserted.
    """
    n_ref = errors = 0
    for n, e in counts:
        n_ref += n
        errors += e
    if n_ref == 0:
        return 0.0 if errors == 0 else float("inf")
    return 100.0 * errors / n_ref


@dataclass
class PERReport:
    """Error accounting for one utterance (or a merged corpus).

    confusion maps (ref, hyp) pairs to counts; deletions appear as
    (ref, "<del>") and insertions as ("<ins>", hyp).
    """

    utterance_id: str
    n_ref: int
    ins: int
    dels: int
    sub: int
    confusion: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_ref < 0:
            raise FormatError(f"{self.utterance_id}: negative reference count")
        if min(self.ins, self.dels, self.sub) < 0:
            raise FormatError("negative error count")

    @property
    def errors(self) -> int:
        return self.ins + self.dels + self.sub

    @property
    def per(self) -> float:
        return pooled_per([(self.n_ref, self.errors)])


def align_edit(ref, hyp, utterance_id: str = "") -> PERReport:
    """Score one hypothesis phone sequence against its reference.

    Either sequence may be empty; an empty reference yields N=0.
    """
    _, ops = edit_ops(list(ref), list(hyp))
    ins = dels = sub = 0
    confusion = {}

    def bump(key):
        confusion[key] = confusion.get(key, 0) + 1

    for kind, r, h in ops:
        if kind == "ins":
            ins += 1
            bump((INSERTION, h))
        elif kind == "del":
            dels += 1
            bump((r, DELETION))
        else:
            sub += kind == "sub"
            bump((r, h))
    return PERReport(utterance_id, len(ref), ins, dels, sub, confusion)


def merge_reports(reports, utterance_id: str = "all") -> PERReport:
    """Pool utterance reports into one corpus report (counts just add)."""
    reports = list(reports)
    if not reports:
        raise EmptyInput("no reports to merge")
    confusion = {}
    for report in reports:
        for key, count in report.confusion.items():
            confusion[key] = confusion.get(key, 0) + count
    return PERReport(
        utterance_id,
        sum(r.n_ref for r in reports),
        sum(r.ins for r in reports),
        sum(r.dels for r in reports),
        sum(r.sub for r in reports),
        confusion,
    )


def per_increment(base_per: float, mod_per: float) -> float:
    """Relative PER change in percent: 100 * (mod - base) / base, or 0 when the PERs are equal."""
    if mod_per == base_per:
        return 0.0
    if base_per == 0:
        raise DegenerateBaseline("baseline PER is zero; relative increment undefined")
    return 100.0 * (mod_per - base_per) / base_per


def write_report_csv(reports) -> str:
    rows = [(r.utterance_id, r.n_ref, r.ins, r.dels, r.sub, r.per) for r in reports]
    return format_csv(("utterance_id", "N", "ins", "del", "sub", "per"), rows)


def write_confusion_csv(report: PERReport) -> str:
    rows = [(ref, hyp, count) for (ref, hyp), count in sorted(report.confusion.items())]
    return format_csv(("ref", "hyp", "count"), rows)
