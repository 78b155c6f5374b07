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


def _edit_columns(ref, hyp):
    """Columns of the unit-cost edit-distance table, one per prefix of hyp.

    Myers' bit-vector algorithm (Myers 1999), in Hyyrö's form for the
    distance between whole sequences (Hyyrö 2001): bit i of pv (mv) says
    that the column steps up (down) by one from row i to row i + 1, so
    column j's row i is j + popcount(pv & (2**i - 1)) - popcount(mv &
    (2**i - 1)). The bits of a column sit in one Python int, so it costs
    a few integer operations for any length of ref.
    """
    full = (1 << len(ref)) - 1
    peq = {}  # symbol -> the bits of the rows of ref that hold it
    for i, r in enumerate(ref):
        peq[r] = peq.get(r, 0) | 1 << i
    pv, mv = full, 0
    yield pv, mv
    for h in hyp:
        eq = peq.get(h, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # Row 0 of the table counts up along hyp, so every column steps up there.
        ph = (mv | ~(xh | pv)) << 1 | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv & full
        yield pv, mv


def edit_distance(ref, hyp) -> int:
    """Unit-cost edit distance of two sequences of hashable symbols, without the alignment.

    Equal to align_edit(ref, hyp).errors: the last row of the last column.
    """
    for j, (pv, mv) in enumerate(_edit_columns(ref, hyp)):
        pass
    return j + pv.bit_count() - mv.bit_count()


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

    Either sequence may be empty; an empty reference yields N=0. One
    backtrace through the edit table counts the errors and the confusion
    map. When several alignments are optimal it prefers match or
    substitution over deletion over insertion.
    """
    ref, hyp = list(ref), list(hyp)
    columns = list(_edit_columns(ref, hyp))

    def d(i, j):
        """The distance between ref[:i] and hyp[:j]."""
        pv, mv = columns[j]
        low = (1 << i) - 1
        return j + (pv & low).bit_count() - (mv & low).bit_count()

    ins = dels = sub = 0
    confusion = {}
    i, j = len(ref), len(hyp)
    while i or j:
        if i and j and d(i, j) == d(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]):
            i, j = i - 1, j - 1
            key = ref[i], hyp[j]
            sub += ref[i] != hyp[j]
        elif i and d(i, j) == d(i - 1, j) + 1:
            i -= 1
            key = ref[i], DELETION
            dels += 1
        else:
            j -= 1
            key = INSERTION, hyp[j]
            ins += 1
        confusion[key] = confusion.get(key, 0) + 1
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
