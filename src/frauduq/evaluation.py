"""Evaluation of uncertainty estimates.

Calibration (expected calibration error over equal-width confidence
buckets), the certain/uncertain confusion matrix with its four derived
metrics, threshold sweeps, classic binary-classification metrics
(fraud = positive class), entropy histograms split by correctness, and a
byte-deterministic SVG reliability diagram.
"""

from dataclasses import astuple, dataclass, fields

import numpy as np

from . import container
from .data import check_labels
from .errors import DataError, ValidationError
from .uncertainty import Estimates

DEFAULT_THRESHOLDS = tuple(round(0.1 * k, 1) for k in range(1, 10))
REPORT_FORMAT = "frauduq-report"


@dataclass(frozen=True)
class CalibrationBin:
    """One confidence bucket (lower, upper]; accuracy/confidence are None
    when the bucket is empty."""

    lower: float
    upper: float
    count: int
    accuracy: float | None
    confidence: float | None


@dataclass(frozen=True)
class CalibrationBins:
    """The expected calibration error over ``bin_count`` buckets."""

    ece: float
    bin_count: int
    bins: tuple[CalibrationBin, ...]

    @property
    def total(self) -> int:
        return sum(b.count for b in self.bins)


@dataclass(frozen=True)
class ClassicMetrics:
    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    precision: float | None


@dataclass(frozen=True)
class EntropyHistogram:
    """Aligned correct/incorrect bin counts of entropy_norm over [0, 1]."""

    bin_edges: tuple[float, ...]
    correct_counts: tuple[int, ...]
    incorrect_counts: tuple[int, ...]
    mean_entropy_correct: float | None
    mean_entropy_incorrect: float | None


@dataclass(frozen=True)
class ThresholdRow:
    """One threshold of the sweep, a ``thresholds.csv`` line.

    The counts of the correctness x certainty taxonomy: tc = correct &
    certain, tu = incorrect & uncertain, fu = correct & uncertain,
    fc = incorrect & certain. Then their uncertainty analogues of
    accuracy/sensitivity/specificity/precision; a 0/0 ratio is None, never NaN.
    """

    threshold: float
    tc: int
    tu: int
    fu: int
    fc: int
    uacc: float | None
    usen: float | None
    uspe: float | None
    upre: float | None


UQ_METRICS = tuple(f.name for f in fields(ThresholdRow)[5:])  # uacc, usen, uspe, upre


@dataclass(frozen=True)
class UqReport:
    """Everything evaluate emits for one prediction dump: ``report.json``'s keys."""

    method: str
    n: int
    calibration: CalibrationBins
    thresholds: tuple[ThresholdRow, ...]
    classic: ClassicMetrics
    entropy_histogram: EntropyHistogram

    def validate(self) -> "UqReport":
        cal, hist = self.calibration, self.entropy_histogram
        if cal.bin_count != len(cal.bins):
            raise ValidationError(f"calibration.bin_count is {cal.bin_count}, "
                                  f"but {len(cal.bins)} bins follow")
        if not len(hist.bin_edges) - 1 == len(hist.correct_counts) == len(hist.incorrect_counts):
            raise ValidationError("entropy_histogram.bin_edges must be one longer than "
                                  "its correct_counts and incorrect_counts")
        return self


@dataclass(frozen=True)
class ReportFile(UqReport):
    """A ``report.json``: the report plus the provenance of its stage."""

    seed: int
    config_digest: str


def _check_aligned(estimates, labels):
    if len(estimates) == 0:
        raise DataError("no estimates to evaluate")
    check_labels(np.asarray(labels), len(estimates))


def _correctness(estimates: Estimates, labels) -> np.ndarray:
    return estimates.predicted_class == np.asarray(labels)


def compute_ece(estimates: Estimates, labels, m_bins: int = 10) -> CalibrationBins:
    """Expected calibration error over equal-width buckets of (0, 1].

    A sample's confidence is the max of its mean distribution; bucket
    accuracy is the fraction predicted correctly, bucket confidence the
    mean of the confidences, and ECE the count-weighted mean |gap|.
    Empty buckets contribute zero.
    """
    if m_bins < 1:
        raise ValidationError(f"m_bins must be >= 1, got {m_bins}")
    _check_aligned(estimates, labels)
    conf = estimates.mean_probs.max(axis=1)
    correct = _correctness(estimates, labels)
    n = len(conf)

    idx = np.clip(np.ceil(conf * m_bins).astype(int) - 1, 0, m_bins - 1)
    bins = []
    ece = 0.0
    for m in range(m_bins):
        member = idx == m
        count = int(member.sum())
        lower, upper = m / m_bins, (m + 1) / m_bins
        if count == 0:
            bins.append(CalibrationBin(lower, upper, 0, None, None))
            continue
        acc = float(correct[member].mean())
        avg_conf = float(conf[member].mean())
        ece += (count / n) * abs(acc - avg_conf)
        bins.append(CalibrationBin(lower, upper, count, acc, avg_conf))
    return CalibrationBins(ece=float(ece), bin_count=m_bins, bins=tuple(bins))


def _confusion(flagged, actual) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) of the boolean calls ``flagged`` against the truth ``actual``."""
    return (int(np.sum(flagged & actual)), int(np.sum(~flagged & ~actual)),
            int(np.sum(flagged & ~actual)), int(np.sum(~flagged & actual)))


def _rates(tp: int, tn: int, fp: int, fn: int) -> tuple[float | None, ...]:
    """Accuracy, sensitivity, specificity and precision; a 0/0 ratio is None."""
    return tuple(None if den == 0 else num / den for num, den in (
        (tp + tn, tp + tn + fp + fn), (tp, tp + fn), (tn, tn + fp), (tp, tp + fp)))


def check_thresholds(thresholds) -> tuple[float, ...]:
    """The grid as floats if it is non-empty, in [0, 1] and strictly increasing."""
    grid = tuple(float(t) for t in thresholds)
    if len(grid) == 0:
        raise ValidationError("threshold list is empty")
    if any(not 0.0 <= t <= 1.0 for t in grid):
        raise ValidationError(f"thresholds must lie in [0, 1], got {list(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(f"thresholds must be strictly increasing, got {list(grid)}")
    return grid


def threshold_sweep(estimates: Estimates, labels,
                    thresholds=DEFAULT_THRESHOLDS) -> tuple[ThresholdRow, ...]:
    """One row per threshold: the confusion matrix of "uncertain" called
    against "incorrect", and its four rates.

    Certain means entropy_norm <= threshold (ties are certain).
    """
    grid = check_thresholds(thresholds)
    _check_aligned(estimates, labels)
    incorrect = ~_correctness(estimates, labels)
    rows = []
    for t in grid:
        tu, tc, fu, fc = _confusion(~(estimates.entropy_norm <= t), incorrect)
        rows.append(ThresholdRow(t, tc, tu, fu, fc, *_rates(tu, tc, fu, fc)))
    return tuple(rows)


def classic_metrics(estimates: Estimates, labels) -> ClassicMetrics:
    """Standard binary metrics on the point predictions, fraud (1) positive."""
    _check_aligned(estimates, labels)
    return ClassicMetrics(*_rates(*_confusion(estimates.predicted_class == 1,
                                              np.asarray(labels) == 1)))


def export_entropy_histogram(estimates: Estimates, labels,
                             bins: int = 50) -> EntropyHistogram:
    """Bin entropy_norm over [0, 1] separately for correct and incorrect
    predictions; also reports each group's mean entropy."""
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    _check_aligned(estimates, labels)
    entropy = estimates.entropy_norm
    correct = _correctness(estimates, labels)
    edges = np.linspace(0.0, 1.0, bins + 1)
    correct_counts, _ = np.histogram(entropy[correct], bins=edges)
    incorrect_counts, _ = np.histogram(entropy[~correct], bins=edges)
    return EntropyHistogram(
        bin_edges=tuple(float(e) for e in edges),
        correct_counts=tuple(int(c) for c in correct_counts),
        incorrect_counts=tuple(int(c) for c in incorrect_counts),
        mean_entropy_correct=float(entropy[correct].mean()) if correct.any() else None,
        mean_entropy_incorrect=float(entropy[~correct].mean()) if (~correct).any() else None,
    )


def build_report(method: str, estimates: Estimates, labels,
                 thresholds=DEFAULT_THRESHOLDS, m_bins: int = 10) -> UqReport:
    return UqReport(
        method=method,
        n=len(estimates),
        calibration=compute_ece(estimates, labels, m_bins),
        thresholds=threshold_sweep(estimates, labels, thresholds),
        classic=classic_metrics(estimates, labels),
        entropy_histogram=export_entropy_histogram(estimates, labels),
    )


def report_to_dict(report: UqReport, meta: dict | None = None) -> dict:
    """The ``report.json`` object: ``meta`` (a ReportFile's seed and
    config digest) and the report's fields."""
    return container.header(REPORT_FORMAT, **(meta or {}), **container.to_plain(report))


def threshold_table_csv(report: UqReport, path, meta: dict | None = None) -> None:
    """Write the per-threshold table, one ThresholdRow a line."""
    container.write_csv(path, f"{REPORT_FORMAT}-thresholds",
                        {"method": report.method, **(meta or {})},
                        [f.name for f in fields(ThresholdRow)], map(astuple, report.thresholds))


def entropy_histogram_csv(report: UqReport, path, meta: dict | None = None) -> None:
    """Write the entropy histogram, one bin a line; the stamp carries each
    group's mean entropy."""
    hist = report.entropy_histogram
    container.write_csv(path, f"{REPORT_FORMAT}-entropy-histogram", {
        "method": report.method, "mean_entropy_correct": hist.mean_entropy_correct,
        "mean_entropy_incorrect": hist.mean_entropy_incorrect, **(meta or {})},
        ("bin_lower", "bin_upper", "correct_count", "incorrect_count"),
        zip(hist.bin_edges, hist.bin_edges[1:], hist.correct_counts, hist.incorrect_counts))


# --- reliability diagram -------------------------------------------------

_SVG_SIZE = 460
_SVG_MARGIN = 50


def _sx(v: float) -> str:
    return f"{_SVG_MARGIN + v * (_SVG_SIZE - 2 * _SVG_MARGIN):.2f}"


def _sy(v: float) -> str:
    return f"{_SVG_SIZE - _SVG_MARGIN - v * (_SVG_SIZE - 2 * _SVG_MARGIN):.2f}"


def render_reliability_svg(bins: CalibrationBins, path, meta: dict | None = None) -> None:
    """Write a reliability diagram: accuracy bars against the identity
    diagonal with the |accuracy - confidence| gap shaded. Output bytes are
    a pure function of the bins and meta, so fixed input renders identically.

    ``meta`` pairs (seed, config digest, ...) are embedded in a leading
    comment so the file records what produced it.
    """
    parts = [
        f"<!-- {container.stamp('frauduq-reliability', meta or {})} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect x="{_sx(0)}" y="{_sy(1)}" width="{float(_sx(1)) - float(_sx(0)):.2f}" '
        f'height="{float(_sy(0)) - float(_sy(1)):.2f}" fill="white" stroke="black"/>',
    ]
    for b in bins.bins:
        acc = 0.0 if b.accuracy is None else b.accuracy
        x0, x1 = float(_sx(b.lower)), float(_sx(b.upper))
        parts.append(
            f'<rect x="{x0:.2f}" y="{_sy(acc)}" width="{x1 - x0:.2f}" '
            f'height="{float(_sy(0)) - float(_sy(acc)):.2f}" '
            f'fill="steelblue" fill-opacity="0.8" stroke="black" stroke-width="0.5"/>'
        )
        if b.count > 0 and b.confidence is not None:
            lo, hi = sorted((acc, b.confidence))
            if hi > lo:
                parts.append(
                    f'<rect x="{x0:.2f}" y="{_sy(hi)}" width="{x1 - x0:.2f}" '
                    f'height="{float(_sy(lo)) - float(_sy(hi)):.2f}" '
                    f'fill="crimson" fill-opacity="0.45"/>'
                )
    parts.append(
        f'<line x1="{_sx(0)}" y1="{_sy(0)}" x2="{_sx(1)}" y2="{_sy(1)}" '
        f'stroke="gray" stroke-dasharray="6,4"/>'
    )
    for tick in (0.0, 0.5, 1.0):
        parts.append(f'<text x="{_sx(tick)}" y="{float(_sy(0)) + 18:.2f}" font-size="11" '
                     f'text-anchor="middle">{tick:g}</text>')
        parts.append(f'<text x="{float(_sx(0)) - 8:.2f}" y="{_sy(tick)}" font-size="11" '
                     f'text-anchor="end">{tick:g}</text>')
    parts.append(f'<text x="{_sx(0.5)}" y="{_SVG_SIZE - 8:.2f}" font-size="12" '
                 f'text-anchor="middle">confidence</text>')
    parts.append(f'<text x="14" y="{_sy(0.5)}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 14 {_sy(0.5)})">accuracy</text>')
    parts.append(f'<text x="{_sx(0.04)}" y="{_sy(0.95)}" font-size="13">'
                 f'ECE = {bins.ece:.6f} (n = {bins.total})</text>')
    parts.append("</svg>")
    with container.open_atomic(path) as fh:
        fh.write("\n".join(parts) + "\n")
