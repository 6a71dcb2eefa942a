"""Evaluation of uncertainty estimates.

Calibration (expected calibration error over equal-width confidence
buckets), the certain/uncertain confusion matrix with its four derived
metrics, threshold sweeps, classic binary-classification metrics
(fraud = positive class), entropy histograms split by correctness, and a
byte-deterministic SVG reliability diagram.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import container
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
    bins: tuple[CalibrationBin, ...]
    ece: float
    total: int


@dataclass(frozen=True)
class UqConfusion:
    """Counts of the correctness x certainty taxonomy at one threshold:
    tc = correct & certain, tu = incorrect & uncertain,
    fu = correct & uncertain, fc = incorrect & certain."""

    tc: int
    tu: int
    fu: int
    fc: int
    threshold: float

    @property
    def total(self) -> int:
        return self.tc + self.tu + self.fu + self.fc


@dataclass(frozen=True)
class UqMetrics:
    """Uncertainty analogues of accuracy/sensitivity/specificity/precision.
    A 0/0 ratio is reported as None, never NaN."""

    uacc: float | None
    usen: float | None
    uspe: float | None
    upre: float | None


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
class UqReport:
    """Everything the evaluate command emits for one prediction dump."""

    method: str
    n: int
    calibration: CalibrationBins
    thresholds: tuple[float, ...]
    confusions: tuple[UqConfusion, ...]
    metrics: tuple[UqMetrics, ...]
    classic: ClassicMetrics
    entropy_histogram: EntropyHistogram


def _check_aligned(estimates, labels):
    if len(estimates) == 0:
        raise DataError("no estimates to evaluate")
    if len(labels) != len(estimates):
        raise DataError(f"{len(estimates)} estimates but {len(labels)} labels")


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
    return CalibrationBins(bins=tuple(bins), ece=float(ece), total=n)


def uq_confusion(estimates: Estimates, labels, threshold: float) -> UqConfusion:
    """Count the four correctness/certainty outcomes at one threshold.

    Certain means entropy_norm <= threshold (ties are certain).
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")
    _check_aligned(estimates, labels)
    correct = _correctness(estimates, labels)
    certain = estimates.entropy_norm <= threshold
    return UqConfusion(
        tc=int(np.sum(correct & certain)),
        tu=int(np.sum(~correct & ~certain)),
        fu=int(np.sum(correct & ~certain)),
        fc=int(np.sum(~correct & certain)),
        threshold=threshold,
    )


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def uq_metrics(c: UqConfusion) -> UqMetrics:
    """Uncertainty accuracy/sensitivity/specificity/precision from the counts."""
    return UqMetrics(
        uacc=_ratio(c.tu + c.tc, c.total),
        usen=_ratio(c.tu, c.tu + c.fc),
        uspe=_ratio(c.tc, c.tc + c.fu),
        upre=_ratio(c.tu, c.tu + c.fu),
    )


def threshold_sweep(estimates: Estimates, labels,
                    thresholds=DEFAULT_THRESHOLDS) -> tuple[tuple[UqConfusion, ...], tuple[UqMetrics, ...]]:
    """Confusion counts and metrics per threshold, flags recomputed each time."""
    thresholds = tuple(float(t) for t in thresholds)
    if len(thresholds) == 0:
        raise ValidationError("threshold list is empty")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValidationError(f"thresholds must be strictly increasing, got {list(thresholds)}")
    confusions = tuple(uq_confusion(estimates, labels, t) for t in thresholds)
    return confusions, tuple(uq_metrics(c) for c in confusions)


def classic_metrics(estimates: Estimates, labels) -> ClassicMetrics:
    """Standard binary metrics on the point predictions, fraud (1) positive."""
    _check_aligned(estimates, labels)
    pred = estimates.predicted_class
    truth = np.asarray(labels)
    tp = int(np.sum((pred == 1) & (truth == 1)))
    tn = int(np.sum((pred == 0) & (truth == 0)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    return ClassicMetrics(
        accuracy=_ratio(tp + tn, len(pred)),
        sensitivity=_ratio(tp, tp + fn),
        specificity=_ratio(tn, tn + fp),
        precision=_ratio(tp, tp + fp),
    )


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
                 thresholds=DEFAULT_THRESHOLDS, m_bins: int = 10,
                 histogram_bins: int = 50) -> UqReport:
    confusions, metrics = threshold_sweep(estimates, labels, thresholds)
    return UqReport(
        method=method,
        n=len(estimates),
        calibration=compute_ece(estimates, labels, m_bins),
        thresholds=tuple(float(t) for t in thresholds),
        confusions=confusions,
        metrics=metrics,
        classic=classic_metrics(estimates, labels),
        entropy_histogram=export_entropy_histogram(estimates, labels, histogram_bins),
    )


def report_to_dict(report: UqReport, meta: dict | None = None) -> dict:
    cal = report.calibration
    return container.header(
        REPORT_FORMAT,
        **(meta or {}),
        method=report.method,
        n=report.n,
        classic=vars(report.classic),
        calibration={
            "ece": cal.ece,
            "bin_count": len(cal.bins),
            "bins": [vars(b) for b in cal.bins],
        },
        thresholds=[
            {"threshold": c.threshold, "tc": c.tc, "tu": c.tu, "fu": c.fu, "fc": c.fc,
             "uacc": m.uacc, "usen": m.usen, "uspe": m.uspe, "upre": m.upre}
            for c, m in zip(report.confusions, report.metrics)
        ],
        entropy_histogram={
            "bin_edges": list(report.entropy_histogram.bin_edges),
            "correct_counts": list(report.entropy_histogram.correct_counts),
            "incorrect_counts": list(report.entropy_histogram.incorrect_counts),
            "mean_entropy_correct": report.entropy_histogram.mean_entropy_correct,
            "mean_entropy_incorrect": report.entropy_histogram.mean_entropy_incorrect,
        },
    )


def _csv_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def threshold_table_csv(report: UqReport, meta: dict | None = None) -> str:
    """Flat per-threshold CSV; a leading # line carries the metadata."""
    meta_bits = container.stamp(f"{REPORT_FORMAT}-thresholds",
                                {"method": report.method, **(meta or {})})
    lines = [f"# {meta_bits}", "threshold,tc,tu,fu,fc,uacc,usen,uspe,upre"]
    for c, m in zip(report.confusions, report.metrics):
        lines.append(",".join(_csv_cell(v) for v in
                              (c.threshold, c.tc, c.tu, c.fu, c.fc,
                               m.uacc, m.usen, m.uspe, m.upre)))
    return "\n".join(lines) + "\n"


def entropy_histogram_csv(report: UqReport, meta: dict | None = None) -> str:
    hist = report.entropy_histogram
    meta_bits = container.stamp(f"{REPORT_FORMAT}-entropy-histogram", {
        "method": report.method,
        "mean_entropy_correct": _csv_cell(hist.mean_entropy_correct),
        "mean_entropy_incorrect": _csv_cell(hist.mean_entropy_incorrect),
        **(meta or {})})
    lines = [f"# {meta_bits}", "bin_lower,bin_upper,correct_count,incorrect_count"]
    for i in range(len(hist.correct_counts)):
        lines.append(",".join(_csv_cell(v) for v in
                              (hist.bin_edges[i], hist.bin_edges[i + 1],
                               hist.correct_counts[i], hist.incorrect_counts[i])))
    return "\n".join(lines) + "\n"


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
