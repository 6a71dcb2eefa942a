"""Tests for calibration, the certain/uncertain confusion matrix,
threshold sweeps, classic metrics, histograms, and the reliability SVG.

All fixtures fabricate Estimates columns directly so that every
checked number is independent of the sampling machinery.
"""

import math

import numpy as np
import pytest

from frauduq.container import write_json
from frauduq.errors import DataError, ValidationError
from frauduq.evaluation import (
    ClassicMetrics,
    build_report,
    classic_metrics,
    compute_ece,
    entropy_histogram_csv,
    export_entropy_histogram,
    render_reliability_svg,
    report_to_dict,
    threshold_sweep,
    threshold_table_csv,
)
from frauduq.uncertainty import Estimates


def est(p_class1, entropy_norm=None):
    """Fabricate estimates, one row per entry of ``p_class1`` (a scalar
    makes one row), each with confidence max(p, 1-p)."""
    p = np.atleast_1d(np.asarray(p_class1, dtype=np.float64))
    probs = np.stack([1.0 - p, p], axis=1)
    if entropy_norm is None:
        terms = np.where(probs > 0.0, probs * np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
        entropy_norm = -terms.sum(axis=1) / math.log(2)
    entropy_norm = np.broadcast_to(np.asarray(entropy_norm, dtype=np.float64), p.shape)
    return Estimates(
        mean_probs=probs,
        predicted_class=(p > 0.5).astype(np.int64),
        entropy_raw=entropy_norm * math.log(2),
        entropy_norm=entropy_norm.copy(),
    )


# --- ECE -----------------------------------------------------------------------


def test_ece_two_bin_hand_example():
    """Four samples, two buckets: ECE computed by hand.

    Bucket (0.5,0.6]: confidences .55/.60, accuracy 1/2 -> gap |0.5-0.575|.
    Bucket (0.9,1.0]: confidences .95/1.0, accuracy 1 -> gap |1-0.975|.
    """
    estimates = est([0.55, 0.4, 0.95, 1.0])
    labels = [1, 1, 1, 1]  # second sample predicts 0 -> wrong
    bins = compute_ece(estimates, labels, m_bins=10)
    assert bins.ece == pytest.approx(0.5 * 0.075 + 0.5 * 0.025, abs=1e-12)
    assert bins.total == 4
    by_count = {b.count for b in bins.bins}
    assert by_count == {0, 2}


def test_ece_bin_assignment_edges():
    """Bins are (lower, upper]: confidence exactly 0.5 lands in (0.4, 0.5]."""
    cases = [
        (0.5, 4),   # ceil(5)-1
        (0.51, 5),
        (1.0, 9),
        (0.91, 9),
        (0.9, 8),
    ]
    for conf, expected_bin in cases:
        bins = compute_ece(est(conf), [1], m_bins=10)
        filled = [i for i, b in enumerate(bins.bins) if b.count]
        assert filled == [expected_bin], f"confidence {conf}"


def test_ece_maximally_miscalibrated_is_half_exactly():
    """Confidence 1.0 everywhere, accuracy one half -> ECE = 0.5 exactly."""
    estimates = est([1.0] * 40)
    labels = [1, 0] * 20
    bins = compute_ece(estimates, labels, m_bins=10)
    assert bins.ece == 0.5


def test_ece_perfectly_calibrated_predictor_is_small():
    """Correctness probability equals stated confidence -> ECE near 0."""
    rng = np.random.default_rng(99)
    confidences, labels = [], []
    for _ in range(4000):
        conf = float(rng.uniform(0.5, 1.0))
        confidences.append(conf)
        labels.append(1 if rng.random() < conf else 0)
    bins = compute_ece(est(confidences), labels, m_bins=10)
    assert bins.ece < 0.03


def test_ece_rejects_empty_and_bad_bins():
    with pytest.raises(ValidationError):
        compute_ece(est(0.9), [1], m_bins=0)
    with pytest.raises(DataError):
        compute_ece(est([]), [], m_bins=10)
    with pytest.raises(DataError):
        compute_ece(est(0.9), [1, 0], m_bins=10)


# --- UQ confusion matrix ----------------------------------------------------------


def fixture_counts(tc, tu, fu, fc, threshold=0.4):
    """Fabricate estimates realizing exact TC/TU/FU/FC counts; every row
    predicts class 1."""
    certain_h, uncertain_h = threshold / 2, (1 + threshold) / 2
    entropy = ([certain_h] * tc       # correct & certain
               + [uncertain_h] * tu   # incorrect & uncertain
               + [uncertain_h] * fu   # correct & uncertain
               + [certain_h] * fc)    # incorrect & certain
    labels = [1] * tc + [0] * tu + [1] * fu + [0] * fc
    return est([0.9] * len(labels), entropy_norm=entropy), labels


def test_worked_fixture_metrics():
    """TC=8, TU=1, FU=1, FC=0 -> UAcc 0.9, USen 1.0, USpe 8/9, UPre 0.5."""
    estimates, labels = fixture_counts(8, 1, 1, 0)
    row = threshold_sweep(estimates, labels, (0.4,))[0]
    assert (row.tc, row.tu, row.fu, row.fc) == (8, 1, 1, 0)
    assert row.uacc == pytest.approx(0.9)
    assert row.usen == pytest.approx(1.0)
    assert row.uspe == pytest.approx(0.889, abs=1e-3)
    assert row.upre == pytest.approx(0.5)


def test_zero_denominators_are_none_not_nan():
    estimates, labels = fixture_counts(5, 0, 0, 0)
    m = threshold_sweep(estimates, labels, (0.4,))[0]
    assert m.uacc == 1.0
    assert m.usen is None  # no incorrect predictions at all
    assert m.upre is None  # no uncertain predictions at all
    assert m.uspe == 1.0

    estimates, labels = fixture_counts(0, 0, 3, 0)
    m = threshold_sweep(estimates, labels, (0.4,))[0]
    assert m.uspe == 0.0 and m.usen is None and m.upre == 0.0


def test_boundary_entropy_counts_as_certain():
    e = est(0.9, entropy_norm=0.4)
    c = threshold_sweep(e, [1], (0.4,))[0]
    assert c.tc == 1 and c.fu == 0


def brute_force_tables(rng):
    """200 random (p_class1, entropy_norm, labels, threshold) tables, then
    one whose specificity is 0/0: every label fraud, one caught, one missed."""
    for _ in range(200):
        n = int(rng.integers(1, 40))
        threshold = float(rng.random())
        ps, hs, labels = [], [], []
        for _ in range(n):
            ps.append(float(rng.uniform(0.0, 1.0)))
            hs.append(float(rng.random()))
            labels.append(int(rng.integers(0, 2)))
        yield ps, hs, labels, threshold
    yield [0.9, 0.2], [0.1, 0.8], [1, 1], 0.5


def test_confusion_brute_force_recount():
    """threshold_sweep and classic_metrics vs per-sample loops on random tables."""
    def ratio(num, den):
        return None if den == 0 else num / den

    for ps, hs, labels, threshold in brute_force_tables(np.random.default_rng(7)):
        estimates = est(ps, entropy_norm=hs)
        c = threshold_sweep(estimates, labels, (threshold,))[0]

        tc = tu = fu = fc = tp = tn = fp = fn = 0
        for p, h, y in zip(ps, hs, labels):
            pred = int(p > 0.5)
            correct = pred == y
            certain = h <= threshold
            if correct and certain:
                tc += 1
            elif not correct and not certain:
                tu += 1
            elif correct:
                fu += 1
            else:
                fc += 1
            tp += pred == 1 and y == 1
            tn += pred == 0 and y == 0
            fp += pred == 1 and y == 0
            fn += pred == 0 and y == 1
        assert (c.tc, c.tu, c.fu, c.fc) == (tc, tu, fu, fc)
        assert c.tc + c.tu + c.fu + c.fc == len(ps)

        classic = classic_metrics(estimates, labels)
        assert classic == ClassicMetrics(ratio(tp + tn, len(ps)), ratio(tp, tp + fn),
                                         ratio(tn, tn + fp), ratio(tp, tp + fp))
    assert classic == ClassicMetrics(0.5, 0.5, None, 1.0)  # the last, fixed table


@pytest.mark.parametrize("labels", [[2, 7], [2, -1], [0, 0.5], [0, 1, 0], [0, 2]])
@pytest.mark.parametrize("evaluate", [
    compute_ece, export_entropy_histogram, classic_metrics,
    threshold_sweep],
    ids=["compute_ece", "export_entropy_histogram", "classic_metrics", "threshold_sweep"])
def test_labels_other_than_0_and_1_are_refused(evaluate, labels):
    with pytest.raises(DataError, match="0 or 1"):
        evaluate(est([0.9, 0.2]), labels)


# --- sweeps --------------------------------------------------------------------


def test_sweep_certain_count_monotone_and_grid_checked():
    rng = np.random.default_rng(11)
    draws = [(float(rng.uniform()), float(rng.random())) for _ in range(60)]
    estimates = est(*zip(*draws))
    labels = [int(rng.integers(0, 2)) for _ in range(60)]
    rows = threshold_sweep(estimates, labels)
    assert len(rows) == 9
    certain_counts = [row.tc + row.fc for row in rows]
    assert certain_counts == sorted(certain_counts)

    with pytest.raises(ValidationError):
        threshold_sweep(estimates, labels, thresholds=(0.5, 0.3))
    with pytest.raises(ValidationError):
        threshold_sweep(estimates, labels, thresholds=())


def test_sweep_high_threshold_uacc_tracks_accuracy():
    """At threshold 0.9 nearly every point is flagged certain, so UAcc
    collapses towards plain accuracy: the only leakage is correct-but-very-
    uncertain points, which a converged model keeps rare. Checked on a
    trained ensemble over well-separated blobs.
    """
    from frauduq.data import split_train_test, synth_generate
    from frauduq.network import NetworkConfig
    from frauduq.uncertainty import EnsembleSpec, predict_table, train_ensemble

    table = synth_generate(400, 6, 4.0, noise_seed=11)
    train_t, test_t = split_train_test(table, 0.7, seed=11)
    base = NetworkConfig(input_units=6, hidden_units=(32, 16, 8), dropout_rate=0.3,
                         epochs=100, batch_size=64, learning_rate=5e-3, seed=0)
    spec = EnsembleSpec(members=5, width_ranges=((24, 48), (12, 24), (6, 12)))
    members = train_ensemble(spec, base, train_t, master_seed=11)
    estimates = predict_table("ensemble", members, test_t.features, 1, seed=11)
    rows = threshold_sweep(estimates, list(test_t.labels))
    accuracy = classic_metrics(estimates, list(test_t.labels)).accuracy
    assert rows[-1].threshold == pytest.approx(0.9)
    assert rows[-1].uacc >= accuracy - 0.01


# --- classic metrics ---------------------------------------------------------------


def test_classic_metrics_hand_fixture():
    """3 TP, 1 FN, 2 TN, 2 FP with fraud=1 positive."""
    estimates = est([0.9] * 3 + [0.1] + [0.2] * 2 + [0.8] * 2)
    labels = [1, 1, 1, 1, 0, 0, 0, 0]
    m = classic_metrics(estimates, labels)
    assert m.accuracy == pytest.approx(5 / 8)
    assert m.sensitivity == pytest.approx(3 / 4)
    assert m.specificity == pytest.approx(2 / 4)
    assert m.precision == pytest.approx(3 / 5)


# --- histogram -----------------------------------------------------------------------


def test_classic_metrics_everything_predicted_genuine():
    # degenerate predictor: no positive calls at all -> precision undefined
    estimates = est([0.1] * 4)
    labels = [1, 1, 0, 0]
    m = classic_metrics(estimates, labels)
    assert m.accuracy == pytest.approx(0.5)
    assert m.sensitivity == pytest.approx(0.0)
    assert m.specificity == pytest.approx(1.0)
    assert m.precision is None


def test_entropy_histogram_counts_and_means():
    estimates = est([0.9] * 4, entropy_norm=[0.1, 0.3, 0.6, 0.9])
    labels = [1, 1, 0, 0]  # first two correct, last two wrong
    hist = export_entropy_histogram(estimates, labels, bins=4)
    assert hist.correct_counts == (1, 1, 0, 0)
    assert hist.incorrect_counts == (0, 0, 1, 1)
    assert hist.mean_entropy_correct == pytest.approx(0.2)
    assert hist.mean_entropy_incorrect == pytest.approx(0.75)


def test_entropy_histogram_empty_group_is_none():
    estimates = est(0.9, entropy_norm=0.2)
    hist = export_entropy_histogram(estimates, [1], bins=5)
    assert hist.mean_entropy_incorrect is None
    assert sum(hist.correct_counts) == 1


# --- report / rendering ----------------------------------------------------------------


def full_report():
    rng = np.random.default_rng(3)
    draws = [(float(rng.uniform()), float(rng.random())) for _ in range(50)]
    estimates = est(*zip(*draws))
    labels = [int(rng.integers(0, 2)) for _ in range(50)]
    return build_report("mcd", estimates, labels)


def test_report_serializes_with_na_markers(tmp_path):
    report = full_report()
    obj = report_to_dict(report, meta={"seed": 1})
    from frauduq.container import dumps_canonical

    text = dumps_canonical(obj)  # must be JSON-serializable as-is
    assert '"method": "mcd"' in text

    threshold_table_csv(report, tmp_path / "t.csv", meta={"seed": 1})
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[1] == "threshold,tc,tu,fu,fc,uacc,usen,uspe,upre"
    assert len(lines) == 2 + 9

    entropy_histogram_csv(report, tmp_path / "h.csv")
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines[1] == "bin_lower,bin_upper,correct_count,incorrect_count"

    # Undefined ratios are written as null, the JSON for "no value".
    estimates, labels = fixture_counts(4, 0, 0, 0)
    report = build_report("mcd", estimates, labels)
    assert report.thresholds[0].usen is None and report.classic.specificity is None
    write_json(report_to_dict(report, {"seed": 1, "config_digest": "abc"}),
               tmp_path / "report.json")
    text = (tmp_path / "report.json").read_text()
    assert '"usen": null' in text and '"specificity": null' in text


def test_csv_uses_na_for_undefined_ratios(tmp_path):
    estimates, labels = fixture_counts(4, 0, 0, 0)
    report = build_report("mcd", estimates, labels)
    threshold_table_csv(report, tmp_path / "t.csv")
    row = [line for line in (tmp_path / "t.csv").read_text().splitlines()
           if line.startswith("0.4,")][0]
    assert ",NA" in row


def test_reliability_svg_is_byte_deterministic(tmp_path):
    report = full_report()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    meta = {"seed": 7, "config_digest": "abc123"}
    render_reliability_svg(report.calibration, a, meta)
    render_reliability_svg(report.calibration, b, meta)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "<svg" in text and "ECE" in text and "</svg>" in text
    # first line stamps the format version and provenance
    first = text.splitlines()[0]
    assert "version=1" in first and "seed=7" in first and "config_digest=abc123" in first


def test_reliability_svg_handles_empty_bins(tmp_path):
    # two occupied bins, eight empty ones: must render without NaNs
    estimates = est([0.55, 0.95])
    report = build_report("mcd", estimates, [1, 1])
    out = tmp_path / "sparse.svg"
    render_reliability_svg(report.calibration, out)
    text = out.read_text()
    assert "nan" not in text.lower()
    assert text.count("<rect") >= 11  # frame + one bar per bin
