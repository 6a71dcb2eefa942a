"""The benchmark's tracer wraps frauduq functions by module and name
(``perfbench/tracing.py``'s ``WRAPS``). These checks fail in seconds when
a rename or a changed call would break a traced benchmark run."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import frauduq.uncertainty as unc
from frauduq.network import NetworkConfig, init_network

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracing):
    for module_name, attr, span, _ in tracing.WRAPS:
        module = importlib.import_module(f"frauduq.{module_name}")
        assert callable(getattr(module, attr, None)), f"{span}: frauduq.{module_name}.{attr}"


def test_predict_table_calls_the_wrapped_names_as_the_notes_read_them(tracing, monkeypatch):
    """Prediction draws its masks through ``uncertainty.sample_dropout_mask``,
    the member's config first and ``n_rows`` as a keyword, and runs its
    passes through ``uncertainty.forward``: the tracer's notes count mask
    cells and forward rows from exactly those arguments."""
    config = NetworkConfig(input_units=3, hidden_units=(5, 4, 3), dropout_rate=0.3)
    members = [init_network(dataclasses.replace(config, seed=s)) for s in (1, 2)]
    notes = {"sample_dropout_mask": [], "forward": []}

    def noting(name, note):
        original = getattr(unc, name)

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            notes[name].append((args[0], kwargs, note(args, kwargs, result)))
            return result

        return spy

    monkeypatch.setattr(unc, "sample_dropout_mask", noting("sample_dropout_mask",
                                                           tracing._mask_note))
    monkeypatch.setattr(unc, "forward", noting("forward", tracing._forward_note))
    unc.predict_table("emcd", members, np.zeros((6, 3)), passes=4, seed=0)
    assert len(notes["sample_dropout_mask"]) == len(notes["forward"]) == 2 * 4
    for first, kwargs, note in notes["sample_dropout_mask"]:
        assert isinstance(first, NetworkConfig) and kwargs.get("n_rows") == 6
        assert note == {"cells": 6 * (5 + 4 + 3)}
    assert all(note["rows"] == 6 for _, _, note in notes["forward"])
