"""The README's examples and tables must keep matching the package."""

import argparse
import re
from dataclasses import fields, replace
from pathlib import Path

from frauduq import cli, pipeline
from frauduq.evaluation import ThresholdRow
from frauduq.network import NetworkConfig, NetworkParams

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(title, 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    return section("## Library use").split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    estimates, test_t = namespace["estimates"], namespace["test_t"]
    assert len(estimates) == test_t.n_rows
    assert estimates.mean_probs.shape == (test_t.n_rows, 2)
    assert len(namespace["rows"]) == 9
    assert "ClassicMetrics" in capsys.readouterr().out


def test_readme_sweep_header_is_the_threshold_row():
    headers = [line for line in section("## Quickstart").splitlines()
               if line.startswith("threshold,")]
    assert headers == [",".join(f.name for f in fields(ThresholdRow))]


def test_readme_config_example_is_the_desk_profile(tmp_path):
    example = section("## Config file").split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.json"
    path.write_text(example, encoding="utf-8")
    config = pipeline.load_run_config(path)
    assert config == replace(pipeline.PROFILES["desk"], seed=21)


def test_readme_names_the_fields_network_config_adds():
    text = " ".join(section("## Config file").split())
    added = re.search(r"`NetworkConfig`[^.]* is `NetworkParams` plus ([^:.]*)", text)[1]
    assert sorted(re.findall(r"`(\w+)`", added)) == sorted(
        {f.name for f in fields(NetworkConfig)} - {f.name for f in fields(NetworkParams)})


def test_readme_profiles_table_matches_the_code():
    rows = [line.split("|")[1:-1] for line in section("### Profiles").splitlines()
            if line.startswith("| `")]
    table = {}
    for name, hidden, epochs, batch, members, widths, passes in rows:
        ranges = re.findall(r"\((\d+)–(\d+)\)", widths)
        table[name.strip().strip("`")] = (
            tuple(int(h) for h in hidden.split("/")), int(epochs), int(batch), int(members),
            tuple((int(lo), int(hi)) for lo, hi in ranges), int(passes))
    assert table == {
        name: (c.network.hidden_units, c.network.epochs, c.network.batch_size,
               c.ensemble.members, c.ensemble.width_ranges, c.mc_passes)
        for name, c in pipeline.PROFILES.items()}


def test_readme_command_table_is_the_parser_subcommands():
    rows = [line.split("|")[1].strip().strip("`")
            for line in section("## Command reference").splitlines() if line.startswith("| `")]
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert rows == list(subparsers.choices)
