"""The README's library example must keep running against the package."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    estimates, test_t = namespace["estimates"], namespace["test_t"]
    assert len(estimates) == test_t.n_rows
    assert estimates.mean_probs.shape == (test_t.n_rows, 2)
    assert len(namespace["confusions"]) == 9
    assert "ClassicMetrics" in capsys.readouterr().out
