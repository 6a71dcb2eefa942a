"""A killed run resumes cleanly: the kill-anywhere contract of ``reproduce``.

A wrapper process imports the CLI once and forks one child per kill
point. The child runs ``reproduce`` with ``os.replace`` wrapped so that
it dies with ``os._exit(137)`` just before or just after the N-th
replace: no ``finally`` block, no temp-file cleanup, no flush. Rerunning
the same command must then exit 0 and leave, byte for byte, the tree of
a run that was never killed, with no ``.tmp`` file in it.

The run is killed at every replace it makes, once before and once after,
which takes about 10 s on 2 cores.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from frauduq import cli

# The smallest run that still goes through all ten stages.
TINY = {
    "data": {"synth": {"n_per_class": 10, "n_features": 2, "separation": 2.5}},
    "network": {"hidden_units": [2, 2, 2], "epochs": 1, "batch_size": 16},
    "ensemble": {"members": 2, "width_ranges": [[2, 3], [2, 3], [2, 3]]},
    "mc_passes": 1,
    "seed": 5,
}

# argv: a JSON list of [out dir, kill at (0: never), "before" or "after"],
# then the command line without --out. Prints a JSON list of
# [exit status, the replaced paths] per run.
WRAPPER = r"""
import json, os, sys
from frauduq import cli

runs, argv = json.loads(sys.argv[1]), sys.argv[2:]
real_replace = os.replace
results = []
for out, kill_at, when in runs:
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        calls = []

        def replace(src, dst, *args, **kwargs):
            calls.append(os.path.relpath(dst, out))
            os.write(write, (json.dumps(calls[-1]) + "\n").encode())
            if len(calls) == kill_at and when == "before":
                os._exit(137)
            real_replace(src, dst, *args, **kwargs)
            if len(calls) == kill_at and when == "after":
                os._exit(137)

        os.replace = replace
        sys.stdout = open(os.devnull, "w")
        os._exit(cli.main([*argv, "--out", out]))
    os.close(write)
    with os.fdopen(read) as pipe:
        replaced = [json.loads(line) for line in pipe]
    status = os.waitpid(pid, 0)[1]
    results.append([os.waitstatus_to_exitcode(status), replaced])
print(json.dumps(results))
"""


def run_wrapper(runs, argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", WRAPPER, json.dumps(runs), *argv], env=env,
                          capture_output=True, text=True, timeout=240)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def tree(root: Path) -> dict:
    """Every directory (as None) and file (as its bytes) under ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def stage_of(rel: str) -> str:
    """A file's stage is its directory (config.json is its own)."""
    return os.path.dirname(rel) or rel


def test_reproduce_killed_at_any_replace_resumes_to_the_clean_tree(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    argv = ["reproduce", "--config", str(config)]
    [(code, replaced)] = run_wrapper([[str(tmp_path / "clean"), 0, "never"]], argv)
    assert code == 0
    clean = tree(tmp_path / "clean")
    assert len({stage_of(rel) for rel in replaced}) == 11  # config.json and ten stages
    assert not any(rel.endswith(".tmp") for rel in clean)

    runs = [[str(tmp_path / f"{when}_{n}"), n, when] for n in range(1, len(replaced) + 1)
            for when in ("before", "after")]
    bad = []
    for (out, n, when), (code, _) in zip(runs, run_wrapper(runs, argv)):
        label = f"killed {when} replace {n} ({replaced[n - 1]})"
        if code != 137:
            bad.append(f"{label}: the killed run exited {code}")
            continue
        code = cli.main([*argv, "--out", out])
        left = tree(Path(out))
        if code != 0 or left != clean:
            stray = sorted(left.keys() ^ clean.keys())
            differ = sorted(k for k in left.keys() & clean.keys() if left[k] != clean[k])
            bad.append(f"{label}: rerun exited {code}; only in one tree: {stray}; "
                       f"differ: {differ}")
    assert not bad, "\n".join(bad)
