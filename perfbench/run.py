"""frauduq benchmark: cold and resumed ``reproduce`` chains, plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-predict --seed 1 --seconds 30 --trace 0

Every measured process is a fresh interpreter running ``child.py`` with
``src`` on PYTHONPATH and BLAS threads pinned to 1 in its environment
only. One process runs at a time (closed loop, one client). The last
line of standard output is the JSON result; the line before it is a
JSON record of the environment, the samples and the output fingerprints.
See README.md in this directory for the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
FINGERPRINTS = WORK_ROOT / "fingerprints.json"

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
METHODS = ("mcd", "ensemble", "emcd")
SETUP_SAMPLES = 5  # setup-only processes per run, besides one per chain
RESUMES = 5  # resumed reruns per chain; a resume takes tens of milliseconds
MIN_CHAINS = 2
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SEED_STRIDE = 1000  # chain i of a run uses frauduq seed seed * SEED_STRIDE + i


def chain_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


class Run:
    """State of one benchmark invocation: samples, operation counts, records."""

    def __init__(self, args, work_dir: Path, info: dict):
        self.args = args
        self.work_dir = work_dir
        self.info = info
        self.start = time.monotonic()
        self.env = {**os.environ, "PYTHONPATH": str(SRC), **THREAD_VARS}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.chains: list[dict] = []
        self.traced: list[dict] = []
        self.known = _load_fingerprints()
        self.src_digest, self.src_lines = _src_digest()
        self.input_digest = _sha256(b"".join(
            p.name.encode() + b"\0" + p.read_bytes() for p in sorted(work_dir.iterdir())))

    def op(self, ok: bool, what: str, count: int = 1, failed: int | None = None) -> None:
        self.attempted += count
        bad = (0 if ok else count) if failed is None else failed
        self.failed += bad
        if bad:
            self.problems.append(what)

    def spawn(self, mode: str, seed: int, trace: bool = False) -> dict | None:
        """Run one child process; returns its result with ``setup_s`` added."""
        name = f"{mode}{'-traced' if trace else ''}-{seed}"
        out = self.work_dir / f"out-{name}"
        request_path = self.work_dir / f"request-{name}.json"
        result_path = self.work_dir / f"result-{name}.json"
        request = {"mode": mode, "config": self.info["config"].name, "out": out.name,
                   "seed": seed, "resumes": 1 if trace else RESUMES, "trace": trace,
                   "result": result_path.name}
        request_path.write_text(json.dumps(request), encoding="utf-8")
        timeout = max(1.0, self.start + HARD_LIMIT_S - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), request_path.name],
                                  cwd=self.work_dir, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            self.op(False, f"{name}: timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.op(False, f"{name}: exit {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - spawned
        result["out"] = out
        self.setup_s.append(result["setup_s"])
        return result

    def chain(self, seed: int, trace: bool = False) -> dict | None:
        result = self.spawn("chain", seed, trace)
        if result is None:
            return None
        stages = result["stages"]
        self.op(True, "cold stages", count=stages)
        if result["error"]:
            self.op(False, f"seed {seed}: {result['error']}")
        for skipped in result["resume_skipped"]:
            self.op(skipped == stages, f"seed {seed}: resume reran {stages - skipped} stage(s)",
                    count=stages, failed=stages - skipped)
        result["seed"] = seed
        result["fingerprint"] = _manifest_fingerprint(result["out"])
        result["dumps"] = {}
        for method in METHODS:
            path = result["out"] / "predictions" / method / "dump.jsonl"
            problem, accuracy = check_dump(path, self.info["test_rows"])
            self.op(problem is None, f"seed {seed} {method}: {problem}")
            if path.is_file():
                result["dumps"][method] = {"sha256": _sha256(path.read_bytes())[:16],
                                           "accuracy": accuracy}
        shutil.rmtree(result.pop("out"), ignore_errors=True)
        return result

    def check_reproducible(self, result: dict) -> None:
        """Cold artifacts of one commit, set of input files and seed never change."""
        key = f"{self.src_digest[:16]}:{self.input_digest[:16]}:{result['seed']}"
        expected = self.known.setdefault(key, result["fingerprint"])
        self.op(expected == result["fingerprint"],
                f"seed {result['seed']}: cold artifacts differ from an earlier run")

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def more(self, done: list[float]) -> bool:
        """Start another chain only if it is expected to end within --seconds."""
        if len(done) < (1 if self.args.trace else MIN_CHAINS):
            return True
        expected = statistics.fmean(done)
        return (self.elapsed() + expected <= self.args.seconds
                and self.elapsed() + 2 * expected < HARD_LIMIT_S)


def check_dump(path: Path, test_rows: int) -> tuple[str | None, float | None]:
    """One record per test row with a probability vector, a normalized
    entropy in [0, 1] and above-chance accuracy (the workloads are balanced)."""
    if not path.is_file():
        return f"{path.name} missing", None
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines[1:] if line.strip()]
    if len(records) != test_rows:
        return f"{len(records)} records, expected {test_rows}", None
    correct = 0
    for i, rec in enumerate(records):
        if rec["index"] != i:
            return f"record {i} has index {rec['index']}", None
        if abs(sum(rec["mean_probs"]) - 1.0) > 1e-9:
            return f"record {i}: mean_probs sum to {sum(rec['mean_probs'])!r}", None
        if not 0.0 <= rec["entropy_norm"] <= 1.0:
            return f"record {i}: entropy_norm {rec['entropy_norm']!r}", None
        correct += rec["predicted_class"] == rec["label"]
    accuracy = correct / test_rows
    if not accuracy > 0.5:
        return f"accuracy {accuracy:.4f} is not above chance", accuracy
    return None, accuracy


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest_fingerprint(out_dir: Path) -> str:
    """Digest over every manifest, so over every digest the chain recorded."""
    h = hashlib.sha256()
    for p in sorted(out_dir.rglob("manifest.json")):
        h.update(p.relative_to(out_dir).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _src_digest() -> tuple[str, int]:
    h, lines = hashlib.sha256(), 0
    for p in sorted(SRC.rglob("*.py")):
        data = p.read_bytes()
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def _load_fingerprints() -> dict:
    try:
        return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def environment(run: Run) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": THREAD_VARS,
        "git_commit": commit,
        "src_sha256": run.src_digest,
        "src_lines": run.src_lines,
    }


def end_to_end(run: Run) -> dict:
    chains = run.chains
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        # Chains differ in seed, so in member widths: run_s is the mean cost
        # of a chain. Under this host's two-state speed noise the mean also
        # spread less from run to run than the median did.
        "run_s": (statistics.fmean(c["run_s"] for c in chains), "s"),
        "resume_s": (statistics.median(s for c in chains for s in c["resume_s"]), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in chains), "MB"),
        "ok_frac": (1.0 - run.failed / run.attempted, "ratio"),
    }


UNITS = (("_per_s", "1/s"), ("_gflops", "GFLOP/s"), ("_gflop", "GFLOP"), ("_mb", "MB"),
         ("_ratio", "ratio"), ("_frac", "ratio"), ("_per_wall", "ratio"), ("_s", "s"))


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def per_layer(run: Run) -> dict:
    traced, untraced = run.traced, run.chains
    names = traced[0]["layers"]
    metrics = {k: statistics.fmean(t["layers"][k] for t in traced) for k in names}
    untraced_s = statistics.fmean(c["run_s"] for c in untraced)
    cpu_s = statistics.fmean(c["cpu_s"] for c in untraced)
    metrics["process.cpu_s"] = cpu_s
    metrics["process.cpu_per_wall"] = cpu_s / untraced_s
    overhead = statistics.fmean(t["run_s"] for t in traced) - untraced_s
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced_s
    return {k: (v, _unit(k)) for k, v in metrics.items()}


def projection(run: Run) -> list[str]:
    """Paper-profile emcd time projected from this run's measured rates:
    forward GFLOP/s, mask seconds per mask cell, reduction seconds per
    sample row."""
    rate = {k: statistics.fmean(t["layers"][k] for t in run.traced)
            for k in ("uncertainty.forward_gflops", "uncertainty.mask_s",
                      "uncertainty.mask_cells", "uncertainty.reduce_s",
                      "uncertainty.sample_rows")}
    d = run.info["params"]["data"]["synth"]["n_features"]
    widths = [sum(r) / 2 for r in workloads.PAPER_WIDTHS]
    dims = [d, *widths, 2]
    members, passes, rows = 30, 1000, 12_398
    sample_rows = members * passes * rows
    gflop = 2.0 * sample_rows * sum(a * b for a, b in zip(dims, dims[1:])) / 1e9
    hours = {
        "forward": gflop / rate["uncertainty.forward_gflops"] / 3600,
        "masks": rate["uncertainty.mask_s"] / rate["uncertainty.mask_cells"]
        * sample_rows * sum(widths) / 3600,
        "reduction": rate["uncertainty.reduce_s"] / rate["uncertainty.sample_rows"]
        * sample_rows / 3600,
    }
    return [
        f"PROJECTED, not measured: paper-profile emcd ({members} members x {passes} passes "
        f"over {rows} test rows, d={d}, mean paper widths {widths}): "
        f"{sum(hours.values()):.2f} h on this machine",
        f"  forward {hours['forward']:.2f} h ({gflop:,.0f} GFLOP at "
        f"{rate['uncertainty.forward_gflops']:.2f} GFLOP/s), masks {hours['masks']:.2f} h, "
        f"reduction {hours['reduction']:.2f} h; training and I/O not included",
    ]


def measure(run: Run) -> None:
    for i in range(SETUP_SAMPLES):
        run.spawn("setup", chain_seed(run.args.seed, i))
    done: list[float] = []
    index = 0
    while run.more(done):
        seed = chain_seed(run.args.seed, index)
        begun = time.monotonic()
        if not run.args.trace:
            result = run.chain(seed)
            if result is not None and not result["error"]:
                run.check_reproducible(result)
                run.chains.append(result)
        else:
            # Alternate which side of a pair runs first, so order effects
            # cancel in the tracing overhead.
            order = (False, True) if index % 2 == 0 else (True, False)
            pair = {trace: run.chain(seed, trace) for trace in order}
            result, traced = pair[False], pair[True]
            if all(r is not None and not r["error"] for r in pair.values()):
                run.check_reproducible(result)
                run.op(traced["fingerprint"] == result["fingerprint"],
                       f"seed {seed}: traced artifacts differ from untraced ones")
                run.chains.append(result)
                run.traced.append(traced)
        index += 1
        done.append(time.monotonic() - begun)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the smoke tests of this harness")
    args = parser.parse_args(argv)
    if not (SRC / "frauduq" / "__init__.py").is_file():
        print(f"error: no frauduq sources under {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    try:
        info = workloads.prepare(args.workload, args.seed, work_dir, toy=args.toy)
        run = Run(args, work_dir, info)
        measure(run)
        FINGERPRINTS.write_text(json.dumps(run.known, indent=1, sort_keys=True),
                                encoding="utf-8")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not run.chains or (args.trace and not run.traced):
        print("error: no chain completed: " + "; ".join(run.problems), file=sys.stderr)
        return 1
    metrics = per_layer(run) if args.trace else end_to_end(run)
    record = {
        "workload": args.workload, "seed": args.seed, "toy": args.toy, "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "params": info["params"], "test_rows": info["test_rows"],
        "environment": environment(run),
        "measured_s": run.elapsed(),
        "chains": [{k: c[k] for k in ("seed", "run_s", "resume_s", "setup_s", "peak_rss_mb",
                                      "cpu_s", "fingerprint", "dumps")} for c in run.chains],
        "setup_samples_s": run.setup_s,
        "ops": {"attempted": run.attempted, "failed": run.failed},
        "problems": run.problems,
    }
    if args.trace:
        record["traced_run_s"] = [t["run_s"] for t in run.traced]
        record["self_s"] = run.traced[0]["self_s"]
        if args.workload == "paper-predict":
            for line in projection(run):
                print(line)
    print(json.dumps({"perfbench_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
