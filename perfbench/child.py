"""One measured frauduq process, started fresh by ``run.py``.

Usage: ``python3 child.py <request.json>`` with the working directory
set to the run's work directory and ``src`` on PYTHONPATH. The request
names the mode ("setup" or "chain"), the run config, the output
directory, the seed, the number of resumed reruns, whether to trace, and
where to write the JSON result.

Setup ends once frauduq is imported and the run config is resolved and
validated, as on every CLI command; the parent subtracts its own clock
reading at spawn from ``ready`` (both CLOCK_MONOTONIC, which is shared
by all processes). A chain then runs ``reproduce`` cold into the empty
output directory and reruns it ``resumes`` times into the finished one.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def _manifest_state(out_dir: Path) -> dict:
    """(inode, mtime) of every stage manifest; a stage that reran rewrites its own."""
    return {p.relative_to(out_dir).as_posix(): (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in sorted(out_dir.rglob("manifest.json"))}


def _chain(request: dict, pipeline, config) -> dict:
    out_dir = Path(request["out"])
    tracer = None
    if request["trace"]:
        from frauduq import container, network, uncertainty

        import tracing

        tracer = tracing.Tracer()
        tracer.install({"pipeline": pipeline, "container": container,
                        "network": network, "uncertainty": uncertainty})
    log: list[str] = []
    result: dict = {"error": None}

    cpu0, wall0 = os.times(), time.perf_counter()
    try:
        pipeline.cmd_reproduce(config, log=log.append)
    except Exception as exc:  # reported to the parent, which counts it as a failed stage
        result["error"] = f"cold chain: {type(exc).__name__}: {exc}"
    wall, cpu1 = time.perf_counter() - wall0, os.times()
    result["run_s"] = wall
    result["cpu_s"] = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cold_state = _manifest_state(out_dir)
    result["stages"] = len(cold_state)

    result["resume_s"], result["resume_skipped"] = [], []
    if tracer is not None:
        tracer.phase = "resume"
    for _ in range(0 if result["error"] else request["resumes"]):
        start = time.perf_counter()
        try:
            pipeline.cmd_reproduce(config, log=log.append)
        except Exception as exc:  # reported to the parent as failed resumed stages
            result["error"] = f"resumed chain: {type(exc).__name__}: {exc}"
            break
        result["resume_s"].append(time.perf_counter() - start)
        state = _manifest_state(out_dir)
        result["resume_skipped"].append(
            sum(1 for k, v in cold_state.items() if state.get(k) == v))

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["self_s"] = tracing.self_times(tracer.spans)
    return result


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    from frauduq import cli, pipeline  # noqa: F401  (cli: every command pays its import)

    config = pipeline.load_run_config(path=request["config"], seed=request["seed"],
                                      out=request["out"])
    result = {"ready": time.monotonic()}
    if request["mode"] == "chain":
        result.update(_chain(request, pipeline, config))
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
