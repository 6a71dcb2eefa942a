"""Command-line entry point.

Subcommands mirror the pipeline stages; every command resolves a
RunConfig from profile defaults, an optional JSON config file, and CLI
flags (flags win), validates it fully, then runs. Failures map to
distinct exit codes: 2 validation, 3 data, 4 numeric, 5 I/O.
"""

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np

from . import __version__, pipeline
from .errors import FraudUqError
from .uncertainty import METHODS

EXIT_IO = 5
# numpy 2.x bundles scipy-openblas; older wheels bundle plain OpenBLAS
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread: a multi-threaded matrix
    product can round differently, and frauduq runs its own threads. Says
    so on stderr if no such library or setter is found."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return
    print("warning: cannot reach numpy's OpenBLAS to pin it to one thread; set "
          "OPENBLAS_NUM_THREADS=1 for artifacts that do not depend on the core count",
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON run config")
    shared.add_argument("--profile", choices=sorted(pipeline.PROFILES),
                        help="constants preset: 'paper' (full scale) or 'desk' (CI scale)")
    shared.add_argument("--seed", type=int, metavar="N", help="master seed")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--method", choices=METHODS, help="uncertainty method")
    shared.add_argument("--mc-passes", type=int, metavar="N",
                        help="MC forward passes per model (mcd/emcd)")

    parser = argparse.ArgumentParser(
        prog="frauduq",
        description="Train small fraud classifiers and quantify predictive "
                    "uncertainty with MC dropout, deep ensembles, and ensemble "
                    "MC dropout.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    dump = ("--dump", "dump_path", "prediction dump (.jsonl)")
    for name, run, help_text, flags in (
        ("preprocess", pipeline.cmd_preprocess,
         "split raw data and fit/apply the preprocessor", ()),
        ("train", pipeline.cmd_train,
         "train the one model the method needs: the single net (mcd) or the ensemble", ()),
        ("predict", pipeline.cmd_predict, "predict a feature table with uncertainty", (
            ("--model", "model_path", "network file (mcd) or ensemble directory (ensemble/emcd)"),
            ("--data", "data_path", "feature table to predict"))),
        ("evaluate", pipeline.cmd_evaluate,
         "score a prediction dump (ECE, UQ metrics, SVG)", (dump,)),
        ("sweep", pipeline.cmd_sweep, "evaluate and print the per-threshold table", (dump,)),
        ("synth", pipeline.cmd_synth, "generate the built-in synthetic dataset", ()),
        ("reproduce", pipeline.cmd_reproduce,
         "run the whole chain and summarize all three methods", ()),
    ):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.set_defaults(run=run)
        for flag, dest, flag_help in flags:
            p.add_argument(flag, metavar="PATH", dest=dest, help=flag_help)
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    config = pipeline.load_run_config(
        path=args.config, profile=args.profile, seed=args.seed,
        out=args.out, method=args.method, mc_passes=args.mc_passes)
    args.run(config, **{k: v for k, v in vars(args).items() if k.endswith("_path")})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pin_blas_threads()
    try:
        _dispatch(args)
    except FraudUqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
