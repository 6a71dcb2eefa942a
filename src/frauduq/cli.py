"""Command-line entry point.

Subcommands mirror the pipeline stages; every command resolves a
RunConfig from profile defaults, an optional JSON config file, and CLI
flags (flags win), validates it fully, then runs. Failures map to
distinct exit codes: 2 validation, 3 data, 4 numeric, 5 I/O.
"""

import argparse
import sys

from . import __version__, pipeline
from .errors import FraudUqError
from .uncertainty import METHODS

EXIT_IO = 5


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

    sub.add_parser("preprocess", parents=[shared],
                   help="split raw data and fit/apply the preprocessor")
    sub.add_parser("train", parents=[shared],
                   help="train the model(s) the chosen method needs")

    p = sub.add_parser("predict", parents=[shared],
                       help="predict a feature table with uncertainty")
    p.add_argument("--model", metavar="PATH",
                   help="network file (mcd) or ensemble directory (ensemble/emcd)")
    p.add_argument("--data", metavar="PATH", help="feature table to predict")

    for name, help_text in (("evaluate", "score a prediction dump (ECE, UQ metrics, SVG)"),
                            ("sweep", "evaluate and print the per-threshold table")):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.add_argument("--dump", metavar="PATH", help="prediction dump (.jsonl)")

    sub.add_parser("synth", parents=[shared],
                   help="generate the built-in synthetic dataset")
    sub.add_parser("reproduce", parents=[shared],
                   help="run the whole chain and summarize all three methods")
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    config = pipeline.load_run_config(
        path=args.config, profile=args.profile, seed=args.seed,
        out=args.out, method=args.method, mc_passes=args.mc_passes)
    if args.command == "preprocess":
        pipeline.cmd_preprocess(config)
    elif args.command == "train":
        pipeline.cmd_train(config)
    elif args.command == "predict":
        pipeline.cmd_predict(config, model_path=args.model, data_path=args.data)
    elif args.command == "evaluate":
        pipeline.cmd_evaluate(config, dump_path=args.dump)
    elif args.command == "sweep":
        pipeline.cmd_sweep(config, dump_path=args.dump)
    elif args.command == "synth":
        pipeline.cmd_synth(config)
    elif args.command == "reproduce":
        pipeline.cmd_reproduce(config)
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
