"""Command-line interface: eitcool run | validate | constants.

``main(argv)`` returns the exit code, for in-process callers; ``entry`` is the
process entry of ``python -m eitcool.cli`` and of the ``eitcool`` script.
"""

import _signal
import argparse
import os
import sys
from importlib import resources
from pathlib import Path

from .config import ConfigError, load_config
from .constants import constants_table

# the BLAS thread counts that ``entry`` sets to 1 where the caller left them unset
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bundled_config_path(name: str) -> Path:
    """Path to a bundled configuration file (fig2.cfg, fig3.cfg, ...)."""
    path = resources.files("eitcool") / "configs" / name
    return Path(str(path))


def _resolve_config_arg(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    bundled = bundled_config_path(arg)
    if bundled.exists():
        return bundled
    raise FileNotFoundError(f"config file {arg!r} not found (also not a bundled config)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitcool",
        description="Dark-resonance ground-state cooling simulator for a trapped ion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a task configuration, emit CSV")
    p_run.add_argument("config", help="config file path or bundled name (e.g. fig2.cfg)")
    p_run.add_argument("--out", default=".", help="output directory (default: cwd)")
    p_run.add_argument("--verbose", action="store_true")

    p_val = sub.add_parser("validate", help="parse and validate a config, report defaults")
    p_val.add_argument("config")

    sub.add_parser("constants", help="print the frozen physical constant table")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "constants":
            for name, value in constants_table().items():
                print(f"{name} = {value!r}")
            return 0
        path = _resolve_config_arg(args.config)
        config = load_config(path)
        if args.command == "validate":
            print(f"{path}: OK (task = {config.task})")
            for key in config.applied_defaults:
                print(f"  default applied: {key} = {config.values[key]!r}")
            return 0
        from .runner import run  # here: validate and constants load no numpy

        run(config, args.out, verbose=args.verbose)
        return 0
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver and runtime failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if getattr(args, "verbose", False):
            import traceback
            traceback.print_exc()
        return 1


def entry():
    """Run ``main`` on the process's arguments and end the process with its code.

    The runner has closed its outputs by then, so once stdio is flushed the
    process ends at once, without interpreter teardown (about 20 ms, most of it
    numpy's module state).  argparse's ``SystemExit`` and a ``KeyboardInterrupt``
    leave through Python's normal exit.  A closed stdout ends it by SIGPIPE, as
    ``cat``; ``_signal`` is ``signal``'s builtin core, without its 1.3 ms of enums.

    Each BLAS thread count the environment leaves unset is set to 1 before
    ``main`` runs: OpenBLAS starts its thread pool when numpy loads, which
    ``main`` does only for ``run`` (and a thermometry ``validate``); a pool
    sized to the machine costs each start-up tens of milliseconds, and no
    matrix the package factors is large enough to share.
    """
    if hasattr(_signal, "SIGPIPE"):
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    for name in _BLAS_THREADS:
        os.environ.setdefault(name, "1")
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
