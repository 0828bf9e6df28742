"""Fresh-interpreter helpers started by ``run.py``.

    child.py setup <workload> <seed> <out_dir>
        import the package, draw the inputs, run one warm-up op of each kind
    child.py cli <trace_file> <eitcool cli arguments...>
        run the CLI in-process with the span tracer installed and write the
        spans to <trace_file>
"""

import os
import sys


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        import workloads

        workload, seed, out_dir = argv[1], int(argv[2]), argv[3]
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        workloads.WORKLOADS[workload](root, seed, out_dir).warmup()
        return 0
    if mode == "cli":
        import eitcool.cli

        from spans import Tracer

        tracer = Tracer()
        tracer.op = 0
        tracer.install()
        try:
            code = eitcool.cli.main(argv[2:])
        finally:
            tracer.uninstall()
            tracer.dump(argv[1])
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
