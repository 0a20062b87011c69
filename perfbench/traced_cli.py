"""Run the triality CLI in this process with the layer-timing wrappers installed.

    python perfbench/traced_cli.py SPANS_JSON <triality CLI arguments...>

Exits with the CLI's own exit code after writing the recorded spans to
SPANS_JSON.  ``src`` must be on PYTHONPATH.
"""
import sys
import time

T_START = time.perf_counter()

from tracing import Tracer  # noqa: E402  (perfbench/ is sys.path[0])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import", t0=T_START):
        import triality.cli as cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            rc = cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
