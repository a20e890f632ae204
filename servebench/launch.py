"""Server entry point of the benchmark: the real ``repro serve`` over TCP.

    python servebench/launch.py --processes 0|1 [--trace-dir DIR]

``--processes 0`` runs ``repro serve K_Amazon --tcp --port 0`` through the
CLI.  ``--processes 1`` runs the cluster front-end with one spawned worker
through the CLI's own cluster path (``repro serve --processes 1`` on its
own would fall back to the single-process server).  Both print the serve
banner with the bound port on stderr and stop on SIGINT.

With ``--trace-dir`` the layer functions are wrapped by
:mod:`tracer` in this process and, for the cluster, in the worker, and
each process writes its spans into the directory when it exits.  A traced
server runs with ``--metrics``, so the program's own counters (the
mediator's filter candidates and survivors) are counted and recorded.
"""

from __future__ import annotations

import argparse
import functools
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

SERVE_ARGS = ["serve", "K_Amazon", "--tcp", "--port", "0"]


def traced_worker_main(trace_dir: str, *args, **kwargs) -> None:
    """A cluster worker with the layer functions wrapped (spawn target)."""
    import tracer
    from repro.serve import worker

    recorder = tracer.install()
    try:
        worker.worker_main(*args, **kwargs)
    finally:
        recorder.dump(trace_dir)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--processes", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    # A parent started in the background may pass SIGINT down ignored;
    # the benchmark stops the server with it, so take it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from repro import cli

    serve_args = list(SERVE_ARGS)
    recorder = None
    if args.trace_dir is not None:
        import tracer

        serve_args.append("--metrics")
        recorder = tracer.install()
        if args.processes:
            from repro.serve import cluster

            cluster.worker_main = functools.partial(traced_worker_main, args.trace_dir)
    try:
        if args.processes:
            serve = cli.build_arg_parser().parse_args(
                serve_args + ["--processes", str(args.processes)]
            )
            return cli._serve_cluster(serve)
        return cli.main(serve_args)
    finally:
        if recorder is not None:
            recorder.dump(args.trace_dir)


if __name__ == "__main__":
    raise SystemExit(main())
