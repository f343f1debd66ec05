"""Traced daemon: install span wrappers, then run ``repro serve``.

Usage: ``python3 perfbench/launcher.py --spans-out PATH -- serve ARGS...``

The wrappers keep spans in memory; they are written to ``PATH`` when the
daemon shuts down (SIGINT, as ``repro serve`` expects).  The topology
stays one daemon process.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import common  # noqa: F401  (puts src/ on sys.path)
import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    store = spans.SpanStore()
    spans.install(store)
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        store.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
