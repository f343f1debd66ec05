"""Shared benchmark-report writer for every ``BENCH_*.json``.

The serving, training and obs-overhead benchmarks used to hand-roll their
JSON dicts, which meant no two reports agreed on provenance fields (or
carried any).  Every report now flows through :func:`write_bench_report`,
which stamps a ``meta`` block — schema version, benchmark kind, git SHA,
platform, interpreter/numpy versions, and the benchmark's configuration —
around the benchmark's own result fields, which stay at the top level so
existing readers (CI asserts, the benchmark test suites) keep working.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..utils.atomic import atomic_write_text

#: Bump when the shape of the ``meta`` block changes.
#: v2: ``cpu_count`` joined the environment block — a speedup is
#: meaningless without knowing how many cores the runner had.
BENCH_SCHEMA_VERSION = 2


def git_sha(cwd: Optional[Union[str, Path]] = None) -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_environment() -> Dict[str, object]:
    """Provenance of the machine/toolchain a report was produced on."""
    return {
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def bench_meta(kind: str, config: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """The ``meta`` block stamped into every benchmark report."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": kind,
        **bench_environment(),
        "config": dict(config or {}),
    }


def write_bench_report(
    out: Union[str, Path],
    kind: str,
    result: Dict[str, object],
    config: Optional[Dict[str, object]] = None,
) -> Path:
    """Write ``result`` (top-level) plus a stamped ``meta`` block to ``out``.

    ``result`` may not contain its own ``meta`` key — the stamp must not
    silently clobber or be clobbered by benchmark payloads.  The write is
    atomic (tmp file + ``os.replace``): an interrupted benchmark cannot
    leave a half-written ``BENCH_*.json`` behind.
    """
    if "meta" in result:
        raise ValueError("benchmark result must not define its own 'meta' key")
    payload = {"meta": bench_meta(kind, config), **result}
    return atomic_write_text(Path(out), json.dumps(payload, indent=2, default=str) + "\n")
