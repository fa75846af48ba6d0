"""Set-up and pass execution shared by run.py and golden.py, and the
calibration loop that rescales times to a reference host speed.

On a shared host the speed for the same work can drift by 1.5x and more
over minutes (seen on a shared two-vCPU host). The calibration loop,
pure-Python `Fraction` arithmetic like bihomcheck's hot path but no
bihomcheck code, runs between timed pieces of work; a time measured between two calibrations
a and b is rescaled by REF_S / ((a + b) / 2), i.e. to a host on which the
loop takes REF_S. A change to bihomcheck cannot change the loop.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PACKAGE = "bihomcheck"

CALIBRATION_ITERATIONS = 6000
REF_S = 0.05  # calibration loop time on the reference host
CALIBRATE_EVERY_S = 1.0  # within a pass, calibrate after checks at least this far apart


def calibration_loop() -> float:
    """Seconds the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_ITERATIONS):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor to the reference host speed for work timed between two
    calibrations."""
    return REF_S / ((before + after) / 2)


def purge_package() -> None:
    """Forget every imported bihomcheck module, so the next import parses the
    .idl library and loads the catalog again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def set_up(workload, bundle_dir: Path, tracer=None):
    """Import the package (through the tracer when given), load the catalog,
    build the workload's bundles and save them. Returns `cli_main`."""
    purge_package()
    if tracer is not None:
        tracer.install(PACKAGE)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    catalog = importlib.import_module(f"{PACKAGE}.catalog")
    fileio = importlib.import_module(f"{PACKAGE}.fileio")
    catalog.entries()
    bundle_dir.mkdir(parents=True, exist_ok=True)
    for name, bundle in workload.build().items():
        fileio.save_bundle(bundle, bundle_dir / f"{name}.json")
    return cli.cli_main


class _Discard(io.TextIOBase):
    """A stdout that keeps nothing (and is not a tty, so no colour codes)."""

    def write(self, text: str) -> int:
        return len(text)


@dataclass
class Outcome:
    exit_code: int | None  # None when cli_main raised
    report: bytes | None  # None when no report file was written


@dataclass
class PassResult:
    latencies_s: list  # wall time of each check
    scaled_s: list | None  # the same rescaled to the reference host speed
    outcomes: list  # Outcome per check, in check order

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled_s)


def run_pass(cli_main, checks, report_dir: Path, tracer=None, calibrate=False) -> PassResult:
    """One pass over the checks, stdout discarded; reports are read back
    after the pass. With `calibrate`, the calibration loop runs before the
    first check, after the last, and after any check that ends
    CALIBRATE_EVERY_S or more after the previous calibration; each latency
    is rescaled by the two calibrations around it."""
    report_dir.mkdir(parents=True, exist_ok=True)
    paths = [report_dir / c.report for c in checks]
    for p in paths:
        p.unlink(missing_ok=True)
    latencies, codes, before = [], [], []
    clock = time.perf_counter
    calibrations = [calibration_loop()] if calibrate else []
    last_calibration = clock()
    with contextlib.redirect_stdout(_Discard()):
        for i, (check, path) in enumerate(zip(checks, paths)):
            if tracer is not None:
                tracer.check_id = i
            before.append(len(calibrations) - 1)
            t0 = clock()
            try:
                code = cli_main([*check.argv, "--report", str(path)])
            except Exception:  # a crash is a failed check, not a crashed benchmark
                traceback.print_exc(file=sys.stderr)
                code = None
            t1 = clock()
            latencies.append(t1 - t0)
            codes.append(code)
            if calibrate and (t1 - last_calibration >= CALIBRATE_EVERY_S or i == len(checks) - 1):
                calibrations.append(calibration_loop())
                last_calibration = clock()
    scaled = None
    if calibrate:
        scaled = [
            t * scale(calibrations[k], calibrations[k + 1]) for t, k in zip(latencies, before)
        ]
    outcomes = [
        Outcome(code, p.read_bytes() if p.is_file() else None) for code, p in zip(codes, paths)
    ]
    return PassResult(latencies, scaled, outcomes)
