"""Machine-speed calibration: fixed pieces of work that never touch relaqm.

The 2-core host this benchmark was written on changes speed by up to 70 %
within a minute: a fixed ``qudit`` case took 55 ms in some 10-second windows
and 98 ms in others, with no steal time, the process never descheduled, and
every kind of code slowing together.  Run-to-run spread then measures the
host, not relaqm.  So the end-to-end timings are reported at a fixed
reference speed: between ops (and between the steps of an op that takes
seconds) the benchmark times a calibration, and each stretch of wall time is
multiplied by the calibration's reference time over the median calibration
time measured right before and right after it.

A change to relaqm moves the op times and leaves the calibration alone; a
change of host speed moves both.  There are two calibrations, because the
host's slowdowns do not hit warm and cold code alike:

* :data:`WARM`, for ops inside the benchmark process, mixes what those ops
  spend their time on: a pure-Python YAML parse, small dense linear algebra
  and reshapes of a 12-qubit state vector;
* :data:`COLD`, for child processes (``cli`` ops, set-up probes), starts a
  fresh interpreter that imports numpy and PyYAML.  Over the same minutes
  it tracked the child processes' times twice as closely as :data:`WARM`
  did, which tracked them worse than no scaling at all.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

SHARE = 0.25  # calibration time per op, as a share of the op's time

_rng = np.random.default_rng(0)
_DOC = yaml.safe_dump(
    {"systems": [{"name": f"S{i}", "dim": 2} for i in range(6)],
     "preparations": {f"S{i}": [[float(x), float(y)] for x, y in _rng.normal(size=(2, 2))]
                      for i in range(6)}},
    sort_keys=False, default_flow_style=None)
_MATRIX = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_STATE = _rng.normal(size=2 ** 12) + 1j * _rng.normal(size=2 ** 12)


def warm_once() -> float:
    """Seconds taken by the fixed in-process work."""
    start = time.perf_counter()
    yaml.safe_load(_DOC)
    m = _MATRIX
    for _ in range(8):
        m = m @ _MATRIX
        m /= np.linalg.norm(m)
        np.linalg.svd(m)
    tensor = _STATE.reshape((2,) * 12)
    for axis in range(12):
        moved = np.moveaxis(tensor, axis, 0).reshape(2, -1)
        np.linalg.svd(moved, compute_uv=False)
    return time.perf_counter() - start


def cold_once() -> float:
    """Seconds taken by a fresh interpreter that imports numpy and PyYAML."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, yaml"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Calibration:
    measure: Callable[[], float]  # runs the fixed work once, returns its seconds
    reference_ms: float           # its time at the reference speed
    min_calls: int                # calls after each op, at least

    def block(self, seconds: float) -> list[float]:
        """Samples taken over about ``seconds`` of wall time."""
        samples = [self.measure() for _ in range(self.min_calls)]
        while sum(samples) < seconds:
            samples.append(self.measure())
        return samples


WARM = Calibration(warm_once, 6.0, 3)
COLD = Calibration(cold_once, 200.0, 2)


class Stopwatch:
    """Times one op as a series of segments.  An op may call :meth:`pause`
    between its steps; a plain stopwatch ignores that."""

    def start(self) -> None:
        self._start = time.perf_counter()

    def pause(self) -> None:
        pass

    def stop(self) -> float:
        """Seconds since :meth:`start`."""
        return time.perf_counter() - self._start


class Scaler(Stopwatch):
    """A stopwatch that scales each segment to the reference speed, by the
    calibration blocks taken right before and right after it.

    Ops that take seconds pause between their steps, so that the host's
    speed is sampled within the op and not only at its ends.
    """

    def __init__(self, calibration: Calibration = WARM):
        self.calibration = calibration
        self.before = calibration.block(0.0)
        self.samples: list[float] = list(self.before)
        self.raw: list[float] = []    # unscaled seconds of each op

    def start(self) -> None:
        self._raw = self._scaled = 0.0
        super().start()

    def pause(self) -> None:
        elapsed = super().stop()
        after = self.calibration.block(SHARE * elapsed)
        self.samples += after
        speed = statistics.median(self.before + after) * 1e3 / self.calibration.reference_ms
        self.before = after
        self._raw += elapsed
        self._scaled += elapsed / speed
        super().start()

    def stop(self) -> float:
        """Seconds the op took, at the reference speed."""
        self.pause()
        self.raw.append(self._raw)
        return self._scaled
