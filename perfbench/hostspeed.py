"""Host-speed calibration for timings taken on a shared machine.

Other tenants slow a shared host by up to 2x for seconds to minutes at a
time, which moves a median over a whole run by more than any useful bound.
The program and a fixed kernel of the same kind of work slow down together,
so each timing is divided by the slowdown the kernel shows next to it, which
expresses it at the reference host speed below.
"""

from time import perf_counter

# the kernel's time on an uncontended core of the reference host (Xeon,
# 2 vCPUs, Python 3.11, NumPy 2.4); timings are scaled to this speed
CALIBRATION_ROUNDS = 400
CALIBRATION_REFERENCE_S = 0.015


def calibration_seconds():
    """Time a fixed kernel of the program's kind of work: small FFTs, NumPy
    elementwise operations and 17-digit formatting."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    start = perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        y = np.fft.irfft(np.fft.rfft(x) * 1.0001, 64)
        text = ",".join(format(v, ".17g") for v in y[:16])
        x = y * 0.999 + 1e-6 * len(text)
    return perf_counter() - start


def slowdown():
    """One sample of the host's slowdown against the reference speed."""
    return calibration_seconds() / CALIBRATION_REFERENCE_S


class HostSpeed:
    """Brackets each measurement with two kernel timings and returns the
    slowdown they show; consecutive measurements share the timing between them."""

    def __init__(self):
        self.last = calibration_seconds()
        self.slowdowns = []

    def around(self, measure):
        before = self.last
        out = measure()
        self.last = calibration_seconds()
        factor = 0.5 * (before + self.last) / CALIBRATION_REFERENCE_S
        self.slowdowns.append(factor)
        return out, factor
