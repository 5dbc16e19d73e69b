"""numpy's float ranges bit for bit, in plain floats, for the code that
samples without numpy: the scan grid of the CLI, the peak of the matching
residual and the oracle's root search.
"""

import math


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) bit for bit, without numpy: the
    same products start + i*step, the same exact-division form when the
    step underflows to zero, and the last point set to stop."""
    div = num - 1
    if div == 0:
        return [0.0 * (stop - start) + start]
    step = (stop - start) / div
    if step == 0.0:
        points = [i / div * (stop - start) + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _arange(start: float, stop: float, step: float) -> list[float]:
    """np.arange(start, stop, step) bit for bit, without numpy: the length
    ceil((stop - start) / step), then start, start + step and
    start + i ((start + step) - start)."""
    n = max(0, math.ceil((stop - start) / step))
    delta = (start + step) - start
    return [start, start + step][:n] + [start + i * delta for i in range(2, n)]
