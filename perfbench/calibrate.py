"""Machine-speed calibration for samples on a shared, noisy host.

On a host whose cores are shared with other tenants, the same code runs at
speeds that differ by up to 50% from one second to the next.  The kernel
below is a fixed mix of the two kinds of work the program does: a pure-Python
pair-partition recursion and many small numpy linear-algebra calls.  Each
sample times it just before and just after its run.  The benchmark then
states the sample's times in reference seconds: seconds on a machine where
the kernel takes ``REFERENCE_S``.  The kernel is part of the benchmark, not of
the program, so a change to the program cannot move it.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = 0.05

_COV = [[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.0]]
_SYMBOLS = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]


def _pairing(cov, symbols) -> float:
    if not symbols:
        return 1.0
    first, rest = symbols[0], symbols[1:]
    return sum(cov[first][p] * _pairing(cov, rest[:k] + rest[k + 1 :]) for k, p in enumerate(rest))


def kernel_s() -> float:
    """Wall time of one pass of the calibration kernel, about 50 ms."""
    matrix = np.array(_COV)
    start = perf_counter()
    _pairing(_COV, _SYMBOLS)
    for _ in range(1500):
        np.linalg.det(matrix[:2, :2])
        np.linalg.eigvalsh(matrix)
        np.linalg.solve(matrix, matrix[0])
    return perf_counter() - start
