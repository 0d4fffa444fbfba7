"""Reference loops: fixed pure-Python work that never calls clawvol.

This machine's speed drifts while other tenants share the host.  So a run
samples one of these loops between its items and reports each item in units
of the loop, not only in seconds.  Each workload uses the kernel whose
arithmetic is closest to its own.  Its ratio to the loop then moves least
when the machine's speed moves: in eight runs of `lemma-flat` the ratio
ranged 1.5% with the fraction kernel and 5% with the integer one.
"""

from __future__ import annotations

import time
from fractions import Fraction


def _lcg_matrix(size: int, seed: int = 2023) -> list[list[int]]:
    x, rows = seed, []
    for _ in range(size):
        row = []
        for _ in range(size):
            x = (1103515245 * x + 12345) % 2 ** 31
            row.append(x % 101 - 50)
        rows.append(row)
    return rows


INT_MATRIX = _lcg_matrix(10)
FRACTION_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(7)]
                   for i in range(7)]


def bareiss_det(matrix: list[list[int]]) -> int:
    """Integer determinant by fraction-free elimination."""
    m = [row[:] for row in matrix]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i, f = m[i], m[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def fraction_det(matrix: list[list[Fraction]]) -> Fraction:
    """Rational determinant by Gaussian elimination over Fraction."""
    m = [row[:] for row in matrix]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return det


# name -> (kernel, its input, repeats, the value it must return)
KERNELS = {
    "integer": (bareiss_det, INT_MATRIX, 25, 309274375638347726),
    "fraction": (fraction_det, FRACTION_MATRIX, 3, Fraction(-955518271, 497664)),
}


def sample(kind: str) -> float:
    """Seconds for one pass of the named loop."""
    kernel, matrix, repeats, expected = KERNELS[kind]
    start = time.perf_counter()
    for _ in range(repeats):
        value = kernel(matrix)
    elapsed = time.perf_counter() - start
    if value != expected:
        raise AssertionError(f"{kind} reference loop computed {value}, not {expected}")
    return elapsed
