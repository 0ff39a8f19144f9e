"""Piecewise-cubic interpolation tables, built and evaluated with numpy.

cubic_table interpolates the columns of y on a strictly increasing grid
with C2 cubics: not-a-knot end conditions for 4 or more points, natural
ones (zero second derivative) for 2 or 3, and a constant for 1.  The
knot slopes solve the usual tridiagonal system by a Thomas sweep without
pivoting; on grids whose spacings span four decades it stays as close
to a 50-digit solution of the same system as a pivoted banded solve.
Piece i holds the coefficients (a, b, c, d) of
a s^3 + b s^2 + c s + d in s = t - x[i], one column per column of y.

Products of pieces are polynomials too; poly_range bounds one on its
piece exactly, from its values at the piece ends and at the real roots
of its derivative.
"""

from __future__ import annotations

import numpy as np


def cubic_table(x, y) -> np.ndarray:
    """Coefficients of the interpolant of y (shape (n, m)) on the grid x
    (shape (n,)), shape (max(n-1, 1), 4, m); a one-point grid gets one
    constant piece."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    table = np.zeros((max(n - 1, 1), 4) + y.shape[1:])
    if n == 1:
        table[0, 3] = y[0]
        return table
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    # row i of the slope system:
    # lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
    lower = np.zeros(n)
    diag = np.empty(n)
    upper = np.zeros(n)
    rhs = np.empty_like(y)
    lower[1:-1] = dx[1:]
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    upper[1:-1] = dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    if n >= 4:
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        diag[-1], lower[-1] = dx[-2], d
        rhs[-1] = (
            dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]
        ) / d
    else:
        diag[0], upper[0] = 2.0 * dx[0], dx[0]
        rhs[0] = 3.0 * (y[1] - y[0])
        diag[-1], lower[-1] = 2.0 * dx[-1], dx[-1]
        rhs[-1] = 3.0 * (y[-1] - y[-2])
    # the sweep runs on Python floats, one column of y at a time
    lower, diag, upper = lower.tolist(), diag.tolist(), upper.tolist()
    factor = [0.0] * n
    for i in range(1, n):
        factor[i] = f = lower[i] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
    columns = rhs.T.tolist()
    for r in columns:
        for i in range(1, n):
            r[i] -= factor[i] * r[i - 1]
        r[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            r[i] = (r[i] - upper[i] * r[i + 1]) / diag[i]
    s = np.array(columns).T
    curve = (s[:-1] + s[1:] - 2.0 * slope) / dx[:, None]
    table[:, 0] = curve / dx[:, None]
    table[:, 1] = (slope - s[:-1]) / dx[:, None] - curve
    table[:, 2] = s[:-1]
    table[:, 3] = y[:-1]
    return table


def cubic_values(x, table: np.ndarray, times) -> np.ndarray:
    """The interpolant with knots x and coefficients table at times
    (clamped to [x[0], x[-1]]), shape np.shape(times) + (m,)."""
    x = np.asarray(x, dtype=float)
    t = np.clip(np.asarray(times, dtype=float), x[0], x[-1])
    piece = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(table) - 1)
    s = (t - x[piece])[..., None]
    a, b, c, d = np.moveaxis(table[piece], -2, 0)
    return ((a * s + b) * s + c) * s + d


def unit_pieces(x, table: np.ndarray) -> np.ndarray:
    """The table's pieces as polynomials in u = (t - x[i]) / (x[i+1] - x[i])
    on [0, 1], ascending powers: shape (m, n-1, 4) for m columns."""
    width = np.diff(np.asarray(x, dtype=float))
    scaled = table[: len(width)] * (width[:, None] ** np.arange(3, -1, -1))[:, :, None]
    return np.moveaxis(scaled[:, ::-1], -1, 0)


def poly_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of polynomials with ascending coefficients."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i : i + b.shape[1]] += a[:, i : i + 1] * b
    return out


def poly_range(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (smallest, largest) value on [0, 1] of polynomials with
    ascending coefficients, taken over both ends and the real roots of
    the derivative (companion eigenvalues, batched by degree, clipped to
    [0, 1]).  Derivative coefficients below 1e-8 of their row's largest
    are dropped first: a companion matrix spanning more decades places
    the roots in [0, 1] far less accurately than rounding, while the
    dropped terms change the derivative by at most 1e-8 of its scale,
    which moves the value at an extreme only in second order."""
    deriv = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    n, m = deriv.shape
    roots = np.zeros((n, m - 1))
    live = np.abs(deriv) > 1e-8 * np.abs(deriv).max(axis=1, keepdims=True)
    degree = np.where(live.any(axis=1), m - 1 - np.argmax(live[:, ::-1], axis=1), 0)
    for d in range(1, m):
        rows = np.flatnonzero(degree == d)
        if rows.size:
            companion = np.zeros((rows.size, d, d))
            companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            companion[:, :, -1] = -deriv[rows, :d] / deriv[rows, d : d + 1]
            roots[rows, :d] = np.linalg.eigvals(companion).real
    ends = np.broadcast_to([0.0, 1.0], (n, 2))
    points = np.concatenate([ends, np.clip(roots, 0.0, 1.0)], axis=1)
    values = np.zeros_like(points)
    for k in range(coeffs.shape[1] - 1, -1, -1):
        values = values * points + coeffs[:, k : k + 1]
    return values.min(axis=1), values.max(axis=1)
