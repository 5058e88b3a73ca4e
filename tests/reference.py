"""Reference paths that check the package's fast code: block-at-a-time
coefficient recursion and a long-double grid evaluator."""

import numpy as np

from dnls_nnn.manifold import RESONANCE_TOL, ManifoldSeries, ResonanceError


def _k0_at(A, x):
    a, b = 1.0 / A, -2.0 / A
    return ((x + a) * x + b) * x * x + a * x + 1.0


def cubic_convolution(coeffs3, n, m):
    """Coefficient of u^n v^m in (sum a3^{nm} u^n v^m)^3.

    Direct double convolution; the series builder computes the same numbers
    diagonal-at-a-time.
    """
    a3 = np.asarray(coeffs3, dtype=float)
    n, m = int(n), int(m)
    sq = np.zeros((n + 1, m + 1))
    for i in range(n + 1):
        for j in range(m + 1):
            block = a3[: i + 1, : j + 1]
            sq[i, j] = np.sum(block * block[::-1, ::-1])
    out = 0.0
    for i in range(n + 1):
        for j in range(m + 1):
            out += sq[i, j] * a3[n - i, m - j]
    return float(out)


def solve_order_block(ms: ManifoldSeries, n, m):
    """One coefficient quadruple a^{nm} from the already-filled lower orders.

    compute_manifold fills whole anti-diagonals at once with the same
    arithmetic.
    """
    n, m = int(n), int(m)
    k = n + m
    if k == 0:
        return np.zeros(4)
    L1, L2 = ms.rates
    g1, g2 = ms.scale
    if k == 1:
        L = L1 if n == 1 else L2
        g = g1 if n == 1 else g2
        return g * np.array([1.0, L, L * L, L**3])
    p = ms.params
    R = cubic_convolution(ms.coeffs[2], n, m) / (p.epsilon * p.A)
    Lam = L1**n * L2**m
    if R == 0.0:
        return np.zeros(4)
    D = -_k0_at(p.A, Lam)
    if abs(D) <= RESONANCE_TOL * max(1.0, abs(Lam) ** 4):
        raise ResonanceError((n, m), abs(D))
    a1 = R / D
    return a1 * np.array([1.0, Lam, Lam * Lam, Lam**3])


def horner_longdouble(C, gu, gv):
    """P on the grid gu x gv, Horner in v then in u, in long double.

    Shape (len(gu), len(gv), 4).  On x86-64 long double carries 64 mantissa
    bits, so this is about 2000x more precise than any float64 order.
    """
    C = np.asarray(C, dtype=np.longdouble)
    gu = np.asarray(gu, dtype=np.longdouble)
    gv = np.asarray(gv, dtype=np.longdouble)
    N = C.shape[1] - 1
    W = np.zeros((4, N + 1, gv.size), dtype=np.longdouble)
    for m in range(N, -1, -1):
        W = W * gv + C[:, :, m, None]
    out = np.zeros((4, gu.size, gv.size), dtype=np.longdouble)
    for n in range(N, -1, -1):
        out = out * gu[:, None] + W[:, n, None, :]
    return np.moveaxis(out, 0, -1)
