"""Closed-form references for the shipped binary cascade, in plain floats.

The cascade is X ~ Bern(1/2), X~ = X xor Bern(p), Y = X xor Bern(q_dec) and
Z = Y xor Bern(q_eve). X~ xor Y is then Bern(p * q_dec) and independent of Y,
where a * b = a + b - 2ab is binary convolution, so (X~, Y) is a doubly
symmetric binary source (DSBS) with crossover 0.06 * 0.15 = 0.192.

Everything here is stdlib-only and independent of `sfcomp`, so a defect in the
package cannot leak into the reference it is scored against.
"""

from __future__ import annotations

import math

SHIPPED = {"p": 0.06, "q_dec": 0.15, "q_eve": 0.25}


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def conv(a: float, b: float) -> float:
    return a + b - 2.0 * a * b


def dsbs_crossover(p: float, q_dec: float) -> float:
    return conv(p, q_dec)


def lossless_floor(p: float, q_dec: float) -> float:
    """Least r_w of any admissible auxiliary for XOR: H(X~|Y) = H_b(p * q_dec)."""
    return h2(dsbs_crossover(p, q_dec))


def identity_corner(p: float, q_dec: float) -> dict[str, float]:
    """Corner of U = X~, V and Q constant, for XOR in lossless mode.

    With U = X~: r_w = r_s = H(X~|Y) and r_dec = r_eve = H(X~|Y) - H(X~|X);
    the offset I(X~;Z) - I(X~;Y) turns every Z-term into its Y-term, so the
    eavesdropper's channel drops out. Every admissible auxiliary system for
    XOR has U determine X~, which fixes r_w and r_dec and leaves r_s, r_eve
    at least this corner's (a degraded eavesdropper's I(X~;Y|V) - I(X~;Z|V)
    peaks at constant V); so this corner is the componentwise-minimal point
    of the lossless region and decides lossless membership alone.
    """
    h_cond = lossless_floor(p, q_dec)
    r_priv = h_cond - h2(p)
    return {"r_s": h_cond, "r_w": h_cond, "r_dec": r_priv, "r_eve": r_priv}


class WynerZivDSBS:
    """Wyner-Ziv rate-distortion function of a DSBS(p) under Hamming distortion.

    R(D) is the lower convex envelope of g(D) = H_b(p * D) - H_b(D) on [0, p]
    and the point (p, 0) (Wyner & Ziv 1976): g up to the tangent point d_c,
    then the straight line from (d_c, g(d_c)) to (p, 0), then 0.
    """

    def __init__(self, p: float):
        self.p = p
        self.d_c = self._tangent_point()
        self.g_c = self.g(self.d_c)

    def g(self, d: float) -> float:
        return h2(conv(self.p, d)) - h2(d)

    def _slope(self, d: float) -> float:
        a = conv(self.p, d)
        return (1.0 - 2.0 * self.p) * math.log2((1.0 - a) / a) - math.log2((1.0 - d) / d)

    def _tangent_point(self) -> float:
        # The tangent from (p, 0) touches g where g(d) + g'(d) (p - d) = 0;
        # that expression is negative near 0 and positive at p.
        lo, hi = 1e-12, self.p
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.g(mid) + self._slope(mid) * (self.p - mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def rate(self, d: float) -> float:
        if d <= 0.0:
            return h2(self.p)
        if d <= self.d_c:
            return self.g(d)
        if d < self.p:
            return self.g_c * (self.p - d) / (self.p - self.d_c)
        return 0.0
