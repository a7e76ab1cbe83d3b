"""The tied single-sample SOM step: the exact winner of one row x and the
arguments of the pull that moves the centroids toward it.

``trainer.sgd_step``'s tied one-row step and ``sombridge.som_update`` both
run ``trainer.neighborhood_pull(*_tied_pull(mu, kernel, x, rate))``, and
``sombridge.bmu`` takes its winner from ``_tied_winner``, so the
prototype-map update is bitwise the tied SGD step, ties included.
``_tied_pull`` alone decides which rows the pull writes.  The pull itself
stays in ``trainer``, under the span name that ``bench/`` traces.
"""

import math

import numpy as np

from . import backend

# Margin of the tied winner's guard over its rounding bound
# (``_tied_winner``); the measured worst error over the bound is in
# ``tests/test_trainer.py``.
TIED_GUARD_FACTOR = 2.0
_EPS = np.finfo(np.float64).eps
_TINY = 2.0 ** -1074


def _tied_pull(mu: np.ndarray, kernel, x: np.ndarray, rate: float):
    """The arguments ``(centroids, coeff, diff)`` of the tied single-sample
    pull toward x, for ``trainer.neighborhood_pull``: x - mu is taken once,
    the winner w is ``_tied_winner``'s under the kernel's couplings g, and
    the pull scales that difference by ``rate * g[w]``.
    ``sombridge.som_update`` takes rate epsilon and the tied step of
    ``sgd_step`` rate eps * p, p the run's d^2, so d and the weights are
    never read.

    The rule for the rows: under the identity kernel
    (``kernel.is_identity``), a pull whose winner the fast path settled (so
    diff is finite) writes row w and no other row, through one-row views.
    Every other pull writes every row.  A row that the full pull would
    scale by a zero coefficient keeps its value, up to the sign of a zero:
    the one-row pull leaves a -0.0 there as -0.0.
    """
    g = kernel.g
    diff = backend._difference(x, mu)
    w, settled = _tied_winner(g, x, mu, diff)
    if settled and kernel.is_identity:
        return mu[w:w + 1], rate * g[w, w:w + 1], diff[w:w + 1]
    return mu, rate * g[w], diff


def _tied_winner(g: np.ndarray, x: np.ndarray, mu: np.ndarray, diff: np.ndarray):
    """The winner for one row x of a tied model, from ``diff = x - mu``:
    the least V_k = sum_j g_kj ||x - mu_j||^2 over the float inputs, lowest
    index on exact ties, and whether the fast path settled it (so diff is
    finite).

    A tied model has one normaliser b and one precision P, so the smoothed
    score of row k is b r_k - (P/2) V_k with row sums r_k = sum_j g_kj;
    with unit row sums, as in the paper, the best score has the least V,
    the map's energy.

    Fast path: ``u = g @ s`` with s the row norms of diff as batched BLAS
    dot products, one read of diff.  The first index w of the least entry
    u1 wins when the runner-up u2 clears
    u2 - u1 > F n (1.01 eps u2 + 2^-1074), n = D + K + 2,
    F = ``TIED_GUARD_FACTOR``.  The bound, with unit roundoff e = eps / 2
    and g_n = n e / (1 - n e) <= 1.01 n e, for couplings >= 0 with row
    sums near 1 (every ``build_kernel`` kernel): the difference, its
    square and a sum of D products in any order, fused or not, put each
    s_j within g_(D+2) of ||x - mu_j||^2 (a subnormal difference is
    exact), the smoothing products and their sum add g_K, and each of the
    D + K products behind a u that falls below the normal range adds at
    most 2^-1075.  So |u_k - V_k| <= g_n V_k + (D+K+1) 2^-1075 =: g_n V_k + c.
    If V_k <= V_w, then u_k - u1 <= 2 g_n V_k + 2c, and V_k <= V_w <=
    (u1 + c) / (1 - g_n) <= (u_k + c) / (1 - g_n); so k != w loses once
    u_k - u1 > 2 g_n u_k + (D+K+1) 2^-1074, the test with F = 1 at u_k.
    F = 2 also covers the rounding of the test itself and the terms in c.
    u_k - u1 - 2 g_n u_k grows with u_k, so the runner-up's test settles
    every k.  The gap is strict, so exact ties fall back.  ``sum(s)`` is
    tested first: a finite sum makes diff, s and u finite (an overflowing
    u fails the gap), so a NaN or inf never reaches the sort.  The few
    values are compared as Python floats, which costs less than numpy
    calls on arrays this small.  Unlike ``einsum``, the dot products
    report overflow: a finite diff whose squared norm overflows (entries
    beyond about 1.3e154) warns with numpy's overflow ``RuntimeWarning``,
    as the step's own subtraction and pull do for larger ones, and its
    inf sum falls back.

    Otherwise the winner is ``_exact_tied_winner``'s, measured on the rows
    that some candidate couples to.  The candidates are the rows k that fail
    the test at u_k, u_k - u1 <= F n (1.01 eps u_k + 2^-1074), or every
    row when the sum was not finite: w beats every other row, so the
    winner is a candidate, and a candidate's V needs only the rows it
    couples to.  Those are the candidates themselves under the identity
    kernel, every row under a dense one, and the candidates' neighbourhoods
    under an annealed kernel whose far couplings underflowed to 0.0.
    K = 1 needs neither.
    """
    K, D = diff.shape
    if K == 1:
        return 0, True
    s = np.matmul(diff[:, None, :], diff[:, :, None]).ravel()
    cands = slice(None)
    if math.isfinite(sum(s.tolist())):
        u = (g @ s).tolist()
        u1, u2 = sorted(u)[:2]
        bound = TIED_GUARD_FACTOR * (D + K + 2)
        if u2 - u1 > bound * (1.01 * _EPS * u2 + _TINY):
            return u.index(u1), True
        cands = [k for k, uk in enumerate(u) if uk - u1 <= bound * (1.01 * _EPS * uk + _TINY)]
    return _exact_tied_winner(g, x, mu, cands), False


def _exact_tied_winner(g: np.ndarray, x: np.ndarray, mu: np.ndarray, cands=slice(None)) -> int:
    """The least V_k = sum_j g_kj ||x - mu_j||^2, lowest index on ties,
    computed exactly in Python integers: every float is n / 2^m
    (``float.as_integer_ratio``), so x and the finite rows of mu, and
    apart from them g, are integers on one common scale.  Equal rows have
    equal distances, so each distinct row is measured once.  A finite x
    and mu whose difference would overflow a float stay exact.  A
    non-finite entry in x or in row j of mu puts mu_j infinitely far: every
    k with g_kj > 0 gets V_k = inf, and when every V is infinite the winner
    is 0.  Only the rows that some row of ``cands`` (``_tied_winner``'s
    candidates, by default every row) couples to are measured; the others
    count as infinitely far.
    """
    K, D = mu.shape
    sq = [math.inf] * K
    distinct = {}  # distinct finite row -> the indices j that hold it
    if np.isfinite(x).all():
        coupled = np.isfinite(mu).all(axis=1) & g[cands].any(axis=0)
        for j in np.flatnonzero(coupled).tolist():
            distinct.setdefault(tuple(mu[j].tolist()), []).append(j)
    if distinct:
        ints = _on_common_scale(x.tolist() + [v for row in distinct for v in row])
        xs = ints[:D]
        for n, near in enumerate(distinct.values(), 1):
            q = sum((a - b) ** 2 for a, b in zip(xs, ints[n * D:(n + 1) * D]))
            for j in near:
                sq[j] = q
    gs = _on_common_scale(g.ravel().tolist())
    v = [sum(c * q for c, q in zip(gs[k * K:(k + 1) * K], sq) if c) for k in range(K)]
    return v.index(min(v))


def _on_common_scale(values: list) -> list:
    """Finite floats as integers in units of the least power of two that
    divides them all: n * (scale // d) for each ratio n / d."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios]
