"""Committed example DGPs used by the test suite and the CLI docs.

Each builder returns a fully specified DiscreteDGP; none of the derived
quantities (blips, effects) are hardcoded anywhere, tests recompute them by
enumeration.
"""
from __future__ import annotations

import numpy as np

from .oracle import DiscreteDGP


def crossover_dgp() -> DiscreteDGP:
    """Single binary W (= V), binary M; the indirect effect is harmful
    (positive) at w=0 and beneficial at w=1, with all tables strictly inside
    (0, 1)."""
    w_support = ((0.0,), (1.0,))
    m_support = ((0.0,), (1.0,))
    p_w = np.array([0.5, 0.5])
    p_a = np.tile([0.5, 0.5], (2, 1))
    # q(z=1 | a, w) = 0.3 + 0.4 a
    p_z = np.empty((2, 2, 2))
    for w in range(2):
        for a in range(2):
            q1 = 0.3 + 0.4 * a
            p_z[w, a] = [1 - q1, q1]
    # P(M=1 | z, a, w) = 0.2 + 0.5 z + 0.1 a (1 - z)
    p_m = np.empty((2, 2, 2, 2))
    p_y = np.empty((2, 2, 2, 2))
    for w in range(2):
        for a in range(2):
            for z in range(2):
                pm1 = 0.2 + 0.5 * z + 0.1 * a * (1 - z)
                p_m[w, a, z] = [1 - pm1, pm1]
                for m in range(2):
                    p_y[w, a, z, m] = 0.3 + 0.2 * m * (1 - 2 * w) - 0.05 * a
    return DiscreteDGP(
        w_names=("w",), w_support=w_support, v_names=("w",),
        m_names=("m",), m_support=m_support,
        p_w=p_w, p_a=p_a, p_z=p_z, p_m=p_m, p_y=p_y,
    )


def null_mediation_dgp() -> DiscreteDGP:
    """M independent of A given W: the indirect effect is exactly zero in
    every stratum, while the direct effect stays nonzero."""
    w_support = ((0.0,), (1.0,))
    m_support = ((0.0,), (1.0,))
    p_w = np.array([0.6, 0.4])
    p_a = np.array([[0.5, 0.5], [0.4, 0.6]])
    p_z = np.empty((2, 2, 2))
    p_m = np.empty((2, 2, 2, 2))
    p_y = np.empty((2, 2, 2, 2))
    for w in range(2):
        for a in range(2):
            q1 = 0.35 + 0.3 * w          # no a-dependence
            p_z[w, a] = [1 - q1, q1]
            for z in range(2):
                pm1 = 0.25 + 0.45 * z    # no a-dependence
                p_m[w, a, z] = [1 - pm1, pm1]
                for m in range(2):
                    p_y[w, a, z, m] = 0.2 + 0.25 * m + 0.1 * z - 0.08 * a + 0.15 * w
    return DiscreteDGP(
        w_names=("w",), w_support=w_support, v_names=("w",),
        m_names=("m",), m_support=m_support,
        p_w=p_w, p_a=p_a, p_z=p_z, p_m=p_m, p_y=p_y,
    )


def rich_support_dgp() -> DiscreteDGP:
    """Two binary baseline columns (both rule covariates) and a three-level
    mediator; exercises product supports and multi-level enumeration."""
    w_support = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    m_support = ((0.0,), (1.0,), (2.0,))
    p_w = np.array([0.3, 0.2, 0.25, 0.25])
    n_w = len(w_support)
    p_a = np.empty((n_w, 2))
    p_z = np.empty((n_w, 2, 2))
    p_m = np.empty((n_w, 2, 2, 3))
    p_y = np.empty((n_w, 2, 2, 3))
    for w, (w1, w2) in enumerate(w_support):
        g1 = 0.4 + 0.15 * w1 + 0.1 * w2
        p_a[w] = [1 - g1, g1]
        for a in range(2):
            q1 = 0.25 + 0.3 * a + 0.1 * w2
            p_z[w, a] = [1 - q1, q1]
            for z in range(2):
                logits = np.array([0.0,
                                   0.4 * z + 0.3 * a - 0.2 * w1,
                                   0.8 * z - 0.4 * a + 0.1 * w1])
                weights = np.exp(logits)
                p_m[w, a, z] = weights / weights.sum()
                for m in range(3):
                    p_y[w, a, z, m] = (0.2 + 0.1 * m * (1 - w1) - 0.05 * m * w1
                                       + 0.1 * z - 0.05 * a + 0.1 * w2)
    return DiscreteDGP(
        w_names=("w1", "w2"), w_support=w_support, v_names=("w1", "w2"),
        m_names=("m",), m_support=m_support,
        p_w=p_w, p_a=p_a, p_z=p_z, p_m=p_m, p_y=p_y,
    )
