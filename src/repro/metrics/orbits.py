"""Per-node graphlet orbit counts on the underlying undirected graph.

GraphRNN's evaluation protocol (followed by the paper) compares the
distribution of 4-node graphlet orbit counts via ORCA.  ORCA is a C++
tool; this module computes an exact six-orbit profile per node with
closed-form combinatorics instead:

0. degree                      3. triangles through the node
1. induced P3 end              4. 3-star centres (C(d, 3))
2. induced P3 centre           5. 4-cycles through the node

These span the degree-, wedge-, triangle- and cycle-sensitivity of the
full 15-orbit ORCA profile at a fraction of the cost; Table II's orbit
column uses these, not ORCA's full profile.
"""

from __future__ import annotations

import numpy as np


def undirected_simple(adjacency: np.ndarray) -> np.ndarray:
    """Symmetrise and drop self-loops."""
    a = np.asarray(adjacency, dtype=bool)
    u = a | a.T
    np.fill_diagonal(u, False)
    return u


def orbit_counts(adjacency: np.ndarray) -> np.ndarray:
    """(N, 6) matrix of per-node orbit counts (see module docstring)."""
    u = undirected_simple(adjacency).astype(np.float64)
    n = u.shape[0]
    if n == 0:
        return np.zeros((0, 6))
    deg = u.sum(axis=1)

    a2 = u @ u
    a3 = a2 @ u
    triangles = np.diag(a3) / 2.0

    # Induced P3 centre at v: pairs of neighbours that are not adjacent.
    p3_center = deg * (deg - 1) / 2.0 - triangles
    # Induced P3 end at u: walks u-v-w with w != u, minus triangles (w
    # adjacent to u makes it a triangle, counted once per triangle edge).
    p3_end = u @ (deg - 1) - 2.0 * triangles

    star3_center = deg * (deg - 1) * (deg - 2) / 6.0

    a4_diag = np.einsum("ij,ji->i", a2, a2)
    c4 = (a4_diag - deg ** 2 - u @ (deg - 1)) / 2.0

    counts = np.stack(
        [deg, p3_end, p3_center, triangles, star3_center, c4], axis=1
    )
    return np.maximum(counts, 0.0)


def triangle_count(adjacency: np.ndarray) -> float:
    """Total number of triangles in the undirected simple graph."""
    u = undirected_simple(adjacency).astype(np.float64)
    return float(np.trace(u @ u @ u) / 6.0)


def clustering_coefficients(adjacency: np.ndarray) -> np.ndarray:
    """Per-node local clustering coefficient (undirected)."""
    u = undirected_simple(adjacency).astype(np.float64)
    deg = u.sum(axis=1)
    tri = np.diag(u @ u @ u) / 2.0
    possible = deg * (deg - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = np.where(possible > 0, tri / possible, 0.0)
    return coeff
