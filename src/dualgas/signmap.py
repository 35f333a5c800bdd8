"""The momentum density of a sign-mapped box amplitude, on a grid.

The statistics a box basis does not carry differ from its own by the sign
map sign(x2 - x1), whose jump breaks the modes' orthogonality, so their
momentum density is a trapezoid rule on grid nodes.  `boxspec`'s
`momentum_density` calls it for those states.  It is a module of its own
so that the commands that form no such density do not load it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["momentum_density"]

# k rows per slab: the phases take 2 x 64 x n_x values instead of 2 n_k x
# n_x; and x nodes per tile, on whose diagonal block alone the kernel is
# formed
_K_SLAB = 64
_X_TILE = 64


def momentum_density(k, x, U, A) -> np.ndarray:
    """n(k) of psi_F(x1, x2) = sign(x2 - x1) psi, psi = U A U^T, on the
    equispaced nodes x, U the modes there.

    n(k) = (1/pi) int |G(k, x2)|^2 dx2 with G = int e^{-ikx1} psi_F dx1,
    both trapezoid rules on the nodes, with the sign map 0 on the
    diagonal, where the two sides of the jump cancel.  The rule's leading
    error on the jump, (i k h^2 / 6) psi(x2, x2) e^{-ikx2}, grows with k
    and is added back, so the error is O(h^2) for every k.

    The sign map splits the x1 sum at x2: off the diagonal blocks of
    64-node tiles it is the sum over the earlier tiles less that over the
    later ones, M-vectors carried from tile to tile, so no n_x x n_x array
    is formed.  The work is O(n_k n_x (M + 64)).
    """
    n_k, n_x, m = k.size, x.size, A.shape[0]
    h = x[1] - x[0]
    w = np.full(n_x, h)
    w[0] = w[-1] = 0.5 * h
    # w(x1) psi(x1, x2) sign(x2 - x1) = V(x1) . U(x2) sign(x2 - x1) once V
    # is weighted; for a phase row E(x1), the x1 sum at x2 is (before -
    # after) . U(x2) off x2's tile, the sums of E V over the earlier and
    # the later tiles, plus that tile's row of E times its block
    V = U @ A
    tiles = [slice(lo, lo + _X_TILE) for lo in range(0, n_x, _X_TILE)]
    sign = np.sign(np.arange(_X_TILE) - np.arange(_X_TILE)[:, None])
    edge = np.empty(n_x)  # psi(x2, x2)
    blocks = []
    for t in tiles:
        b = V[t] @ U[t].T
        edge[t] = b.diagonal()
        b *= w[t, None] * sign[:b.shape[0], :b.shape[0]]
        blocks.append(b)
    V *= w[:, None]
    # G = (cos - i sin) w psi_F + (i k h^2 / 6) psi(x2, x2) e^{-ik x2},
    # a slab of k rows at a time, the cos rows over the sin rows in E
    nk = np.zeros(n_k)
    for lo in range(0, n_k, _K_SLAB):
        ks = k[lo:lo + _K_SLAB]
        s = ks.size
        E = np.empty((2 * s, n_x))
        kx = np.outer(ks, x, out=E[s:])
        np.cos(kx, out=E[:s])
        np.sin(kx, out=kx)
        before = np.zeros((2 * s, m))
        after = E @ V
        for t, b in zip(tiles, blocks):
            Et = E[:, t]
            here = Et @ V[t]
            after -= here
            G = (before - after) @ U[t].T + Et @ b
            jump = (h * h / 6.0) * np.outer(ks, edge[t])
            G[:s] += jump * Et[s:]
            G[s:] -= jump * Et[:s]
            G *= G
            nk[lo:lo + s] += (G[:s] + G[s:]) @ w[t]
            before += here
    return nk / np.pi
