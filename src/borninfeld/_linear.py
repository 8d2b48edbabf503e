"""The grid solver's linear algebra: the Newton step's preconditioned CG.

Each Newton step of ``field.minimize_energy`` solves H x = -g by conjugate
gradients on the exact Hessian action, preconditioned by a sine-transform
Poisson solve (one dense DST-I matrix per axis, applied by matrix products)
scaled on both sides by the inverse square root of each node's mean sigma.
The scaling follows the growth of sigma towards a strong charge, which the
constant-coefficient Poisson solve cannot see.  Within about a charge
length of each charge the Hessian's sigma' term also makes the operator
strongly anisotropic along grad u, which no nodal scaling sees, so the
preconditioner wraps the global solve in an exact solve on a block of nodes
around each charge: block, global, block, a symmetric multiplicative
Schwarz sweep.  A block holds the interior nodes near the charge node
(``field._charge_blocks``) and is assembled from the Newton model's cell
quantities (``field._NewtonModel.blocks``).  At m = 1 the scaling is the
identity and the sweep the exact inverse Hessian.
"""

import math

import numpy as np

from .core import _fresh, _zeroed


def _box_shape(box: tuple[slice, ...]) -> tuple[int, ...]:
    return tuple(s.stop - s.start for s in box)


def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k/(n+1)), j, k = 1..n.

    It is symmetric and its own inverse.  j k is reduced modulo 2(n+1)
    before scaling, so every sine argument lies in [0, 2 pi).
    """
    k = np.arange(1, n + 1)
    jk = np.outer(k, k) % (2 * (n + 1))
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))


def _poisson_inverse(n_inner: tuple[int, int, int], h: float):
    """Exact inverse of h times the 7-point Dirichlet Laplacian, by DST-I.

    The sine modes diagonalize the Laplacian on the interior block with
    eigenvalues sum_d (2 - 2 cos(pi k_d / (n_d + 1))).  At sigma = 1 every
    interior edge carries weight h (four cells of h/4), so this is the
    exact inverse Hessian at m = 1; since sigma >= 1 and sigma' >= 0, h times
    the Laplacian bounds the Hessian from below at every order.  The Newton
    solve applies it as D^(-1/2) P D^(-1/2), D the nodal mean sigma from
    ``field._NewtonModel``: the inverse of D^(1/2) (h L) D^(1/2), whose diagonal
    is that of the Hessian's sigma part.  D = 1 at m = 1, so the exact
    inverse there is untouched.

    The transform is a dense sine matrix S_d per axis, so the inverse is
    S (r / (h eig)) S with three matrix products per application, each
    contracting the last axis and rotating it to the front.  Up to 129^3
    nodes that beats a DST-I by FFT, by a margin that shrinks as the grid
    grows: the products cost O(n^4) against the FFT's O(n^3 log n).
    """
    eig = np.zeros(n_inner)
    for d, n in enumerate(n_inner):
        k = np.arange(1, n + 1).reshape([n if e == d else 1 for e in range(3)])
        eig = eig + (2.0 - 2.0 * np.cos(np.pi * k / (n + 1)))
    scale = h * eig
    sines = [_sine_matrix(n) for n in reversed(n_inner)]

    def transform(r: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        for s, out in zip(sines, (a, b, a)):  # ends in a, r only read
            n = s.shape[0]
            rows = np.matmul(s, r.reshape(-1, n).T, out=out.reshape(n, -1))
            r = rows.reshape(n, *r.shape[:-1])
        return r

    def apply(r: np.ndarray, out=None, take=_fresh) -> np.ndarray:
        work = take("work", r.shape)  # r itself in a solve: read by the first product only
        t = transform(r, take("poisson", r.shape), work)
        t /= scale
        return transform(t, np.empty_like(r) if out is None else out, work)

    return apply


def _preconditioner(poisson, model):
    """r -> z = M^(-1) r for one Newton step: block, global, block.

    The global part is the scaled Poisson inverse d^(-1/2) P d^(-1/2).
    Before and after it, each charge block in turn gets its exact solve
    z_B += H_BB^(-1) (r - H z)_B, forward then in reverse order.  The sweep
    reads the same both ways, so M^(-1) is symmetric, and exact block solves
    keep it positive definite whatever the scale of P: with one block S =
    R^T H_BB^(-1) R it is S + (I - S H) P (I - H S).  H z is needed only
    where z moved: H[E, B] c on E for a block correction c, and
    H[E, B]^T z_E = (H z)_B for the second solve.  The completed Newton
    ``model`` gives d and H[E, B] per block; each block is inverted here
    once, and every application reuses the same residual and block buffers.
    """
    take = model.take  # in a solve, the scaling overwrites node_sigma, read no more
    scale = np.sqrt(model.node_sigma, out=take("node_sigma", model.node_sigma.shape))
    np.divide(1.0, scale, out=scale)
    work = take("work", scale.shape)
    solves = []
    for block, H in zip(model.problem._blocks, model.blocks()):
        e = np.empty(_box_shape(block.reach))
        b = np.empty(_box_shape(block.nodes))
        solves.append((block, H, np.linalg.inv(H[block.rows]), e, b, np.empty_like(b)))

    def apply(r: np.ndarray, out=None) -> np.ndarray:
        np.copyto(work, r)  # r - H z while z lives on the blocks
        for block, H, inverse, e, b, c in solves:
            np.copyto(b, work[block.nodes])
            np.matmul(inverse, b.ravel(), out=c.ravel())
            np.matmul(H, c.ravel(), out=e.ravel())
            work[block.reach] -= e
        np.multiply(work, scale, out=work)
        z = poisson(work, out, take)
        z *= scale
        for block, *_, c in solves:
            z[block.nodes] += c
        for block, H, inverse, e, b, c in reversed(solves):
            np.copyto(e, z[block.reach])
            np.matmul(H.T, e.ravel(), out=b.ravel())
            np.subtract(r[block.nodes], b, out=b)
            np.matmul(inverse, b.ravel(), out=c.ravel())
            z[block.nodes] += c
        return z

    return apply


def _norm(v: np.ndarray) -> float:
    """The 2-norm of v, scaled by max |v| when the plain sum of squares
    underflows to 0 (as reference BLAS nrm2 scales every sum)."""
    norm = float(np.linalg.norm(v))
    if norm == 0 and v.any():
        scale = float(np.max(np.abs(v)))
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def _pcg(hessp, g: np.ndarray, precond, target: float, max_iter: int, take):
    """Preconditioned CG on H x = -g from x = 0, until ||-g - H x||_2 <= target.

    x, r, z, d and Hd, taken by those names, are updated in place, and
    ``hessp`` and ``precond`` write into their second argument.  A curvature
    d.Hd or an r.z that underflows to 0 ends with the x reached so far.
    """
    x, r, z, d, Hd = (take(name, g.shape) for name in ("x", "r", "z", "d", "Hd"))
    np.negative(g, out=r)
    rz = float(np.vdot(r, precond(r, d)))  # the first z is the first d
    for it in range(1, max_iter + 1):
        curvature = float(np.vdot(d, hessp(d, Hd)))
        if not (curvature > 0 and rz > 0):
            return x if it > 1 else _zeroed(x), it
        alpha = rz / curvature
        # x starts as 0.0 + alpha d, as if added to zeros
        np.add(x if it > 1 else 0.0, np.multiply(d, alpha, out=z), out=x)
        r -= np.multiply(Hd, alpha, out=Hd)
        if np.linalg.norm(r) <= target:
            return x, it
        rz, rz_old = float(np.vdot(r, precond(r, z))), rz
        d *= rz / rz_old
        d += z
    return x, max_iter
