"""Grid solver for the order-m energy with several point charges.

The multi-charge problem has no radial reduction, so this module minimizes
the discrete energy directly on a cubic grid over a box:

    I(u) = h^3 * sum_cells sum_{h<=m} (alpha_h / 2h) s_cell^h
           - sum_k a_k u(charge node),

where s_cell is the squared gradient magnitude of the cell, assembled as
the mean of the four squared edge differences per axis divided by h^2.
That choice is second-order consistent at cell centers, strictly convex in
the edge differences (no checkerboard null mode), and keeps the Dirac
pairing as a plain nodal value at the snapped charge node.

Boundary data is Dirichlet: either zero or the superposition of exact
single-charge tails recentered at each charge, which is what the field
looks like far from a compact charge cluster.  Minimization takes inexact
Newton steps: conjugate gradients on the exact Hessian action,
preconditioned by a sine-transform Poisson solve (one dense DST-I matrix
per axis, applied by matrix products) scaled on both sides by the inverse
square root of each node's mean sigma, and a backtracking line search on
the energy.  The scaling follows the growth of sigma towards a strong
charge, which the constant-coefficient Poisson solve cannot see; at m = 1
it is the identity.  It starts from the same superposition of exact
fields, centred on the snapped charge nodes (shifted to vanish on a zero
boundary), since near each charge the minimizer behaves like the
single-charge field; a strong charge then need not climb to its central
value through damped steps.  The reported residual is the max-norm of the
objective gradient over interior nodes.

Grid solves are restricted to three dimensions; the radial module covers
general N for single charges.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ChargeConfig, density_series, taylor_coefficients
from .core import InputError, _check_order
from .quad import AccuracyError, exact_radial_profile, shape_constant_A

__all__ = [
    "DiscreteProblem",
    "GridField",
    "ComparisonReport",
    "ExtremumRecord",
    "SegmentRecord",
    "GradientSupReport",
    "assemble_problem",
    "discrete_energy",
    "discrete_energy_gradient",
    "minimize_energy",
    "compare_solutions",
    "extremum_report",
    "segment_report",
    "gradient_sup",
]


# ---------------------------------------------------------------------------
# Problem assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteProblem:
    """Discretized multi-charge problem on a box with spacing h.

    ``shape`` counts nodes per axis.  ``charges`` holds (node index triple,
    strength) pairs after snapping (and merging of coincident snaps);
    ``snap_distances`` records how far each input charge moved.
    ``boundary_values`` is a full-grid array whose boundary entries carry
    the Dirichlet data (interior entries are zero).
    """

    config: ChargeConfig | None
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    h: float
    m: int
    shape: tuple[int, int, int]
    boundary_rule: str
    boundary_values: np.ndarray
    charges: tuple[tuple[tuple[int, int, int], float], ...]
    snap_distances: tuple[float, ...]

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[1:-1, 1:-1, 1:-1] = True
        return mask

    def node_position(self, idx: tuple[int, int, int]) -> np.ndarray:
        return np.asarray(self.lo) + self.h * np.asarray(idx, dtype=float)

    def initial_guess(self) -> np.ndarray:
        """Starting field: the boundary data, with the superposed exact
        single-charge fields centred on the snapped charge nodes inside.

        Each charge contributes u_k(min(r, rho_k)) - u_k(rho_k), u_k(0) being
        its central value u0.  Under the superposition rule rho_k is infinite
        (the plain field); under the zero rule it is the node's clearance to
        the nearest face, so the guess meets the zero boundary without a jump.
        """
        nodes = [node for node, _ in self.charges]
        if self.boundary_rule == "zero":
            reach = [
                self.h * min(min(i, n - 1 - i) for i, n in zip(node, self.shape))
                for node in nodes
            ]
        else:
            reach = [math.inf] * len(nodes)
        U = self.boundary_values.copy()
        inner = self.interior_mask()
        U[inner] = _superposed_fields(
            np.asarray(self.lo) + self.h * np.argwhere(inner),
            [self.node_position(node) for node in nodes],
            [a for _, a in self.charges],
            reach,
        )
        return U


def _superposed_fields(coords, centres, strengths, reach):
    """Sum over charges of u_k(min(r_k, reach_k)) - u_k(reach_k) at ``coords``.

    u_k is the exact single-charge field of strength a_k and r_k the distance
    to its centre; a point on a centre takes the central value u0.  With an
    infinite reach the term is the field itself, exactly: u_k(inf) = 0.
    """
    values = np.zeros(len(coords))
    for centre, a, rho in zip(centres, strengths, reach):
        dists = np.linalg.norm(coords - np.asarray(centre), axis=1)
        # exact dedupe: the profile takes strictly increasing positive radii,
        # and the incomplete Beta runs once per distinct distance, not per
        # node (502 distances for a node-centred charge among 31^3 interior
        # nodes); dropping it made a solve-batch call 1.75x as slow
        radii, inverse = np.unique(
            np.append(np.minimum(dists, rho), rho), return_inverse=True
        )
        start = int(radii[0] == 0.0)
        profile = exact_radial_profile(a, 3, radii[start:])
        u = np.concatenate(([profile.u0] * start, profile.u))[inverse]
        values += u[:-1] - u[-1]
    return values


def assemble_problem(
    config: ChargeConfig | None,
    box_lo,
    box_hi,
    h: float,
    m: int,
    boundary_rule: str = "radial-superposition",
) -> DiscreteProblem:
    """Build a DiscreteProblem, snapping charges to grid nodes.

    Validation: the spacing must divide every box edge; every charge must
    snap to a strictly interior node; with two or more charges the spacing
    must resolve at least 8 nodes between the closest snapped pair and the
    box must clear every charge by at least the minimum charge spacing
    (below twice that a truncation warning is issued).  Charges that snap
    onto the same node merge with summed strengths, which must not cancel
    to zero.  Superposed boundary data above the central-value bound
    sum_k |a_k|^(1/2) A(3) cannot come from correct single-charge fields,
    each bounded by its central value, so it raises ``AccuracyError``.
    ``config=None`` assembles a chargeless problem (boundary data only,
    zero-rule boundaries give the zero field).
    """
    lo = tuple(float(x) for x in np.broadcast_to(box_lo, (3,)))
    hi = tuple(float(x) for x in np.broadcast_to(box_hi, (3,)))
    h = float(h)
    if not 0 < h < math.inf:
        raise InputError(f"grid spacing must be positive and finite, got {h}")
    if not all(map(math.isfinite, lo + hi)):
        raise InputError(f"box corners must be finite, got {lo} and {hi}")
    _check_order(m)
    if boundary_rule not in ("zero", "radial-superposition"):
        raise InputError(f"unknown boundary rule {boundary_rule!r}")
    counts = []
    for d in range(3):
        edge = hi[d] - lo[d]
        if edge <= 0:
            raise InputError(f"box is empty along axis {d}")
        n = edge / h
        n_int = round(n)
        if n_int < 2 or abs(n - n_int) > 1e-9 * max(1.0, abs(n)):
            raise InputError(
                f"spacing {h} does not divide the box edge {edge} along axis {d}"
            )
        counts.append(n_int)
    shape = (counts[0] + 1, counts[1] + 1, counts[2] + 1)

    snapped: dict[tuple[int, int, int], float] = {}
    snap_distances: list[float] = []
    positions: list[tuple[float, ...]] = []
    strengths: list[float] = []
    if config is not None:
        if config.dim != 3:
            raise InputError("grid solves are restricted to dimension 3")
        for charge in config.charges:
            pos = np.asarray(charge.pos)
            rel = (pos - np.asarray(lo)) / h
            node = tuple(int(round(x)) for x in rel)
            if not all(0 < node[d] < shape[d] - 1 for d in range(3)):
                raise InputError(
                    f"charge at {charge.pos} does not snap to a strictly "
                    "interior grid node"
                )
            snap = float(np.linalg.norm(pos - (np.asarray(lo) + h * np.asarray(node))))
            snap_distances.append(snap)
            if node in snapped:
                # degenerate input: the continuum model assumes distinct
                # charge points, so collisions collapse into one source
                warnings.warn(
                    f"charges coincide at node {node} after snapping; "
                    "strengths merged",
                    stacklevel=2,
                )
                snapped[node] += charge.strength
            else:
                snapped[node] = charge.strength
            positions.append(charge.pos)
            strengths.append(charge.strength)
        for node, a in snapped.items():
            if a == 0.0:
                raise InputError(f"charges cancel after snapping to node {node}")
        # resolution and clearance guards act on the snapped geometry
        nodes = list(snapped)
        if len(nodes) >= 2:
            min_spacing = h * min(
                math.dist(a, b)
                for i, a in enumerate(nodes)
                for b in nodes[i + 1 :]
            )
            if min_spacing / h < 8:
                raise InputError(
                    f"spacing {h} is too coarse: fewer than 8 nodes between the "
                    f"closest charges (separation {min_spacing:g})"
                )
            warned_clearance = False
            for node in nodes:
                pos = np.asarray(lo) + h * np.asarray(node)
                bd_dist = min(
                    min(pos[d] - lo[d], hi[d] - pos[d]) for d in range(3)
                )
                if bd_dist < min_spacing:
                    raise InputError(
                        f"box too small: charge node at "
                        f"{tuple(float(x) for x in pos)} clears the boundary "
                        f"by {bd_dist:g} < min charge spacing {min_spacing:g}"
                    )
                if not warned_clearance and bd_dist < 2.0 * min_spacing:
                    warnings.warn(
                        f"boundary clearance {bd_dist:g} is below twice the min "
                        f"charge spacing {min_spacing:g}; truncation effects grow",
                        stacklevel=2,
                    )
                    warned_clearance = True

    if boundary_rule == "zero" or config is None:
        boundary_values = np.zeros(shape)
    else:
        on_bd = np.ones(shape, dtype=bool)
        on_bd[1:-1, 1:-1, 1:-1] = False
        boundary_values = np.zeros(shape)
        boundary_values[on_bd] = _superposed_fields(
            np.asarray(lo) + h * np.argwhere(on_bd),
            positions,
            strengths,
            [math.inf] * len(strengths),
        )
        bound = sum(abs(a) ** 0.5 for a in strengths) * shape_constant_A(3)
        max_bd = float(np.max(np.abs(boundary_values)))
        if max_bd > bound * (1.0 + 1e-9):
            raise AccuracyError(
                f"boundary data {max_bd:g} exceeds the central-value bound {bound:g}",
                estimate=max_bd,
                error_bound=bound,
            )
    return DiscreteProblem(
        config=config,
        lo=lo,
        hi=hi,
        h=h,
        m=m,
        shape=shape,
        boundary_rule=boundary_rule,
        boundary_values=boundary_values,
        charges=tuple(sorted(snapped.items())),
        snap_distances=tuple(snap_distances),
    )


# ---------------------------------------------------------------------------
# Discrete energy and its derivatives
# ---------------------------------------------------------------------------


def _shifted(axis: int, part: slice) -> tuple[slice, ...]:
    index = [slice(None)] * 3
    index[axis] = part
    return tuple(index)


_LO, _HI = slice(None, -1), slice(1, None)


def _gather(edges: np.ndarray, axis: int) -> np.ndarray:
    """Per cell, the sum of its four edge values along ``axis``."""
    for d in range(3):
        if d != axis:
            edges = edges[_shifted(d, _LO)] + edges[_shifted(d, _HI)]
    return edges


def _scatter(cells: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of ``_gather``: per edge along ``axis``, the sum over its cells."""
    for d in range(3):
        if d != axis:
            shape = list(cells.shape)
            shape[d] += 1
            out = np.zeros(shape)
            out[_shifted(d, _LO)] = cells
            out[_shifted(d, _HI)] += cells
            cells = out
    return cells


def _divergence(fluxes: list[np.ndarray], shape) -> np.ndarray:
    """Adjoint of the edge differences: nodal sums of signed edge fluxes."""
    out = np.zeros(shape)
    for d, f in enumerate(fluxes):
        out[_shifted(d, _HI)] += f
        out[_shifted(d, _LO)] -= f
    return out


def _cell_s(U: np.ndarray, h: float):
    """Per-cell squared gradient magnitude and the raw edge differences."""
    diffs = [np.diff(U, axis=d) for d in range(3)]
    s = sum(_gather(e * e, d) for d, e in enumerate(diffs)) * (0.25 / (h * h))
    return (s, *diffs)


def _newton_model(problem: DiscreteProblem, U: np.ndarray):
    """Energy, gradient, Hessian action and nodal sigma at U from one pass.

    The cell quantities s, sigma(s), sigma'(s) and the edge weights
    (h/4) sum_{cells at e} sigma are computed once; the returned ``hessp``
    closure reuses them for every full-grid direction V.  Per cell, with d
    the edge differences of U and w those of V,

        (H w)_e = (h/4) sigma(s) w_e + (h/(8 h^2)) sigma'(s) (d . w) d_e,

    scattered to the edges like the gradient.  The charge term is linear and
    drops out of the Hessian.  The last value is the mean of sigma over each
    interior node's eight cells: every cell reaches the node through three
    of its edges, so this is the node's sum of edge weights, the diagonal of
    the sigma-weighted Laplacian, divided by its sigma = 1 value 6h.
    """
    h = problem.h
    s, *diffs = _cell_s(U, h)
    W, sigma, dsigma = density_series(s, taylor_coefficients(problem.m).alphas)
    weights = [(h / 4.0) * _scatter(sigma, d) for d in range(3)]
    couple = dsigma / (8.0 * h)
    energy = h**3 * float(np.sum(W))
    grad = _divergence([w * e for w, e in zip(weights, diffs)], U.shape)
    for node, a in problem.charges:
        energy -= a * float(U[node])
        grad[node] -= a
    node_sigma = sigma
    for d in range(3):
        node_sigma = node_sigma[_shifted(d, _LO)] + node_sigma[_shifted(d, _HI)]
    node_sigma *= 0.125

    def hessp(V: np.ndarray) -> np.ndarray:
        vdiffs = [np.diff(V, axis=d) for d in range(3)]
        # sum over the cell's 12 edges of d_e * w_e, times sigma'/(8h)
        P = couple * sum(
            _gather(e * v, d) for d, (e, v) in enumerate(zip(diffs, vdiffs))
        )
        return _divergence(
            [
                w * v + _scatter(P, d) * e
                for d, (w, e, v) in enumerate(zip(weights, diffs, vdiffs))
            ],
            V.shape,
        )

    return energy, grad, hessp, node_sigma


def discrete_energy_hessp(
    problem: DiscreteProblem, U: np.ndarray, V: np.ndarray
) -> np.ndarray:
    """Action of the energy Hessian at U on a full-grid direction V."""
    return _newton_model(problem, U)[2](V)


def discrete_energy(problem: DiscreteProblem, U: np.ndarray) -> float:
    """Energy of a full-grid nodal array under the problem's order."""
    return _newton_model(problem, U)[0]


def discrete_energy_gradient(
    problem: DiscreteProblem, U: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy and its exact gradient with respect to every nodal value."""
    return _newton_model(problem, U)[:2]


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridField:
    """A (possibly non-converged) minimizer of the discrete energy.

    ``iterations`` counts Newton steps.  ``cg_per_step`` holds the
    conjugate gradient iterations of each Newton direction in order: one
    entry per accepted step, plus one for the rejected last direction when
    the line search failed.  ``stop_reason`` is ``converged``, ``max_iter``
    or ``line_search_failed``.
    """

    problem: DiscreteProblem
    values: np.ndarray
    energy: float
    grad_norm: float
    iterations: int
    cg_per_step: tuple[int, ...]
    converged: bool
    tol: float
    stop_reason: str

    @property
    def cg_iterations(self) -> int:
        """Conjugate gradient iterations over all Newton directions."""
        return sum(self.cg_per_step)

    def charge_values(self) -> list[float]:
        return [float(self.values[node]) for node, _ in self.problem.charges]


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
    ``_newton_model``: the inverse of D^(1/2) (h L) D^(1/2), whose diagonal
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
        shape = [1, 1, 1]
        shape[d] = n
        k = np.arange(1, n + 1)
        eig = eig + (2.0 - 2.0 * np.cos(np.pi * k / (n + 1))).reshape(shape)
    scale = h * eig
    sines = [_sine_matrix(n) for n in reversed(n_inner)]

    def transform(r: np.ndarray) -> np.ndarray:
        for s in sines:
            n = s.shape[0]
            r = (s @ r.reshape(-1, n).T).reshape(n, *r.shape[:-1])
        return r

    def apply(r: np.ndarray) -> np.ndarray:
        return transform(transform(r) / scale)

    return apply


def _pcg(hessp, b: np.ndarray, precond, target: float, max_iter: int):
    """Preconditioned CG on H x = b from x = 0, until ||b - H x||_2 <= target."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    d = z
    rz = float(np.vdot(r, z))
    for it in range(1, max_iter + 1):
        Hd = hessp(d)
        alpha = rz / float(np.vdot(d, Hd))
        x += alpha * d
        r -= alpha * Hd
        if np.linalg.norm(r) <= target:
            return x, it
        z = precond(r)
        rz, rz_old = float(np.vdot(r, z)), rz
        d = z + (rz / rz_old) * d
    return x, max_iter


_ETA_MAX = 0.5  # loosest CG forcing term
_CG_MAX_ITER = 200
_ARMIJO = 1e-4
_BACKTRACKS = 30
# Relative rounding of a summed energy, with a margin over the ~1e-16 seen:
# the Armijo test cannot see predicted decreases below it.
_ENERGY_NOISE = 1e-14


def minimize_energy(
    problem: DiscreteProblem,
    tol: float = 1e-9,
    max_iter: int = 5000,
    x0: np.ndarray | None = None,
) -> GridField:
    """Minimize the discrete energy over interior nodes, boundary fixed.

    The objective is smooth and strictly convex in the cell gradients, so
    the minimizer is unique and independent of the starting point.  The
    solve starts from ``problem.initial_guess()``; a given ``x0`` (one value
    per interior node, C order) replaces its interior.  Each Newton step
    runs PCG to an Eisenstat-Walker tolerance and backtracks on the energy
    (Armijo); below the energy's rounding a step is kept only if the
    max-norm residual falls.  The preconditioner is the Poisson inverse P
    (``_poisson_inverse``) scaled by the mean sigma d of each node's eight
    cells at the current iterate, r -> d^(-1/2) P(d^(-1/2) r), so it sees
    the growth of sigma towards a strong charge that P alone cannot.  On
    success ``grad_norm`` (max-norm of the objective gradient over interior
    nodes) is at most ``tol``.  After ``max_iter`` Newton steps, or when
    the line search fails, the last iterate is returned with
    ``converged=False`` and ``stop_reason`` saying which.  A starting
    energy or gradient 2-norm that binary64 cannot hold raises
    ``InputError``.
    """
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    inner = (slice(1, -1),) * 3
    n_inner = tuple(n - 2 for n in problem.shape)
    U = problem.initial_guess()
    if x0 is not None:
        x_start = np.asarray(x0, dtype=float).ravel()
        if x_start.size != math.prod(n_inner):
            raise ValueError("x0 must have one entry per interior node")
        U[inner] = x_start.reshape(n_inner)
    poisson = _poisson_inverse(n_inner, problem.h)
    direction = np.zeros(problem.shape)  # boundary entries stay zero

    energy, grad, hessp, node_sigma = _newton_model(problem, U)
    g = grad[inner]
    residual = float(np.max(np.abs(g)))
    with np.errstate(over="ignore"):
        g_norm = float(np.linalg.norm(g))
    for name, value in (("energy", energy), ("gradient 2-norm", g_norm)):
        if not math.isfinite(value):
            raise InputError(
                f"starting {name} is {value}: the objective leaves binary64"
            )
    eta = _ETA_MAX
    iterations = 0
    cg_per_step = []
    stop_reason = "max_iter"

    def hessp_inner(p: np.ndarray) -> np.ndarray:
        direction[inner] = p
        return hessp(direction)[inner]

    while residual > tol and iterations < max_iter:
        # Below 0.5 tol / |g| the linear residual is already under tol.
        target = max(eta, 0.5 * tol / g_norm) * g_norm
        scale = 1.0 / np.sqrt(node_sigma)
        step, n_cg = _pcg(
            hessp_inner, -g, lambda r: scale * poisson(scale * r), target,
            _CG_MAX_ITER,
        )
        cg_per_step.append(n_cg)
        slope = float(np.vdot(g, step))
        alpha = 1.0
        model = None
        for _ in range(_BACKTRACKS):
            trial = U.copy()
            trial[inner] += alpha * step
            candidate = _newton_model(problem, trial)
            decrease = -alpha * slope
            if decrease <= _ENERGY_NOISE * abs(energy):
                if float(np.max(np.abs(candidate[1][inner]))) < residual:
                    model = candidate
                break
            if candidate[0] <= energy - _ARMIJO * decrease:
                model = candidate
                break
            alpha *= 0.5
        if model is None:
            stop_reason = "line_search_failed"
            break
        U = trial
        energy, grad, hessp, node_sigma = model
        g = grad[inner]
        residual = float(np.max(np.abs(g)))
        g_norm, g_norm_old = float(np.linalg.norm(g)), g_norm
        iterations += 1
        # Eisenstat-Walker choice 2 with its safeguard against early collapse
        eta_new = 0.9 * (g_norm / g_norm_old) ** 2
        if 0.9 * eta**2 > 0.1:
            eta_new = max(eta_new, 0.9 * eta**2)
        eta = min(_ETA_MAX, eta_new)

    converged = bool(residual <= tol)
    return GridField(
        problem=problem,
        values=U,
        energy=float(energy),
        grad_norm=residual,
        iterations=iterations,
        cg_per_step=tuple(cg_per_step),
        converged=converged,
        tol=tol,
        stop_reason="converged" if converged else stop_reason,
    )

# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Ordered-source comparison: u2 <= u1 + sup_boundary(phi2 - phi1).

    ``max_excess`` is the max over nodes of u2 - u1 - boundary_gap; the
    check passes when it does not exceed ten times the coarser solve
    tolerance.
    """

    max_excess: float
    boundary_gap: float
    threshold: float
    passed: bool


def compare_solutions(f1: GridField, f2: GridField) -> ComparisonReport:
    """Check the discrete comparison principle for ordered charge vectors.

    Requires identical geometry/order and rho2 <= rho1 nodewise (charges
    missing on one side count as zero).
    """
    p1, p2 = f1.problem, f2.problem
    if (
        p1.shape != p2.shape
        or p1.lo != p2.lo
        or p1.hi != p2.hi
        or p1.h != p2.h
        or p1.m != p2.m
    ):
        raise ValueError("fields live on different grids or orders")
    a1 = dict(p1.charges)
    a2 = dict(p2.charges)
    for node in set(a1) | set(a2):
        if a2.get(node, 0.0) > a1.get(node, 0.0) + 1e-15:
            raise ValueError(
                f"sources are not ordered: rho2 > rho1 at node {node}"
            )
    bd = ~p1.interior_mask()
    boundary_gap = float(np.max(f2.values[bd] - f1.values[bd]))
    max_excess = float(np.max(f2.values - f1.values - boundary_gap))
    threshold = 10.0 * max(f1.tol, f2.tol)
    return ComparisonReport(
        max_excess=max_excess,
        boundary_gap=boundary_gap,
        threshold=threshold,
        passed=bool(max_excess <= threshold),
    )


@dataclass(frozen=True)
class ExtremumRecord:
    """Local extremum classification of one charge node."""

    node: tuple[int, int, int]
    strength: float
    kind: str  # "max", "min", or "neither"
    margin: float
    matches_charge_sign: bool


def extremum_report(field: GridField) -> list[ExtremumRecord]:
    """Classify every charge node against its 26 grid neighbors.

    A positive charge should be a strict local maximum of the field and a
    negative one a strict local minimum; ``margin`` is the smallest gap to
    a neighbor.  Refuses non-converged fields.
    """
    if not field.converged:
        raise ValueError("extremum classification requires a converged field")
    U = field.values
    out = []
    for node, a in field.problem.charges:
        i, j, k = node
        block = U[i - 1 : i + 2, j - 1 : j + 2, k - 1 : k + 2]
        center = U[i, j, k]
        neighbors = np.array(
            [
                block[di, dj, dk]
                for di in range(3)
                for dj in range(3)
                for dk in range(3)
                if (di, dj, dk) != (1, 1, 1)
            ]
        )
        if np.all(neighbors < center):
            kind = "max"
            margin = float(center - np.max(neighbors))
        elif np.all(neighbors > center):
            kind = "min"
            margin = float(np.min(neighbors) - center)
        else:
            kind = "neither"
            margin = 0.0
        expected = "max" if a > 0 else "min"
        out.append(
            ExtremumRecord(
                node=node,
                strength=a,
                kind=kind,
                margin=margin,
                matches_charge_sign=(kind == expected),
            )
        )
    return out


@dataclass(frozen=True)
class SegmentRecord:
    """Linearity diagnostics of the field along one charge-pair segment."""

    j: int
    l: int
    distance: float
    same_sign: bool
    chord_defect: float
    light_ratio: float
    near_light: bool


def _trilinear(U: np.ndarray, lo, h: float, points: np.ndarray) -> np.ndarray:
    rel = (points - np.asarray(lo)) / h
    base = np.floor(rel).astype(int)
    max_base = np.asarray(U.shape) - 2
    base = np.clip(base, 0, max_base)
    frac = rel - base
    out = np.zeros(len(points))
    for di in (0, 1):
        for dj in (0, 1):
            for dk in (0, 1):
                w = (
                    (frac[:, 0] if di else 1 - frac[:, 0])
                    * (frac[:, 1] if dj else 1 - frac[:, 1])
                    * (frac[:, 2] if dk else 1 - frac[:, 2])
                )
                out += w * U[base[:, 0] + di, base[:, 1] + dj, base[:, 2] + dk]
    return out


def segment_report(field: GridField) -> list[SegmentRecord]:
    """Per-pair chord diagnostics of the computed field.

    For each charge pair, samples the field along the joining segment by
    trilinear interpolation and reports the max deviation from the chord
    plus the light-ray ratio |u(x_j) - u(x_l)| / |x_j - x_l|.  A ratio
    within 10h of one flags NEAR-LIGHT-SEGMENT; same-sign pairs should
    never be flagged.
    """
    if not field.converged:
        raise ValueError("segment diagnostics require a converged field")
    problem = field.problem
    U = field.values
    charges = problem.charges
    out = []
    for j in range(len(charges)):
        for l in range(j + 1, len(charges)):
            (node_j, aj), (node_l, al) = charges[j], charges[l]
            pj = problem.node_position(node_j)
            pl = problem.node_position(node_l)
            dist = float(np.linalg.norm(pl - pj))
            uj, ul = float(U[node_j]), float(U[node_l])
            n_samples = max(17, 4 * int(dist / problem.h) + 1)
            t = np.linspace(0.0, 1.0, n_samples)
            points = pj[None, :] + t[:, None] * (pl - pj)[None, :]
            u_line = _trilinear(U, problem.lo, problem.h, points)
            chord = uj + t * (ul - uj)
            defect = float(np.max(np.abs(u_line - chord)))
            ratio = abs(uj - ul) / dist
            # The allowance 10h only separates light-like chords from the
            # rest when it stays below one; coarser grids cannot assert the
            # flag at all.
            threshold = 1.0 - 10.0 * problem.h
            out.append(
                SegmentRecord(
                    j=j,
                    l=l,
                    distance=dist,
                    same_sign=(aj * al > 0),
                    chord_defect=defect,
                    light_ratio=ratio,
                    near_light=bool(threshold > 0.0 and ratio > threshold),
                )
            )
    return out


@dataclass(frozen=True)
class GradientSupReport:
    """Largest cell gradient magnitude outside an exclusion radius."""

    sup: float
    argmax_distance: float
    exclusion_radius: float
    cells_considered: int


def gradient_sup(field: GridField, exclusion_radius: float = 0.0) -> GradientSupReport:
    """Max discrete gradient magnitude over cells away from the charges.

    Strictly spacelike fields keep this below one; the order-m minimizer
    only exceeds it inside the charge cells, so the sup is reported together
    with the distance (cell center to nearest charge) where it is attained.
    """
    problem = field.problem
    s, _, _, _ = _cell_s(field.values, problem.h)
    flat = np.sqrt(s).ravel()
    # cell-centre coordinates per axis, broadcast against each other
    axes = [
        ((np.arange(n) + 0.5) * problem.h + lo).reshape(
            [n if e == d else 1 for e in range(3)]
        )
        for d, (n, lo) in enumerate(zip(s.shape, problem.lo))
    ]
    dmin = np.full(s.shape, np.inf)
    for node, _ in problem.charges:
        dx, dy, dz = (x - c for x, c in zip(axes, problem.node_position(node)))
        # the summation order of np.linalg.norm over a row
        dmin = np.minimum(dmin, np.sqrt((dx * dx + dy * dy) + dz * dz))
    dmin = dmin.ravel()
    mask = dmin > exclusion_radius
    if not mask.any():
        return GradientSupReport(0.0, math.nan, exclusion_radius, 0)
    masked = np.where(mask, flat, -np.inf)
    arg = int(np.argmax(masked))
    return GradientSupReport(
        sup=float(flat[arg]),
        argmax_distance=float(dmin[arg]),
        exclusion_radius=float(exclusion_radius),
        cells_considered=int(mask.sum()),
    )
