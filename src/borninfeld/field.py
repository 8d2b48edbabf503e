"""Grid solver for the order-m energy with several point charges.

The multi-charge problem has no radial reduction, so this module minimizes
the discrete energy directly on a cubic grid over a box:

    I(u) = h^3 * sum_cells sum_{h<=m} (alpha_h / 2h) s_cell^h
           - sum_k a_k u(charge node),

where s_cell is the squared gradient magnitude of the cell, assembled as
the mean of the four squared edge differences per axis divided by h^2.
That choice is second-order consistent at cell centers, strictly convex in
the edge differences (no checkerboard null mode), and keeps the Dirac
pairing as a plain nodal value at the snapped charge node.  The density is
evaluated by ``core._Density``: in closed form wherever the truncation is the
Born-Infeld density to rounding, by Horner only next to a charge, so the
cost of a Newton step grows with m only through those few cells.

Boundary data is Dirichlet: either zero or the superposition of exact
single-charge tails recentered at each charge, which is what the field
looks like far from a compact charge cluster.  Minimization takes inexact
Newton steps: conjugate gradients on the exact Hessian action,
preconditioned as ``_linear`` describes, and a backtracking line search on
the energy.  The solve starts from the same superposition of exact fields,
centred on the snapped charge nodes (shifted to vanish on a zero
boundary), since near each charge the minimizer behaves like the
single-charge field; a strong charge then need not climb to its central
value through damped steps.  The reported residual is the max-norm of the
objective gradient over interior nodes.

The kernels work on the C-order ravel of the node grid.  A cell or an edge
sits at the flat index of its lowest node, so a step along axis d is the
offset stride_d and every stencil is a contiguous slice.  "Junk" cells, whose
lowest node lies on the last row or column, wrap into the next row or plane;
they touch only boundary nodes and are zeroed before the density.  The sums
keep the order of the 3-d stencils they replaced (first other axis before
second, divergence over axes 0, 1, 2, energy summed over a contiguous copy),
so the two agree bit for bit.

A solve runs in one block of named arrays (``_solve_buffers``), allocated
when it starts and freed when it returns: the current Newton model's cell
and edge data, the PCG vectors, and scratch that ``hessp`` and the line
search's models share, as they never run at once (see ``minimize_energy``).
A take hands back one view per name, shape and type, so a Newton step
makes no view and allocates no grid array; no kernel zeroes an array only
to add into it, and no full-grid ufunc reads or writes a strided interior
view, which would take numpy's iterator buffers.  Standalone models and
``_cell_s`` allocate their own (``core._fresh``).

Grid solves are restricted to three dimensions; the radial module covers
general N for single charges.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .core import ChargeConfig, InputError, _Buffers, _check_order, _Density, _fresh, _zeroed
from .core import taylor_coefficients
from ._linear import _box_shape, _norm, _pcg, _poisson_inverse, _preconditioner
from .quad import AccuracyError, _single_charge_field, shape_constant_A

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
    strength) pairs after snapping, one per input charge, on distinct nodes;
    ``snap_distances`` records how far each input charge moved.
    ``boundary_values`` is a full-grid array whose boundary entries carry
    the Dirichlet data (interior entries are zero).
    """

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

    @cached_property
    def _blocks(self) -> tuple[_Block, ...]:
        return _charge_blocks(self)

    @cached_property
    def _coefficients(self) -> tuple[float, ...]:
        return taylor_coefficients(self.m)

    def initial_guess(self) -> np.ndarray:
        """Starting field: the boundary data, with the superposed exact
        single-charge fields centred on the snapped charge nodes inside.

        Each charge contributes u_k(min(r, rho_k)) - u_k(rho_k), u_k(0) being
        its central value u0.  Under the superposition rule rho_k is infinite
        (the plain field); under the zero rule it is the node's clearance to
        the nearest face, so the guess meets the zero boundary without a jump.
        A node and the charge node both sit on the grid, so r = h sqrt(key)
        with the integer key |i - c|^2, clipped at (rho_k / h)^2: the field is
        evaluated once per key that occurs and spread by a table lookup.
        """
        U = self.boundary_values.copy()
        inner = U[1:-1, 1:-1, 1:-1]
        zero = self.boundary_rule == "zero"
        for node, a in self.charges:
            di, dj, dk = ((np.arange(1, n - 1) - c) ** 2 for c, n in zip(node, self.shape))
            key = di[:, None, None] + dj[:, None] + dk
            if zero:
                tail = min(min(c, n - 1 - c) for c, n in zip(node, self.shape)) ** 2
                np.minimum(key, tail, out=key)
                seen = np.bincount(key.ravel(), minlength=tail + 1)
                seen[tail] = 1  # rho_k joins the radii, as the largest key
            else:
                seen = np.bincount(key.ravel())
            keys = np.flatnonzero(seen)
            u = _single_charge_field(a, 3, self.h * np.sqrt(keys))[1]
            table = np.zeros(keys[-1] + 1)
            table[keys] = u - u[-1] if zero else u
            inner += table[key]
        return U


def assemble_problem(
    config: ChargeConfig,
    box_lo,
    box_hi,
    h: float,
    m: int,
    boundary_rule: str = "radial-superposition",
) -> DiscreteProblem:
    """Build a DiscreteProblem, snapping charges to grid nodes.

    Validation: the spacing must lie in [1e-100, 1e100], so that the
    energy's h^3 and the cells' 1/h^2 stay finite and nonzero, and it must
    divide every box edge into a node count numpy can index; every charge
    must snap to a strictly interior node; with two or more charges the
    spacing must resolve at least 8 nodes between the closest snapped pair
    and the box must clear every charge by at least the minimum charge
    spacing (below twice that a truncation warning is issued).  Charges that
    snap onto one node are 0 apart, so they fail the resolution guard.
    Superposed boundary data above the central-value bound sum_k |a_k|^(1/2)
    A(3) cannot come from correct single-charge fields, each bounded by its
    central value, so it raises ``AccuracyError``.
    """
    lo, hi = (tuple(map(float, np.broadcast_to(b, (3,)))) for b in (box_lo, box_hi))
    h = float(h)
    if not 1e-100 <= h <= 1e100:
        raise InputError(f"grid spacing must be finite, in [1e-100, 1e100], got {h}")
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
        if not math.isfinite(n):
            raise InputError(f"node count must be finite, got {n} along axis {d}")
        n_int = round(n)
        if n_int < 2 or abs(n - n_int) > 1e-9 * max(1.0, abs(n)):
            raise InputError(
                f"spacing {h} does not divide the box edge {edge} along axis {d}"
            )
        counts.append(n_int)
    shape = (counts[0] + 1, counts[1] + 1, counts[2] + 1)
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise InputError(f"node counts must be finite and numpy-indexable, got {shape}")

    if config.dim != 3:
        raise InputError("grid solves are restricted to dimension 3")
    nodes: list[tuple[int, int, int]] = []
    snap_distances: list[float] = []
    for charge in config.charges:
        pos = np.asarray(charge.pos)
        rel = (pos - np.asarray(lo)) / h
        node = tuple(int(round(x)) for x in rel)
        if not all(0 < node[d] < shape[d] - 1 for d in range(3)):
            raise InputError(
                f"charge at {charge.pos} does not snap to a strictly "
                "interior grid node"
            )
        centre = np.asarray(lo) + h * np.asarray(node)
        snap_distances.append(float(np.linalg.norm(pos - centre)))
        nodes.append(node)
    # resolution and clearance guards act on the snapped geometry; charges
    # sharing a node are 0 apart, so no two of them ever merge
    if len(nodes) >= 2:
        min_spacing = h * min(
            math.dist(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]
        )
        if min_spacing / h < 8:
            raise InputError(
                f"spacing {h} is too coarse: fewer than 8 nodes between the "
                f"closest charges (separation {min_spacing:g})"
            )
        warned_clearance = False
        for node in nodes:
            pos = np.asarray(lo) + h * np.asarray(node)
            bd_dist = min(min(pos[d] - lo[d], hi[d] - pos[d]) for d in range(3))
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

    boundary_values = np.zeros(shape)
    if boundary_rule != "zero":
        on_bd = np.ones(shape, dtype=bool)
        on_bd[1:-1, 1:-1, 1:-1] = False
        coords = np.asarray(lo) + h * np.argwhere(on_bd)
        values = np.zeros(len(coords))
        for charge in config.charges:
            dists = np.linalg.norm(coords - np.asarray(charge.pos), axis=1)
            # the incomplete Beta runs once per distinct distance, not per node
            radii, inverse = np.unique(dists, return_inverse=True)
            values += _single_charge_field(charge.strength, 3, radii)[1][inverse]
        boundary_values[on_bd] = values
        bound = sum(abs(a) ** 0.5 for a in config.strengths) * shape_constant_A(3)
        max_bd = float(np.max(np.abs(boundary_values)))
        if max_bd > bound * (1.0 + 1e-9):
            raise AccuracyError(
                f"boundary data {max_bd:g} exceeds the central-value bound {bound:g}",
                estimate=max_bd,
                error_bound=bound,
            )
    return DiscreteProblem(
        lo=lo, hi=hi, h=h, m=m, shape=shape, boundary_rule=boundary_rule,
        boundary_values=boundary_values,
        charges=tuple(sorted(zip(nodes, config.strengths))),
        snap_distances=tuple(snap_distances),
    )


# ---------------------------------------------------------------------------
# Discrete energy and its derivatives
# ---------------------------------------------------------------------------


def _cell_grid(cells: np.ndarray, shape) -> np.ndarray:
    """A flat cell array as (n0 - 1, n1, n2), its junk cells set to zero in
    place; [:, :-1, :-1] are the real cells."""
    grid = cells.reshape(shape[0] - 1, shape[1], shape[2])
    grid[:, -1] = grid[:, :, -1] = 0.0
    return grid


def _widen(a: np.ndarray, step: int, take, name: str) -> np.ndarray:
    """out[p] = a[p] + a[p - step], with a read as zero outside its range."""
    out = take(name, len(a) + step)
    out[:step], out[-step:] = a[:step], a[-step:]
    np.add(a[step:], a[:-step], out=out[step:-step])
    return out


def _to_cells(edges: np.ndarray, axis: int, strides, take) -> np.ndarray:
    """Per cell, the sum of its four edge values along ``axis``, written
    over the head of ``edges``."""
    first, second = (step for d, step in enumerate(strides) if d != axis)
    pairs = np.add(edges[:-first], edges[first:], out=take("pairs", len(edges) - first))
    return np.add(pairs[:-second], pairs[second:], out=edges[: len(pairs) - second])


def _to_edges(cells: np.ndarray, strides, take, names):
    """Adjoint of ``_to_cells``, from two partial sums: yields the edges of
    axes 0, 1 and 2 in turn, each into the array named ``names[d]``."""
    pairs = _widen(cells, strides[1], take, "pairs")
    yield _widen(pairs, 1, take, names[0])
    pairs = _widen(cells, strides[0], take, "pairs")
    yield _widen(pairs, 1, take, names[1])
    yield _widen(pairs, strides[1], take, names[2])


def _to_nodes(fluxes, strides, out: np.ndarray) -> np.ndarray:
    """Adjoint of the edge differences: nodal sums of signed edge fluxes,
    taken axis by axis from the iterable ``fluxes``.  The first axis writes
    0.0 + f, as adding to zeros would (a flux of -0.0 lands as +0.0)."""
    out[: strides[0]] = 0.0
    for d, (f, step) in enumerate(zip(fluxes, strides)):
        np.add(out[step:] if d else 0.0, f, out=out[step:])
        out[:-step] -= f
    return out


def _cell_s(U: np.ndarray, h: float, take=_fresh):
    """Per-cell squared gradient magnitude (junk cells zero) and the edge
    differences u[p + stride_d] - u[p], all flat."""
    strides = (U.shape[1] * U.shape[2], U.shape[2], 1)
    u = U.ravel()
    diffs = [np.subtract(u[step:], u[:-step], out=take(f"diff{d}", len(u) - step))
             for d, step in enumerate(strides)]
    # the squares along axis 0 fill s and their cell sums land on its head;
    # a square is never -0.0, so that equals adding them to zeros
    s = take("nodes", len(diffs[0]))
    live = _to_cells(np.multiply(diffs[0], diffs[0], out=s), 0, strides, take)
    for d, e in enumerate(diffs[1:], 1):
        live += _to_cells(np.multiply(e, e, out=take("edges", len(e))), d, strides, take)
    _cell_grid(s, U.shape)  # zeroes the junk cells, the tail past live among them
    s *= 0.25 / (h * h)
    return (s, *diffs)


def _steepest_cell(s, shape, take=_fresh):
    """The largest sqrt(s) over the real cells of a flat cell s on a grid of
    ``shape`` nodes, and the C-order index of its cell among them."""
    flat = take("edges", tuple(n - 1 for n in shape))
    flat[...] = s.reshape(flat.shape[0], *shape[1:])[:, :-1, :-1]  # sqrt would buffer it
    arg = int(np.argmax(np.sqrt(flat, out=flat)))
    return float(flat.flat[arg]), arg


# A cell's eight corners in C order, the four corners where its edges along
# each axis start, and the edge-corner incidence: row e is +1 at the edge's
# upper corner and -1 at its lower one.  The cell Laplacian, the incidence's
# Gram matrix, is 3 on the diagonal and -1 between corners joined by an
# edge.  It is written out rather than multiplied: a BLAS product here, run
# when the module loads, raised a solve batch's peak RSS by about 0.35 MB.
_CORNERS = np.array(list(product((0, 1), repeat=3)))
_EDGE_STARTS = [np.flatnonzero(_CORNERS[:, d] == 0) for d in range(3)]
_INCIDENCE = np.concatenate(
    [np.eye(8)[starts + step] - np.eye(8)[starts]
     for starts, step in zip(_EDGE_STARTS, (4, 2, 1))]
)
_CELL_LAPLACIAN = 3.0 * np.eye(8) - (abs(_CORNERS[:, None] - _CORNERS).sum(-1) == 1)


class _Block(NamedTuple):
    """One charge's preconditioner block B and its reach E.

    B holds the interior nodes within K of the charge node (Chebyshev
    distance), E those of B and their neighbours; both are boxes of the
    interior grid, sliced out by ``nodes`` and ``reach``, and ``rows`` are
    B's positions in E's C-order ravel.  ``edges`` per axis are the flat
    indices of the four edges along it of each cell with a corner in B.
    Term t of H[E, B] comes from the flat cell ``cells[t]`` and two of its
    corners, at ``corners[0][t]`` and ``corners[1][t]`` of the ravelled
    (cell, corner) values, whose cell Laplacian entry is ``laplacian[t]``;
    it adds to entry ``targets[t]`` of the ravelled H[E, B].
    """

    nodes: tuple[slice, slice, slice]
    reach: tuple[slice, slice, slice]
    rows: np.ndarray
    edges: np.ndarray
    cells: np.ndarray
    corners: np.ndarray
    laplacian: np.ndarray
    targets: np.ndarray


def _flat(points: np.ndarray, lo, shape) -> np.ndarray:
    """C-order flat indices of grid points in the box of ``shape`` at ``lo``."""
    return (points - lo) @ np.array([shape[1] * shape[2], shape[2], 1])


def _charge_blocks(problem: DiscreteProblem) -> tuple[_Block, ...]:
    """The block of each charge, in ``problem.charges`` order, clipped to
    the interior.

    B holds the interior nodes within K of the charge node: K = 1 (3^3
    unknowns) below 65^3 grid nodes, 2 (5^3) from there up.  A block costs
    the same on every grid while the Poisson products grow like n^4: at 33^3
    the 5^3 block's inverse, 0.8 ms per charge and Newton step, cost more
    than the CG iterations it saved.  At 65^3 it saves more: CG iterations
    47 -> 38 (Newton steps 7 -> 6) at a = 20, m = 16, and 8 -> 6 at a = 1, m = 2.
    """
    n = np.asarray(problem.shape)
    half = 1 if problem.n_nodes < 65**3 else 2
    blocks = []
    for node, _ in problem.charges:
        b_lo = np.maximum(np.asarray(node) - half, 1)
        b_hi = np.minimum(np.asarray(node) + half, n - 2)
        e_lo, e_hi = np.maximum(b_lo - 1, 1), np.minimum(b_hi + 1, n - 2)
        b_shape, e_shape = b_hi - b_lo + 1, e_hi - e_lo + 1
        # the cells with a corner in B have their lowest node in [b_lo - 1, b_hi]
        lowest = np.stack(
            np.meshgrid(*map(np.arange, b_lo - 1, b_hi + 1), indexing="ij"), axis=-1
        ).reshape(-1, 3)
        corners = lowest[:, None] + _CORNERS
        in_b = np.all((corners >= b_lo) & (corners <= b_hi), axis=-1)
        in_e = np.all((corners >= 1) & (corners <= n - 2), axis=-1)
        # the terms: a cell, a row corner in E and a column corner in B
        cell, row, col = np.nonzero(in_e[:, :, None] & in_b[:, None, :])
        targets = (
            _flat(corners, e_lo, e_shape)[:, :, None] * b_shape.prod()
            + _flat(corners, b_lo, b_shape)[:, None, :]
        )
        cells = _flat(lowest, 0, n)
        within = tuple(map(slice, b_lo - e_lo, b_hi - e_lo + 1))
        blocks.append(_Block(
            nodes=tuple(slice(int(lo) - 1, int(hi)) for lo, hi in zip(b_lo, b_hi)),
            reach=tuple(slice(int(lo) - 1, int(hi)) for lo, hi in zip(e_lo, e_hi)),
            rows=np.arange(e_shape.prod()).reshape(e_shape)[within].ravel(),
            edges=np.stack([cells[:, None] + _flat(_CORNERS[s], 0, n) for s in _EDGE_STARTS]),
            cells=cells[cell], corners=8 * cell + np.stack([row, col]),
            laplacian=_CELL_LAPLACIAN[row, col], targets=targets[cell, row, col],
        ))
    return tuple(blocks)


class _NewtonModel:
    """The Newton model of the energy at U.

    The constructor forms each cell's s and W and the edge differences of U,
    enough for the energy: a line-search trial that Armijo rejects needs no
    more.  ``complete()`` adds sigma(s), sigma'(s) and the edge weights
    (h/4) sum_{cells at e} sigma once, with the gradient and the nodal sigma;
    ``hessp`` reuses them for every full-grid direction V.  Per cell, with d
    the edge differences of U and w those of V,

        (H w)_e = (h/4) sigma(s) w_e + (h/(8 h^2)) sigma'(s) (d . w) d_e,

    scattered to the edges like the gradient; the linear charge term drops
    out.  The nodal sigma is the mean sigma of each interior node's eight
    cells: each reaches the node through three edges, so this is the node's
    sum of edge weights (the sigma-weighted Laplacian's diagonal) over 6h.
    ``blocks()`` assembles, per charge block (``_charge_blocks``), the exact
    Hessian rows E and columns B, H[E, B], summed from the terms of the
    cells with a corner in B by one ``np.add.at``; only a preconditioner
    needs them, so a gradient alone never builds them.  Arrays come from
    ``take``: new ones by default, a solve's ``_Buffers`` (gradient and
    hessp share one; each block keeps its H[E, B]).
    """

    def __init__(self, problem: DiscreteProblem, U: np.ndarray, take=_fresh):
        self.problem, self.take = problem, take
        h, shape = problem.h, problem.shape
        self.strides = (shape[1] * shape[2], shape[2], 1)
        self.s, *self.diffs = _cell_s(U, h, take)
        self.density = _Density(self.s, problem._coefficients, take)
        cells = _cell_grid(self.density.energy(), shape)[:, :-1, :-1]
        # a contiguous copy sums in the pairwise order of a 3-d cell array
        packed = take("edges", cells.shape)
        packed[...] = cells
        self.energy = h**3 * float(np.sum(packed))
        for node, a in problem.charges:
            self.energy -= a * float(U[node])

    def complete(self) -> _NewtonModel:
        """Add the gradient, nodal sigma and cell data of ``hessp``; return self."""
        h, shape, strides, take = self.problem.h, self.problem.shape, self.strides, self.take
        sigma, couple = self.density.sigma()
        del self.density  # read no more; a model kept by the line search would hold it
        couple /= 8.0 * h
        for cells in (sigma, couple):
            _cell_grid(cells, shape)  # zeroes the junk cells
        live = len(sigma) - strides[1] - 1
        self.sigma, self.couple = sigma[:live], couple[:live]
        self.weights = list(_to_edges(self.sigma, strides, take, ("w0", "w1", "w2")))
        # a node's eight cells are those of its two edges along the last axis;
        # W is summed, so its array takes them, and s stays for gradient_sup
        padded = take("cells", math.prod(shape))
        edge_sums = np.add(self.weights[2][1:], self.weights[2][:-1], out=padded[1:-1])
        edge_sums *= 0.125  # before the copy: a ufunc on the strided interior takes buffers
        inner = padded.reshape(shape)[1:-1, 1:-1, 1:-1]
        self.node_sigma = take("node_sigma", inner.shape)
        self.node_sigma[...] = inner
        for w in self.weights:
            w *= h / 4.0
        fluxes = (np.multiply(w, e, out=take("edges", len(e)))
                  for w, e in zip(self.weights, self.diffs))
        self.grad = _to_nodes(fluxes, strides, padded).reshape(shape)
        for node, a in self.problem.charges:
            self.grad[node] -= a
        return self

    def hessp(self, V: np.ndarray) -> np.ndarray:
        strides, diffs, take = self.strides, self.diffs, self.take
        v = V.ravel()
        # the edge differences of V, formed twice: for P, then for the fluxes
        vdiffs = (np.subtract(v[k:], v[:-k], out=take("edges", v.size - k)) for k in strides * 2)
        # sum over the cell's 12 edges of d_e * w_e, times sigma'/(8h)
        P = np.multiply(diffs[0], next(vdiffs), out=take("cells", len(diffs[0])))
        P = _to_cells(P, 0, strides, take)
        for d, f in zip((1, 2), vdiffs):
            P += _to_cells(np.multiply(diffs[d], f, out=f), d, strides, take)
        P *= self.couple
        adjoint = _to_edges(P, strides, take, ("adjoint",) * 3)
        fluxes = (np.add(np.multiply(f, w, out=f), np.multiply(p, e, out=p), out=f)
                  for f, w, p, e in zip(vdiffs, self.weights, adjoint, diffs))
        return _to_nodes(fluxes, strides, take("nodes", v.size)).reshape(V.shape)

    def blocks(self) -> list[np.ndarray]:
        """H[E, B] of each charge block, in ``problem.charges`` order, each
        in an array of its own from ``take``.  In a solve, they are summed in
        the scratch node arrays, idle while the preconditioner is set up."""
        h, take, out = self.problem.h, self.take, []
        for k, block in enumerate(self.problem._blocks):
            # g = sum_e d_e (e_hi - e_lo) at the corners of each cell with a
            # corner in B, one row a cell
            parts = take("pairs", block.edges.shape)
            for e, i, part in zip(self.diffs, block.edges, parts):
                e.take(i, out=part, mode="clip")
            g = np.concatenate(parts, axis=1, out=take("adjoint", (len(i), 12)))
            g = np.matmul(g, _INCIDENCE, out=take("cells", (len(i), 8))).ravel()
            # each term of a cell's (sigma'/(8h)) g g^T + (h/4) sigma L_cell
            pair = g.take(block.corners, out=take("edges", block.corners.shape), mode="clip")
            gg = np.multiply(*pair, out=pair[0])
            terms = self.couple.take(block.cells, out=pair[1], mode="clip")
            gg *= terms
            self.sigma.take(block.cells, out=terms, mode="clip")
            terms *= h / 4.0
            terms *= block.laplacian
            terms += gg
            # each entry adds its terms in order to +0.0
            H = _zeroed(take(("block H", k), (math.prod(_box_shape(block.reach)), len(block.rows))))
            np.add.at(H.ravel(), block.targets, terms)
            out.append(H)
        return out


def discrete_energy(problem: DiscreteProblem, U: np.ndarray) -> float:
    """Energy of a full-grid nodal array under the problem's order."""
    return _NewtonModel(problem, U).energy


def discrete_energy_gradient(
    problem: DiscreteProblem, U: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy and its exact gradient with respect to every nodal value."""
    model = _NewtonModel(problem, U).complete()
    return model.energy, model.grad


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
    or ``line_search_failed``.  ``steepest_cell`` is the largest cell
    gradient magnitude of ``values`` and that cell's C-order index, from
    the cell s of ``minimize_energy``'s last Newton model, for
    ``gradient_sup``; it is None where that s was not kept.
    """

    problem: DiscreteProblem
    values: np.ndarray
    energy: float
    grad_norm: float
    iterations: int
    cg_per_step: tuple[int, ...]
    tol: float
    stop_reason: str
    steepest_cell: tuple | None = None

    @property
    def converged(self) -> bool:
        """Whether the solve met its tolerance: ``stop_reason`` says so."""
        return self.stop_reason == "converged"

    @property
    def cg_iterations(self) -> int:
        """Conjugate gradient iterations over all Newton directions."""
        return sum(self.cg_per_step)

    @property
    def charge_blocks(self) -> tuple[int, ...]:
        """Unknowns in each charge's preconditioner block, in
        ``problem.charges`` order: (2K + 1)^3, fewer where the block is
        clipped at the boundary."""
        return tuple(len(block.rows) for block in self.problem._blocks)


_NODE_ARRAYS = ("nodes", "edges", "pairs", "adjoint", "cells", "rest", "root",
                "diff0", "diff1", "diff2", "w0", "w1", "w2")
_INTERIOR_ARRAYS = ("g", "node_sigma", "x", "r", "z", "d", "Hd", "work", "poisson")


def _solve_buffers(shape: tuple[int, int, int]) -> _Buffers:
    """A solve's ``_Buffers``: a node array per name in ``_NODE_ARRAYS``, an
    interior array per name in ``_INTERIOR_ARRAYS`` and a boolean node array
    "mask"."""
    n, n_inner = math.prod(shape), math.prod(k - 2 for k in shape)
    return _Buffers({**dict.fromkeys(_NODE_ARRAYS, n),
                     **dict.fromkeys(_INTERIOR_ARRAYS, n_inner), "mask": n // 8 + 1})


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
) -> GridField:
    """Minimize the discrete energy over interior nodes, boundary fixed.

    The objective is smooth and strictly convex in the cell gradients, so
    the minimizer is unique and independent of the starting point.  The
    solve starts from ``problem.initial_guess()``.  Each Newton step sets
    up the preconditioner (``_preconditioner``), runs PCG to an
    Eisenstat-Walker tolerance and backtracks on the energy (Armijo); below
    the energy's rounding a step is kept only if the max-norm residual
    falls.  On success ``grad_norm`` (max-norm of the objective gradient
    over interior nodes) is at most ``tol``.  After ``max_iter`` Newton
    steps, or when the line search fails, the last iterate is returned with
    ``converged=False`` and ``stop_reason`` saying which.  A starting
    energy or gradient 2-norm that binary64 cannot hold raises
    ``InputError``.

    Memory: the iterate U, a spare iterate and ``_solve_buffers``, one block
    taken when the solve starts and freed when it returns, so no Newton step
    allocates a grid array.  The current Newton model owns diff0-2, w0-2,
    root (sigma) and rest (sigma'), and node_sigma until the preconditioner
    turns it into its scaling; the line search builds each trial model over
    them, as it reads only the current model's energy and residual.  PCG
    owns x (the step, which the line search reads too), r, z, d, Hd, work
    and poisson, and g holds the interior gradient.  The scratch arrays
    nodes, edges, pairs, cells, adjoint and mask serve ``hessp`` during PCG,
    the charge blocks' assembly before it, and a model's temporaries (s in
    nodes, W, the fluxes, the gradient in cells) otherwise.  The spare
    iterate is the zero-boundary direction of ``hessp`` during PCG and the
    line search's trial.  The last model's s is still in nodes when the
    loop ends, unless the line search failed, and its steepest cell is found
    there for ``gradient_sup``.  Each charge block keeps its H[E, B] for the
    solve.  At 33^3 the traced peak is about 24.2 node arrays (tracemalloc);
    from the second step on, a step allocates only the block inverses and,
    at m >= 4, the Horner path's near-charge cells.
    """
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    inner = (slice(1, -1),) * 3
    n_inner = tuple(n - 2 for n in problem.shape)
    U = problem.initial_guess()
    poisson = _poisson_inverse(n_inner, problem.h)
    take, trial = _solve_buffers(problem.shape), np.empty_like(U)
    g = take("g", n_inner)

    def gradient(model: _NewtonModel) -> float:
        """Copy the interior gradient to g; return its max-norm."""
        g[...] = model.grad[inner]
        # max |g| is |max g| or |min g|, and nan if either is
        return float(max(abs(g.max()), abs(g.min())))

    # a start past binary64 raises InputError just below, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        model = _NewtonModel(problem, U, take).complete()
        residual = gradient(model)
        g_norm = _norm(g)
    for name, value in (("energy", model.energy), ("gradient 2-norm", g_norm)):
        if not math.isfinite(value):
            raise InputError(
                f"starting {name} is {value}: the objective leaves binary64"
            )
    eta = _ETA_MAX
    iterations = 0
    cg_per_step = []
    stop_reason = "max_iter"

    def hessp_inner(p: np.ndarray, out: np.ndarray) -> np.ndarray:
        direction[inner] = p
        out[...] = model.hessp(direction)[inner]
        return out

    while residual > tol and iterations < max_iter:
        # Below 0.5 tol / |g| the linear residual is already under tol.
        target = max(eta, 0.5 * tol / g_norm) * g_norm
        precond = _preconditioner(poisson, model)
        direction = _zeroed(trial)  # idle until the line search
        step, n_cg = _pcg(hessp_inner, g, precond, target, _CG_MAX_ITER, take)
        cg_per_step.append(n_cg)
        slope = float(np.vdot(g, step))
        alpha = 1.0
        accepted = None
        for _ in range(_BACKTRACKS):
            # U + alpha step over the whole grid, from the step copied into
            # zeros: a ufunc on the strided interior would take buffers
            _zeroed(trial)[inner] = step if alpha == 1.0 else np.multiply(
                step, alpha, out=take("Hd", n_inner))
            np.add(U, trial, out=trial)
            decrease = -alpha * slope
            # a trial far outside the light cone may overflow the energy
            # series; its energy is then inf or nan, which Armijo rejects
            with np.errstate(over="ignore", invalid="ignore"):
                candidate = _NewtonModel(problem, trial, take)
                if decrease <= _ENERGY_NOISE * abs(model.energy):
                    if gradient(candidate.complete()) < residual:
                        accepted = candidate
                    break
                if candidate.energy <= model.energy - _ARMIJO * decrease:
                    accepted = candidate.complete()
                    break
            alpha *= 0.5
        if accepted is None:
            stop_reason = "line_search_failed"
            break
        U, trial, model = trial, U, accepted
        residual = gradient(model)
        g_norm, g_norm_old = _norm(g), g_norm
        iterations += 1
        # Eisenstat-Walker choice 2 with its safeguard against early collapse
        eta_new = 0.9 * (g_norm / g_norm_old) ** 2
        if 0.9 * eta**2 > 0.1:
            eta_new = max(eta_new, 0.9 * eta**2)
        eta = min(_ETA_MAX, eta_new)

    # after a failed line search, a rejected trial's s is in the model's place
    failed = stop_reason == "line_search_failed"
    steepest = None if failed else _steepest_cell(model.s, problem.shape, take)
    return GridField(
        problem=problem, values=U, energy=float(model.energy), grad_norm=residual,
        iterations=iterations, cg_per_step=tuple(cg_per_step), tol=tol,
        stop_reason="converged" if residual <= tol else stop_reason, steepest_cell=steepest,
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
    if (p1.shape, p1.lo, p1.hi, p1.h, p1.m) != (p2.shape, p2.lo, p2.hi, p2.h, p2.m):
        raise ValueError("fields live on different grids or orders")
    a1, a2 = dict(p1.charges), dict(p2.charges)
    for node in set(a1) | set(a2):
        if a2.get(node, 0.0) > a1.get(node, 0.0) + 1e-15:
            raise ValueError(f"sources are not ordered: rho2 > rho1 at node {node}")
    bd = ~p1.interior_mask()
    boundary_gap = float(np.max(f2.values[bd] - f1.values[bd]))
    max_excess = float(np.max(f2.values - f1.values - boundary_gap))
    threshold = 10.0 * max(f1.tol, f2.tol)
    return ComparisonReport(max_excess=max_excess, boundary_gap=boundary_gap,
                            threshold=threshold, passed=bool(max_excess <= threshold))


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
    U, out = field.values, []
    for node, a in field.problem.charges:
        center, block = U[node], U[tuple(slice(c - 1, c + 2) for c in node)]
        neighbors = np.delete(block.ravel(), 13)  # all but the centre
        if np.all(neighbors < center):
            kind, margin = "max", float(center - np.max(neighbors))
        elif np.all(neighbors > center):
            kind, margin = "min", float(np.min(neighbors) - center)
        else:
            kind, margin = "neither", 0.0
        out.append(ExtremumRecord(node=node, strength=a, kind=kind, margin=margin,
                                  matches_charge_sign=kind == ("max" if a > 0 else "min")))
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
    base = np.clip(np.floor(rel).astype(int), 0, np.asarray(U.shape) - 2)
    frac = rel - base
    out = np.zeros(len(points))
    for corner in product((0, 1), repeat=3):
        f = [frac[:, d] if c else 1 - frac[:, d] for d, c in enumerate(corner)]
        out += f[0] * f[1] * f[2] * U[tuple((base + corner).T)]
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
    problem, U, out = field.problem, field.values, []
    # The allowance 10h only separates light-like chords from the rest when
    # it stays below one; coarser grids cannot assert the flag at all.
    threshold = 1.0 - 10.0 * problem.h
    for (j, (node_j, aj)), (l, (node_l, al)) in combinations(enumerate(problem.charges), 2):
        pj, pl = problem.node_position(node_j), problem.node_position(node_l)
        dist = float(np.linalg.norm(pl - pj))
        uj, ul = float(U[node_j]), float(U[node_l])
        t = np.linspace(0.0, 1.0, max(17, 4 * int(dist / problem.h) + 1))
        u_line = _trilinear(U, problem.lo, problem.h, pj + t[:, None] * (pl - pj))
        defect = float(np.max(np.abs(u_line - (uj + t * (ul - uj)))))
        ratio = abs(uj - ul) / dist
        out.append(SegmentRecord(
            j=j, l=l, distance=dist, same_sign=(aj * al > 0), chord_defect=defect,
            light_ratio=ratio, near_light=bool(threshold > 0.0 and ratio > threshold),
        ))
    return out


@dataclass(frozen=True)
class GradientSupReport:
    """Largest cell gradient magnitude and its cell's distance to a charge."""

    sup: float
    argmax_distance: float


def gradient_sup(field: GridField) -> GradientSupReport:
    """Max discrete gradient magnitude over all cells.

    Strictly spacelike fields keep this below one; the order-m minimizer
    only exceeds it inside the charge cells, so the sup is reported together
    with the distance (cell center to nearest charge) where it is attained.
    The solve's ``steepest_cell`` is read where it was kept.
    """
    problem = field.problem
    sup, arg = field.steepest_cell or _steepest_cell(
        _cell_s(field.values, problem.h)[0], problem.shape)
    cell = np.unravel_index(arg, np.subtract(problem.shape, 1))
    centre = [(i + 0.5) * problem.h + lo for i, lo in zip(cell, problem.lo)]
    distance = math.inf
    for node, _ in problem.charges:
        dx, dy, dz = (x - c for x, c in zip(centre, problem.node_position(node)))
        # the summation order of np.linalg.norm over a row
        distance = min(distance, math.sqrt((dx * dx + dy * dy) + dz * dz))
    return GradientSupReport(sup=sup, argmax_distance=float(distance))
