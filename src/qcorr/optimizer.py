"""Search over complete projective measurements to attain sup J.

Qubit subsystems get an exhaustive Bloch-angle grid followed by compass
refinement; higher dimensions use seeded random restarts over a Hermitian
generator parameterization, each refined by compass search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NotAQubit
from .infotheory import mutual_information
from .measurement import (ProjectiveMeasurement, ZERO_PROB, _measured_view,
                          basis_vectors, measurement_from_unitary,
                          qubit_measurement)
from .states import DensityMatrix, reduced
from .infotheory import von_neumann_entropy

_CLAMP = 1e-12
# Bound on the entries of one (chunk, dr, dr) stack of grid blocks, so the
# grid's working set stays flat as the unmeasured dimension dr grows.
_GRID_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class OptimizerConfig:
    grid_theta: int = 128
    grid_phi: int = 128
    restarts: int = 32           # used for subsystem dim > 2
    refine_tolerance: float = 1e-9
    max_refine_steps: int = 500
    seed: int = 0

    def __post_init__(self):
        if min(self.grid_theta, self.grid_phi, self.restarts,
               self.max_refine_steps) <= 0 or self.refine_tolerance <= 0:
            raise ValueError("all optimizer config fields must be positive")


@dataclass(frozen=True)
class OptimalMeasurementResult:
    measurement: ProjectiveMeasurement
    j_value: float       # bits
    discord: float       # bits, floored at 0
    iterations: int      # J evaluations performed
    oracle_gap: float | None = None   # refined J minus grid-oracle J, when a grid exists
    params: tuple[float, ...] | None = None  # (theta, phi) for qubits, generator otherwise


class _JEvaluator:
    """Fast J evaluation for measurements on one fixed subsystem."""

    def __init__(self, rho: DensityMatrix, k: int):
        self.view = _measured_view(rho, k)
        self.dk = rho.dims[k]
        self.dr = rho.dim // self.dk
        self.rest_entropy = sum(von_neumann_entropy(reduced(rho, {j}))
                                for j in range(rho.n_subsystems) if j != k)

    def j_vectors(self, vectors: np.ndarray) -> float:
        """J for the basis given as rows of `vectors` (shape d_k x d_k)."""
        blocks = np.einsum('ia,abcd,ic->ibd', vectors.conj(), self.view, vectors)
        probs = np.einsum('ibb->i', blocks).real
        cond = 0.0
        for p, b in zip(probs, blocks):
            if p >= ZERO_PROB:
                w = np.linalg.eigvalsh(b / p)
                w = w[w > _CLAMP]
                cond -= p * (w * np.log2(w)).sum()
        return self.rest_entropy - cond

    def j_qubit(self, theta: float, phi: float) -> float:
        if self.dk != 2:
            raise NotAQubit(f"subsystem dimension is {self.dk}")
        return self.j_vectors(np.array(basis_vectors(theta, phi)))


def _grid_rows(n_theta: int, n_phi: int) -> int:
    """Number of leading theta rows of the qubit grid that are evaluated.

    Measuring along -n only swaps the two outcomes, so J(-n) = J(n). With
    an even n_phi the antipode of grid point (theta_i, phi_j) is the grid
    point (theta_{n_theta-1-i}, phi_{j+n_phi/2}), which has the smaller flat
    index whenever i >= ceil(n_theta / 2); skipping those rows leaves the
    argmax and its tie-break unchanged.
    """
    return (n_theta + 1) // 2 if n_phi % 2 == 0 else n_theta


def _bloch_conditional_entropy(half_rest: np.ndarray, half_tensor: np.ndarray,
                               dirs: np.ndarray) -> np.ndarray:
    """sum_i p_i S(rho_rest|i) for measurements along Bloch directions `dirs`.

    The two outcome blocks of the measurement along unit vector n are
    (rest +- n . T) / 2, with `rest` the reduced state of the other parties
    and T_j = Tr_k[(sigma_j x I) rho]. The arguments hold rest / 2 (dr x dr)
    and T / 2 (3 x dr*dr).
    """
    dr = half_rest.shape[0]
    m = (dirs @ half_tensor).reshape(-1, dr, dr)
    blocks = np.empty((2,) + m.shape, dtype=np.complex128)
    np.add(half_rest, m, out=blocks[0])
    np.subtract(half_rest, m, out=blocks[1])
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    safe = np.maximum(probs, ZERO_PROB)
    if dr == 2:
        # closed-form 2x2 Hermitian spectrum of the normalized blocks
        det = (blocks[..., 0, 0] * blocks[..., 1, 1]
               - blocks[..., 0, 1] * blocks[..., 1, 0]).real / safe ** 2
        disc = np.sqrt(np.maximum(1.0 - 4.0 * det, 0.0))
        lam = np.stack([(1 - disc) / 2, (1 + disc) / 2], axis=-1)
    else:
        # spectrum of blocks / p without a normalized copy of the blocks
        lam = np.linalg.eigvalsh(blocks) / safe[..., None]
    plogp = np.where(lam > _CLAMP, lam * np.log2(np.maximum(lam, _CLAMP)), 0.0)
    cond_entropy = -plogp.sum(axis=-1)
    return np.where(probs > ZERO_PROB, probs * cond_entropy, 0.0).sum(axis=0)


def grid_search_qubit(rho: DensityMatrix, k: int, n_theta: int = 128,
                      n_phi: int = 128) -> tuple[float, float, float]:
    """Best J over an inclusive theta / periodic phi grid.

    Ties within 1e-12 break to the lexicographically smallest (theta, phi).
    Only the first `_grid_rows` theta rows are evaluated (half the sphere
    when n_phi is even).
    """
    if rho.dims[k] != 2:
        raise NotAQubit(f"subsystem {k} has dimension {rho.dims[k]}")
    ev = _JEvaluator(rho, k)
    dr, view = ev.dr, ev.view
    up, down = view[0, :, 0, :], view[1, :, 1, :]
    upper, lower = view[0, :, 1, :], view[1, :, 0, :]
    half_rest = (up + down) / 2
    half_tensor = np.stack([upper + lower, 1j * (upper - lower),
                            up - down]).reshape(3, dr * dr) / 2
    thetas = np.linspace(0.0, math.pi, n_theta)[:_grid_rows(n_theta, n_phi)]
    phis = np.arange(n_phi) * (2 * math.pi / n_phi)
    tt, pp = [a.ravel() for a in np.meshgrid(thetas, phis, indexing='ij')]
    dirs = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp),
                     np.cos(tt)], axis=1)
    j = np.empty(tt.size)
    chunk = max(1, _GRID_CHUNK_ELEMENTS // (dr * dr))
    for lo in range(0, tt.size, chunk):
        hi = min(lo + chunk, tt.size)
        j[lo:hi] = ev.rest_entropy - _bloch_conditional_entropy(
            half_rest, half_tensor, dirs[lo:hi])
    best = int(np.flatnonzero(j >= j.max() - 1e-12)[0])
    return float(tt[best]), float(pp[best]), float(j[best])


def canonical_qubit_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map arbitrary angles to theta in [0, pi], phi in [0, 2 pi)."""
    theta = theta % (2 * math.pi)
    if theta > math.pi:
        theta = 2 * math.pi - theta
        phi = phi + math.pi
    return theta, phi % (2 * math.pi)


def unitary_from_generator(params, d: int) -> np.ndarray:
    """Unitary exp(i H) from d^2 real parameters of a Hermitian generator.

    Layout: d diagonal entries, then (re, im) pairs for each upper-triangle
    entry in row-major order.
    """
    params = np.asarray(params, dtype=float).ravel()
    if params.size != d * d:
        raise LengthMismatch(f"need {d * d} parameters, got {params.size}")
    h = np.diag(params[:d].astype(np.complex128))
    idx = d
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j] = params[idx] + 1j * params[idx + 1]
            h[j, i] = params[idx] - 1j * params[idx + 1]
            idx += 2
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _compass_search(fun, start, step0: float, config: OptimizerConfig):
    """Derivative-free ascent: axis-aligned probes with shrinking step.

    Returns (params, value, evaluations). Never returns a value below the
    starting one.
    """
    x = np.asarray(start, dtype=float).copy()
    best = fun(x)
    evals = 1
    step = step0
    for _ in range(config.max_refine_steps):
        if step < 1e-6:
            break
        moved = False
        for axis in range(x.size):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[axis] += sign * step
                val = fun(cand)
                evals += 1
                if val > best + config.refine_tolerance:
                    x, best = cand, val
                    moved = True
        if not moved:
            step /= 2
    return x, best, evals


def refine_local(rho: DensityMatrix, k: int, start_params, config: OptimizerConfig):
    """Local compass refinement of J starting from qubit angles or a generator."""
    start = np.asarray(start_params, dtype=float)
    ev = _JEvaluator(rho, k)
    d = rho.dims[k]
    if d == 2 and start.size == 2:
        fun = lambda p: ev.j_qubit(*canonical_qubit_angles(p[0], p[1]))
        step0 = max(math.pi / config.grid_theta, 2 * math.pi / config.grid_phi)
    else:
        u = lambda p: unitary_from_generator(p, d)
        fun = lambda p: ev.j_vectors(u(p).T)
        step0 = 0.3
    params, j, evals = _compass_search(fun, start, step0, config)
    return params, j, evals


def optimize_measurement(rho: DensityMatrix, k: int,
                         config: OptimizerConfig = OptimizerConfig()) -> OptimalMeasurementResult:
    """Measurement attaining sup J on subsystem k; discord = I - J, floored at 0."""
    info = mutual_information(rho)
    d = rho.dims[k]
    if d == 2:
        t0, p0, j_grid = grid_search_qubit(rho, k, config.grid_theta, config.grid_phi)
        params, j, evals = refine_local(rho, k, (t0, p0), config)
        theta, phi = canonical_qubit_angles(float(params[0]), float(params[1]))
        m = qubit_measurement(theta, phi)
        result_params = (theta, phi)
        iterations = (_grid_rows(config.grid_theta, config.grid_phi)
                      * config.grid_phi + evals)
        gap = j - j_grid
    else:
        rng = np.random.default_rng(config.seed)
        best_params, j, iterations = None, -math.inf, 0
        for _ in range(config.restarts):
            start = rng.uniform(-math.pi, math.pi, d * d)
            params, val, evals = refine_local(rho, k, start, config)
            iterations += evals
            if val > j + 1e-12:
                best_params, j = params, val
        m = measurement_from_unitary(unitary_from_generator(best_params, d))
        result_params = tuple(float(x) for x in best_params)
        gap = None
    discord = info - j
    if discord < 0.0:
        discord = 0.0
    return OptimalMeasurementResult(m, float(j), float(discord), iterations,
                                    gap, result_params)
