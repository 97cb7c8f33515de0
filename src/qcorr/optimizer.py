"""Search over complete projective measurements to attain sup J.

A measurement is an orthonormal basis, and one search serves every
dimension: Riemannian ascent on the unitary group (Abrudan, Eriksson &
Koivunen, IEEE TSP 56(3):1134, 2008). A qubit starts from the argmax of a
coarse Bloch-angle grid and takes Newton steps, its Hessian taken from
central differences of the analytic gradient; a higher dimension starts
from seeded Haar-random bases and takes gradient steps. The starts ascend
in lockstep, so each round is one batched gradient and one batched J
evaluation of its line search. The fine grid of the public
`grid_search_qubit` is only an oracle for the ascent.
J is evaluated on a classical-quantum ensemble of leaves (a state that no
step has measured yet is a single leaf), so later steps of a sequential run
diagonalize per-leaf blocks, not the dense state. Each leaf carries a factor
of r columns, and the kernel's view of it is the smaller of the r x r Gram
blocks and the dense d_rest x d_rest blocks (see measurement._JEvaluator);
the grid and the ascent read either view alike, so every step of a rank-r
state diagonalizes blocks of at most r x r, whatever its dimension.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotAQubit, ParamOutOfRange
from .measurement import (CQEnsemble, ProjectiveMeasurement, _JEvaluator,
                          _conditional_entropy, basis_vectors)
from .states import DensityMatrix

# A qubit search ascends from the best of this n x n grid's 128 directions.
_START_GRID = 16
# Bound on the entries of one (chunk, L, dr, dr) stack of grid blocks, so the
# grid's working set stays flat as the leaves L and their dimension dr grow.
_GRID_CHUNK_ELEMENTS = 1 << 20
# Gradient-ascent rounds per start.
_MAX_ROUNDS = 500
# Trial steps of an ascent round, as multiples of the search's last accepted step.
_LADDER = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 1 / 16])
# A trial is accepted if it gains at least this share of its first-order gain.
_ARMIJO = 1e-4
# A search ends when no accepted trial gains more J (bits) than this.
_GAIN_FLOOR = 1e-12
# Central-difference step of a qubit search's Hessian, and the generators
# E_p of the basis turns that move its Bloch vector (diagonal ones rephase it).
_FD_STEP = 1e-4
_BLOCH_GENERATORS = np.array([[[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32  # Haar starts for subsystem dim > 2
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or not (value >= 0 if name == "seed" else value > 0)):
                raise ParamOutOfRange(f"{name} must be an integer "
                                      f"{'>= 0' if name == 'seed' else '> 0'}, got {value!r}")


@dataclass(frozen=True, eq=False)
class OptimalMeasurementResult:
    measurement: ProjectiveMeasurement
    j_value: float       # bits
    discord: float       # bits, floored at 0
    iterations: int      # J evaluations performed (a gradient counts as one)
    oracle_gap: float | None = None   # qubit: ascended J minus the start grid's best J
    params: tuple[float, float] | None = None  # (theta, phi) for qubits, else None


def _grid_rows(n: int) -> int:
    """Number of leading theta rows of the n x n qubit grid that are evaluated.

    Measuring along the Bloch direction -u only swaps the two outcomes, so
    J(-u) = J(u). With an even n the antipode of grid point (theta_i, phi_j)
    is the grid point (theta_{n-1-i}, phi_{j+n/2}), which has the smaller
    flat index whenever i >= n / 2; skipping those rows leaves the argmax
    and its tie-break unchanged. An odd n puts the antipodes of all but the
    poles off the grid, so every row is kept.
    """
    return n // 2 if n % 2 == 0 else n


def grid_search_qubit(rho: DensityMatrix, k: int,
                      n: int = 128) -> tuple[float, float, float]:
    """Best J over an n x n grid: inclusive theta, periodic phi.

    Ties within 1e-12 break to the lexicographically smallest (theta, phi).
    Only the first `_grid_rows` theta rows are evaluated (half the sphere
    when n is even).
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ParamOutOfRange(f"grid size must be an integer > 0, got {n!r}")
    ev = _JEvaluator(CQEnsemble.of(rho), k)
    if ev.dk != 2:
        raise NotAQubit(f"subsystem {k} has dimension {ev.dk}")
    return _grid_search(ev, n)


def _grid_search(ev: _JEvaluator, n: int) -> tuple[float, float, float]:
    """grid_search_qubit on the ensemble and qubit subsystem of `ev`.

    The two outcome blocks of the measurement along unit vector u are
    (rest +- u . T) / 2 for every leaf, with `rest` the leaf's block traced
    over subsystem k and T_j = Tr_k[(sigma_j x I) W].
    """
    view = ev.view
    up, down = view[:, 0, :, 0, :], view[:, 1, :, 1, :]
    upper, lower = view[:, 0, :, 1, :], view[:, 1, :, 0, :]
    half_rest = (up + down) / 2
    half_tensor = np.stack([upper + lower, 1j * (upper - lower),
                            up - down]).reshape(3, half_rest.size) / 2
    thetas = np.linspace(0.0, math.pi, n)[:_grid_rows(n)]
    phis = np.arange(n) * (2 * math.pi / n)
    tt, pp = [a.ravel() for a in np.meshgrid(thetas, phis, indexing='ij')]
    dirs = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp),
                     np.cos(tt)], axis=1)
    j = np.empty(tt.size)
    chunk = max(1, _GRID_CHUNK_ELEMENTS // half_rest.size)
    for lo in range(0, tt.size, chunk):
        m = (dirs[lo:lo + chunk] @ half_tensor).reshape((-1,) + half_rest.shape)
        blocks = np.empty((2,) + m.shape, dtype=np.complex128)
        np.add(half_rest, m, out=blocks[0])
        np.subtract(half_rest, m, out=blocks[1])
        j[lo:lo + chunk] = ev.rest_entropy - _conditional_entropy(blocks)
    best = int(np.flatnonzero(j >= j.max() - 1e-12)[0])
    return float(tt[best]), float(pp[best]), float(j[best])


def _bloch_angles(basis: np.ndarray) -> tuple[float, float]:
    """(theta, phi) in [0, pi] x [0, 2 pi) of a qubit basis's first vector.

    The vector is cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> up to a phase.
    """
    v0, v1 = basis[0]
    theta = 2 * math.atan2(abs(v1), abs(v0))
    phi = cmath.phase(v1 * v0.conjugate()) % (2 * math.pi)
    return theta, phi if phi < 2 * math.pi else 0.0


def _haar_bases(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random bases of C^d (vectors as rows), from QR of Ginibre draws."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def _rotations(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(t[m, r] a[m]) for every skew-Hermitian a[m] and step t[m, r]."""
    w, q = np.linalg.eigh(1j * a)  # i a = q diag(w) q^dagger
    phase = np.exp(-1j * t[..., None] * w[:, None, :])
    return (q[:, None] * phase[..., None, :]) @ q.conj().swapaxes(-1, -2)[:, None]


def _directions(ev: _JEvaluator, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients A of the bases v, their ascent directions D, and where D is Newton's.

    J's slope along V exp(t D) is <A, D>, with A = V^dagger G - G^dagger V for
    G = dJ/d conj(V). A qudit takes D = A. On a qubit, B_p = V^dagger E_p V
    turn the Bloch vector. In the coordinates x of sum_p x_p B_p the gradient
    is g_p = <B_p, A> / 2, and the Hessian H comes from central differences
    of g along V exp(+-h B_q): four more gradients in the same call. Where H
    is negative definite D has x = -H^{-1} g, the model's top at t = 1.
    """
    m, dk = len(v), v.shape[-1]
    if dk == 2:
        gens = v.conj().swapaxes(-1, -2)[:, None] @ _BLOCH_GENERATORS @ v[:, None]
        turns = _rotations(gens.reshape(2 * m, 2, 2), np.tile([_FD_STEP, -_FD_STEP], (2 * m, 1)))
        v = np.concatenate([v, (v[:, None] @ turns.reshape(m, 4, 2, 2)).reshape(-1, 2, 2)])
    a = v.conj().swapaxes(-1, -2) @ ev.gradient(v)
    a -= a.conj().swapaxes(-1, -2)
    if dk != 2:
        return a, a, np.zeros(m, dtype=bool)
    coords = lambda x: np.einsum('mpab,m...ab->m...p', gens.conj(), x).real / 2
    c = coords(a[m:].reshape(m, 2, 2, 2, 2))  # (start, q, +-h, p)
    h = (c[:, :, 0] - c[:, :, 1]) / (4 * _FD_STEP)
    h = h + h.swapaxes(1, 2)  # symmetrized
    newton = (h[:, 0, 0] < 0) & (np.linalg.det(h) > 0)
    x = np.linalg.solve(np.where(newton[:, None, None], h, np.eye(2)), -coords(a[:m])[..., None])
    d = np.einsum('mp,mpab->mab', x[..., 0], gens)
    return a[:m], np.where(newton[:, None, None], d, a[:m]), newton


def _ascend(ev: _JEvaluator, bases: np.ndarray,
            j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Riemannian ascent of J from every basis of the stack, all in lockstep.

    A round moves a live basis V (vectors as rows) along V exp(t D), with
    A and D from one `_directions` call. Its trials, one `j_bases` call,
    take t at the `_LADDER` multiples of 1 for a Newton D, and of the
    search's last accepted step (1 at first) for D = A. The best trial
    gaining at least `_ARMIJO` t <A, D> is accepted. A search ends when no
    trial passes with a gain above `_GAIN_FLOOR`, or after `_MAX_ROUNDS`
    rounds. `j` holds the starts' J. Returns the final bases, their J and
    each search's evaluations (each gradient and each trial count one).
    """
    bases, j = bases.copy(), np.array(j, dtype=float)
    steps = np.ones(len(bases))
    evals = np.zeros(len(bases), dtype=int)
    live = np.arange(len(bases))
    for _ in range(_MAX_ROUNDS):
        if live.size == 0:
            break
        v = bases[live]
        a, d, newton = _directions(ev, v)
        slope = np.einsum('mab,mab->m', a.conj(), d).real
        t = np.where(newton, 1.0, steps[live])[:, None] * _LADDER
        trials = v[:, None] @ _rotations(d, t)
        values = ev.j_bases(trials.reshape((-1,) + v.shape[1:])).reshape(t.shape)
        evals[live] += (5 if ev.dk == 2 else 1) + _LADDER.size
        gain = values - j[live, None]
        armijo = gain >= _ARMIJO * t * slope[:, None]
        pick = np.where(armijo, values, -np.inf).argmax(axis=1)
        rows = np.arange(live.size)
        moved = armijo[rows, pick] & (gain[rows, pick] > _GAIN_FLOOR)
        live, rows, pick = live[moved], rows[moved], pick[moved]
        bases[live] = trials[rows, pick]
        j[live] = values[rows, pick]
        steps[live] = t[rows, pick]
    return bases, j, evals


def optimize_measurement(rho: DensityMatrix, k: int,
                         config: OptimizerConfig = OptimizerConfig()) -> OptimalMeasurementResult:
    """Measurement attaining sup J on subsystem k; discord = I - J, floored at 0."""
    return _optimize(CQEnsemble.of(rho), k, config)


def _optimize(ens: CQEnsemble, k: int,
              config: OptimizerConfig) -> OptimalMeasurementResult:
    """optimize_measurement on unmeasured subsystem k of a cq ensemble.

    The starts are the `_START_GRID` argmax on a qubit (its J taken from the
    grid, so `oracle_gap` >= 0) and seeded Haar bases otherwise; the best
    ascended start wins, the first of any tie.
    """
    info = ens.mutual_information()
    ev = _JEvaluator(ens, k)
    if ev.dk == 2:
        theta, phi, j_grid = _grid_search(ev, _START_GRID)
        starts, j0 = np.array(basis_vectors(theta, phi))[None], [j_grid]
        iterations = _grid_rows(_START_GRID) * _START_GRID
    else:
        starts = _haar_bases(np.random.default_rng(config.seed), config.restarts, ev.dk)
        j0 = ev.j_bases(starts)
        iterations = config.restarts
    bases, js, evals = _ascend(ev, starts, j0)
    best = 0
    for i in range(1, len(js)):
        if js[i] > js[best] + 1e-12:
            best = i
    j = float(js[best])
    params, gap = (_bloch_angles(bases[best]), j - j_grid) if ev.dk == 2 else (None, None)
    return OptimalMeasurementResult(ProjectiveMeasurement(bases[best]), j, max(info - j, 0.0),
                                    iterations + int(evals.sum()), gap, params)
