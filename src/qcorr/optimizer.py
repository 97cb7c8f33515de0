"""Search over complete projective measurements to attain sup J.

A measurement is an orthonormal basis, and one search serves every
dimension: Riemannian ascent on the unitary group (Abrudan, Eriksson &
Koivunen, IEEE TSP 56(3):1134, 2008), its directions taken in the fixed
left frame. A qubit starts from the argmax of a coarse Bloch-angle grid
that samples the equator, and takes Newton steps where its Hessian, from
central differences of the analytic gradient, allows them. A higher
dimension starts from seeded Haar-random bases. Wherever no Newton step
applies, a round takes a conjugate-gradient step (Abrudan, Eriksson &
Koivunen, Signal Processing 89(9):1704, 2009). The starts ascend in
lockstep, so each round is one batched gradient and one batched J
evaluation of its line search; a qudit's starts do so in waves of
`_WAVE`, until two of them agree on the best J. The fine grid of the public
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

# A qubit search ascends from the best of this grid's 144 Bloch directions:
# 9 theta rows spanning [0, pi/2], the equator included, by 16 phi columns
# spanning [0, 2 pi). The other hemisphere holds only antipodes, of equal J.
_START_GRID = (9, 16)
# Bound on the entries of one (chunk, L, dr, dr) stack of grid blocks, so the
# grid's working set stays flat as the leaves L and their dimension dr grow.
_GRID_CHUNK_ELEMENTS = 1 << 20
# Ascent rounds per start.
_MAX_ROUNDS = 500
# Qudit starts ascended together; waves continue until two ascended starts
# are within _AGREE (bits) of the best J so far, or the restarts run out.
_WAVE = 8
_AGREE = 1e-9
# Trial steps of an ascent round, as multiples of the search's last accepted step.
_LADDER = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 1 / 16])
# A trial is accepted if it gains at least this share of its first-order gain.
_ARMIJO = 1e-4
# A search ends when no accepted trial gains more J (bits) than this.
_GAIN_FLOOR = 1e-12
# Central-difference step of a qubit search's Hessian, the generators E_p of
# the basis turns exp(t E_p) V that move its Bloch vector (diagonal ones
# rephase it), and the turns exp(+-h E_q) = cos(h) I +- sin(h) E_q, as E_q^2 = -I.
_FD_STEP = 1e-4
_BLOCH_GENERATORS = np.array([[[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
_BLOCH_TURNS = (math.cos(_FD_STEP) * np.eye(2) + math.sin(_FD_STEP)
                * np.array([1, -1])[:, None, None] * _BLOCH_GENERATORS[:, None])


@dataclass(frozen=True)
class OptimizerConfig:
    # subsystem dim > 2: at most this many Haar starts, ascended in waves of 8
    restarts: int = 32
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
    ev = _JEvaluator.of(CQEnsemble.of(rho), k)
    if ev.dk != 2:
        raise NotAQubit(f"subsystem {k} has dimension {ev.dk}")
    return _grid_search(ev, np.linspace(0.0, math.pi, n)[:_grid_rows(n)],
                        np.arange(n) * (2 * math.pi / n))


def _grid_search(ev: _JEvaluator, thetas: np.ndarray,
                 phis: np.ndarray) -> tuple[float, float, float]:
    """Best J over the Bloch directions thetas x phis on the qubit subsystem of `ev`.

    Ties within 1e-12 break to the first (theta, phi) in that order. The two
    outcome blocks of the measurement along unit vector u are
    (rest +- u . T) / 2 for every leaf, with `rest` the leaf's block traced
    over subsystem k and T_j = Tr_k[(sigma_j x I) W].
    """
    view = ev.view
    up, down = view[:, 0, :, 0, :], view[:, 1, :, 1, :]
    upper, lower = view[:, 0, :, 1, :], view[:, 1, :, 0, :]
    half_rest = (up + down) / 2
    half_tensor = np.stack([upper + lower, 1j * (upper - lower),
                            up - down]).reshape(3, half_rest.size) / 2
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
    """Gradients X of the bases v, their ascent directions D, and where D is Newton's.

    Both are in the fixed left frame, where a basis V moves to exp(t D) V:
    J's slope along D is <X, D>, with X = G V^dagger - V G^dagger for
    G = dJ/d conj(V). A qudit takes D = X. On a qubit, in the coordinates s
    of sum_p s_p E_p, the gradient is g_p = <E_p, X> / 2, and the Hessian H
    comes from central differences of g along exp(+-h E_q) V: four more
    gradients in the same call. Where H is negative definite D has
    s = -H^{-1} g, the model's top at t = 1; elsewhere D = X.
    """
    m, dk = len(v), v.shape[-1]
    if dk == 2:
        v = np.concatenate([v, (_BLOCH_TURNS @ v[:, None, None]).reshape(-1, 2, 2)])
    x = ev.gradient(v) @ v.conj().swapaxes(-1, -2)
    x -= x.conj().swapaxes(-1, -2)
    if dk != 2:
        return x, x, np.zeros(m, dtype=bool)
    coords = lambda y: np.einsum('pab,...ab->...p', _BLOCH_GENERATORS.conj(), y).real / 2
    c = coords(x[m:].reshape(m, 2, 2, 2, 2))  # (start, q, +-h, p)
    h = (c[:, :, 0] - c[:, :, 1]) / (4 * _FD_STEP)
    h = h + h.swapaxes(1, 2)  # symmetrized
    newton = (h[:, 0, 0] < 0) & (np.linalg.det(h) > 0)
    step = np.linalg.solve(np.where(newton[:, None, None], h, np.eye(2)), -coords(x[:m])[..., None])
    d = np.einsum('mp,pab->mab', step[..., 0], _BLOCH_GENERATORS)
    return x[:m], np.where(newton[:, None, None], d, x[:m]), newton


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Tr(x[m]^dagger y[m]) for every m of two stacks of matrices."""
    return np.einsum('mab,mab->m', x.conj(), y).real


def _ascend(ev: _JEvaluator, bases: np.ndarray,
            j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Riemannian ascent of J from every basis of the stack, all in lockstep.

    A round moves a live basis V (vectors as rows) to exp(t D) V, with the
    gradient X and the Newton direction from one `_directions` call. Both
    are in the fixed left frame (V exp(t A) = exp(t V A V^dagger) V), so
    directions of different rounds add without transport. Where no Newton
    step applies, D is the conjugate gradient (Abrudan, Eriksson &
    Koivunen, Signal Processing 89(9):1704, 2009) X + beta D', with D' the
    search's last direction and beta = max(0, <X, X - X'> / |X'|^2)
    (Polak-Ribiere); D = X on a search's first round, after a Newton step
    or a conjugate round that failed, and where <X, D> <= 0. The trials,
    one `j_bases` call, take t at the `_LADDER` multiples of 1 for a Newton
    D, and of the search's last accepted step (1 at first) otherwise. The
    best trial gaining at least `_ARMIJO` t <X, D> is accepted. A conjugate
    round with no trial gaining more than `_GAIN_FLOOR` leaves the search
    live, to step along X from the same point, which it keeps from the
    failed round rather than computing it again; any other such round ends
    it, as do `_MAX_ROUNDS` rounds. Each search keeps its own X' and D', so
    the lockstep run equals the starts ascended one by one. `j` holds the
    starts' J. Returns the final bases, their J and each search's
    evaluations (each gradient and each trial count one).
    """
    bases, j = bases.copy(), np.array(j, dtype=float)
    steps = np.ones(len(bases))
    evals = np.zeros(len(bases), dtype=int)
    last_x, last_d = np.zeros_like(bases), np.zeros_like(bases)
    conjugate = np.zeros(len(bases), dtype=bool)  # the next round may add last_d
    retry = np.zeros(len(bases), dtype=bool)  # the last round was a failed conjugate one
    live = np.arange(len(bases))
    for _ in range(_MAX_ROUNDS):
        if live.size == 0:
            break
        v = bases[live]
        # a retry steps along its last X (never a Newton direction: the
        # failed round was conjugate only because none applied there)
        x, d, newton = last_x[live], last_x[live], np.zeros(live.size, dtype=bool)
        fresh = ~retry[live]
        if fresh.any():
            x[fresh], d[fresh], newton[fresh] = _directions(ev, v[fresh])
        is_cg = np.zeros(live.size, dtype=bool)
        if conjugate[live].any():
            prev_x, prev_d = last_x[live], last_d[live]
            norm = _inner(prev_x, prev_x)
            beta = np.where(conjugate[live] & ~newton,
                            np.maximum(_inner(x, x - prev_x), 0.0) / np.where(norm > 0, norm, 1.0),
                            0.0)
            cg = d + beta[:, None, None] * prev_d
            is_cg = (beta > 0) & (_inner(x, cg) > 0)
            d = np.where(is_cg[:, None, None], cg, d)
        slope = _inner(x, d)
        t = np.where(newton, 1.0, steps[live])[:, None] * _LADDER
        trials = _rotations(d, t) @ v[:, None]
        values = ev.j_bases(trials.reshape((-1,) + v.shape[1:])).reshape(t.shape)
        evals[live] += np.where(fresh, 5 if ev.dk == 2 else 1, 0) + _LADDER.size
        gain = values - j[live, None]
        armijo = gain >= _ARMIJO * t * slope[:, None]
        pick = np.where(armijo, values, -np.inf).argmax(axis=1)
        rows = np.arange(live.size)
        moved = armijo[rows, pick] & (gain[rows, pick] > _GAIN_FLOOR)
        last_x[live], last_d[live], conjugate[live] = x, d, moved & ~newton
        retry[live] = is_cg & ~moved
        rows, pick = rows[moved], pick[moved]
        bases[live[rows]] = trials[rows, pick]
        j[live[rows]] = values[rows, pick]
        steps[live[rows]] = t[rows, pick]
        live = live[moved | is_cg]
    return bases, j, evals


def optimize_measurement(rho: DensityMatrix, k: int,
                         config: OptimizerConfig = OptimizerConfig()) -> OptimalMeasurementResult:
    """Measurement attaining sup J on subsystem k; discord = I - J, floored at 0."""
    return _optimize(CQEnsemble.of(rho), k, config)


def _optimize(ens: CQEnsemble, k: int,
              config: OptimizerConfig) -> OptimalMeasurementResult:
    """optimize_measurement on unmeasured subsystem k of a cq ensemble.

    The starts are the `_START_GRID` argmax on a qubit (its J taken from the
    grid, so `oracle_gap` >= 0) and seeded Haar bases otherwise. Those
    ascend in waves of `_WAVE` consecutive starts of the one draw, and the
    waves stop once two ascended starts are within `_AGREE` of the best J
    so far. The best ascended start wins, the first of any tie.
    """
    info = ens.mutual_information()
    ev = _JEvaluator.of(ens, k)
    if ev.dk == 2:
        rows, cols = _START_GRID
        theta, phi, j_grid = _grid_search(ev, np.linspace(0.0, math.pi / 2, rows),
                                          np.arange(cols) * (2 * math.pi / cols))
        bases, js, evals = _ascend(ev, np.array(basis_vectors(theta, phi))[None], [j_grid])
        iterations = rows * cols
    else:
        starts = _haar_bases(np.random.default_rng(config.seed), config.restarts, ev.dk)
        waves = []
        for lo in range(0, len(starts), _WAVE):
            wave = starts[lo:lo + _WAVE]
            waves.append(_ascend(ev, wave, ev.j_bases(wave)))
            js = np.concatenate([w[1] for w in waves])
            if np.count_nonzero(js >= js.max() - _AGREE) >= 2:
                break
        bases, js, evals = (np.concatenate(parts) for parts in zip(*waves))
        iterations = len(js)
    best = 0
    for i in range(1, len(js)):
        if js[i] > js[best] + 1e-12:
            best = i
    j = float(js[best])
    params, gap = (_bloch_angles(bases[best]), j - j_grid) if ev.dk == 2 else (None, None)
    return OptimalMeasurementResult(ProjectiveMeasurement(bases[best]), j, max(info - j, 0.0),
                                    iterations + int(evals.sum()), gap, params)
