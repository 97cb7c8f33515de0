"""Search over complete projective measurements to attain sup J.

A measurement is an orthonormal basis, and one search serves every
dimension: Riemannian ascent on the unitary group (Abrudan, Eriksson &
Koivunen, IEEE TSP 56(3):1134, 2008), its directions taken in the fixed
left frame. A qubit starts from the argmax of a coarse Bloch-angle grid
that samples the equator, a higher dimension from seeded Haar-random
bases. Every search takes Newton steps where its Hessian over the d(d-1)
generators that mix outcomes allows them (Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, ch. 6); the Hessian
comes from forward differences of the analytic gradient, so a round
evaluates 1 + d(d-1) gradients in one batched call. Wherever no Newton step
applies, a round takes a conjugate-gradient step (Abrudan, Eriksson &
Koivunen, Signal Processing 89(9):1704, 2009). The starts ascend in
lockstep, so each round is one batched gradient call and one batched J
evaluation of its line search; a qudit's starts do so in waves of
`_WAVE`, until two of them agree on the best J. One call may search
several problems, a subsystem of an ensemble each: those of one subsystem
dimension and leaf shape ascend in the same lockstep, each start keeping
its own problem, so a batch takes as many rounds as its longest search
and every search ends where it ends alone. Outcome blocks of at most
2 x 2 take their spectrum and log in closed form, larger ones through
LAPACK. The fine grid of the public `grid_search_qubit` is only an oracle
for the ascent.
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
import functools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotAQubit, ParamOutOfRange
from .measurement import (CQEnsemble, ProjectiveMeasurement, _JEvaluator,
                          _conditional_entropy, basis_vectors)
from .states import DensityMatrix

# A qubit search ascends from the best of this grid's 129 Bloch directions:
# 9 theta rows spanning [0, pi/2], the equator included, by 16 phi columns
# spanning [0, 2 pi), the pole row counted once. The other hemisphere holds
# only antipodes, of equal J.
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
# Forward-difference step of a search's Hessian H. An eigenvalue of H below
# _FLAT |lambda_min| counts as flat, and its Newton step takes it as
# -_FLAT_CURVATURE |lambda_min|.
_FD_STEP = 1e-4
_FLAT = 1e-2
_FLAT_CURVATURE = 1e-3


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
    return _grid_search(ev, *_grid_points(np.linspace(0.0, math.pi, n)[:_grid_rows(n)],
                                          np.arange(n) * (2 * math.pi / n)))


def _grid_points(thetas: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points thetas x phis, theta major, as (theta, phi) pairs and unit Bloch vectors.

    A theta = 0 row keeps only its first point: the others are the same pole.
    """
    tt, pp = [a.ravel() for a in np.meshgrid(thetas, phis, indexing='ij')]
    keep = (tt != 0) | (pp == phis[0])
    tt, pp = tt[keep], pp[keep]
    dirs = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=1)
    return np.stack([tt, pp], axis=1), dirs


@functools.cache
def _start_points(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """`_grid_points` of the rows x cols start grid over [0, pi/2] x [0, 2 pi), built once."""
    points = _grid_points(np.linspace(0.0, math.pi / 2, rows),
                          np.arange(cols) * (2 * math.pi / cols))
    for a in points:
        a.flags.writeable = False
    return points


def _grid_search(ev: _JEvaluator, angles: np.ndarray,
                 dirs: np.ndarray) -> tuple[float, float, float]:
    """Best J over the Bloch directions `dirs` on the qubit subsystem of `ev`.

    `angles` holds their (theta, phi). Ties within 1e-12 break to the first
    direction. The two outcome blocks of the measurement along unit vector
    u are (rest +- u . T) / 2 for every leaf, with `rest` the leaf's block
    traced over subsystem k and T_j = Tr_k[(sigma_j x I) W].
    """
    view = ev.view
    up, down = view[:, 0, :, 0, :], view[:, 1, :, 1, :]
    upper, lower = view[:, 0, :, 1, :], view[:, 1, :, 0, :]
    half_rest = (up + down) / 2
    half_tensor = np.stack([upper + lower, 1j * (upper - lower),
                            up - down]).reshape(3, half_rest.size) / 2
    j = np.empty(len(dirs))
    chunk = max(1, _GRID_CHUNK_ELEMENTS // half_rest.size)
    for lo in range(0, len(dirs), chunk):
        m = (dirs[lo:lo + chunk] @ half_tensor).reshape((-1,) + half_rest.shape)
        blocks = np.empty((2,) + m.shape, dtype=np.complex128)
        np.add(half_rest, m, out=blocks[0])
        np.subtract(half_rest, m, out=blocks[1])
        j[lo:lo + chunk] = ev.rest_entropy[0] - _conditional_entropy(blocks)
    best = int(np.flatnonzero(j >= j.max() - 1e-12)[0])
    theta, phi = angles[best]
    return float(theta), float(phi), float(j[best])


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


@functools.cache
def _generators(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The generators E_p of the basis turns exp(t E_p) V that mix outcomes, and exp(h E_p).

    For each pair a < b they are e_ab - e_ba and i (e_ab + e_ba), d(d-1) in
    all; the diagonal ones only rephase the vectors, which leaves J as it
    is. As E_p^3 = -E_p, exp(h E_p) = I + sin(h) E_p + (1 - cos h) E_p^2.
    """
    gens = []
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1
            gens += [e - e.T, 1j * (e + e.T)]
    gens = np.array(gens)
    turns = np.eye(d) + math.sin(_FD_STEP) * gens + (1 - math.cos(_FD_STEP)) * (gens @ gens)
    for a in (gens, turns):
        a.flags.writeable = False
    return gens, turns


def _directions(ev: _JEvaluator, v: np.ndarray,
                counts: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients X of the bases v, their ascent directions D, and where D is Newton's.

    Both are in the fixed left frame, where a basis V moves to exp(t D) V:
    J's slope along D is <X, D>, with X = G V^dagger - V G^dagger for
    G = dJ/d conj(V). In the coordinates s of sum_p s_p E_p over the
    `_generators`, the gradient is g_p = <E_p, X> / 2, and the Hessian H
    comes from forward differences of g along exp(h E_q) V: d(d-1) more
    gradients in the same call, each basis followed by its turns, so each
    problem's rows stay one slice (`counts` holds each problem's number of
    bases, in `ev`'s order). Where H is negative definite up to its flat
    directions, D has s = -H^{-1} g, the model's top at t = 1; elsewhere
    D = X. An eigenvalue of H below `_FLAT` |lambda_min| counts as flat, and
    H^{-1} takes the eigenvalues above -`_FLAT_CURVATURE` |lambda_min| at
    that value (Nocedal & Wright, Numerical Optimization, 2006, sec. 3.4).
    A rank-deficient marginal of the measured subsystem makes some
    directions exactly flat, so a strict test would take no Newton step.
    """
    m, dk = len(v), v.shape[-1]
    gens, turns = _generators(dk)
    v = np.concatenate([v[:, None], turns @ v[:, None]], axis=1).reshape(-1, dk, dk)
    x = ev.gradient(v, [c * (1 + len(gens)) for c in counts]) @ v.conj().swapaxes(-1, -2)
    x -= x.conj().swapaxes(-1, -2)
    g = np.einsum('pab,nab->np', gens.conj(), x).real.reshape(m, 1 + len(gens), -1) / 2
    h = (g[:, 1:] - g[:, :1]) / _FD_STEP
    x, g = x[::1 + len(gens)], g[:, 0]
    lam, q = np.linalg.eigh((h + h.swapaxes(1, 2)) / 2)
    scale = np.abs(lam[:, :1])
    newton = lam[:, -1] < _FLAT * scale[:, 0]
    # s = -q diag(1 / lambda) q^T g
    curvature = np.where(newton[:, None], np.minimum(lam, -_FLAT_CURVATURE * scale), -1.0)
    s = -np.einsum('mpi,mi->mp', q, np.einsum('mpi,mp->mi', q, g) / curvature)
    d = np.einsum('mp,pab->mab', s, gens)
    return x, np.where(newton[:, None, None], d, x), newton


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Tr(x[m]^dagger y[m]) for every m of two stacks of matrices."""
    return np.einsum('mab,mab->m', x.conj(), y).real


def _ascend(ev: _JEvaluator, bases: np.ndarray, j: np.ndarray,
            counts: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    starts' J, and `counts` the number of starts of each problem in `ev`,
    the stack holding problem 0's first. Returns the final bases, their J and
    each search's evaluations (each gradient and each trial count one, so a
    round with its Newton test counts 1 + d(d-1) + `_LADDER`.size).
    """
    bases, j = bases.copy(), np.array(j, dtype=float)
    problem = np.repeat(np.arange(len(counts)), counts)
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
        on = problem[live]
        if fresh.any():
            fresh_counts = np.bincount(on[fresh], minlength=len(counts)).tolist()
            x[fresh], d[fresh], newton[fresh] = _directions(ev, v[fresh], fresh_counts)
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
        trial_counts = [c * _LADDER.size for c in np.bincount(on, minlength=len(counts)).tolist()]
        values = ev.j_bases(trials.reshape((-1,) + v.shape[1:]), trial_counts).reshape(t.shape)
        evals[live] += np.where(fresh, 1 + len(_generators(ev.dk)[0]), 0) + _LADDER.size
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
    return _optimize([(CQEnsemble.of(rho), k)], config)[0]


def _optimize(problems: list[tuple[CQEnsemble, int]],
              config: OptimizerConfig) -> list[OptimalMeasurementResult]:
    """optimize_measurement on unmeasured subsystem k of a cq ensemble, for each (ensemble, k).

    The problems whose evaluators share a `shape` ascend in one lockstep,
    each start keeping its own problem, so every result is that of its
    problem searched alone. A qubit problem starts from its own
    `_START_GRID` argmax (its J taken from the grid, so `oracle_gap` >= 0),
    a qudit problem from the seeded Haar bases. Those ascend in waves of
    `_WAVE` consecutive starts of the one draw, and a problem's waves stop
    once two of its ascended starts are within `_AGREE` of its best J so
    far. The best ascended start wins, the first of any tie.
    """
    infos = [ens.mutual_information() for ens, _ in problems]
    evs = [_JEvaluator.of(ens, k) for ens, k in problems]
    groups = {}
    for p, ev in enumerate(evs):
        groups.setdefault(ev.shape, []).append(p)
    results = [None] * len(problems)
    for members in groups.values():
        group = [evs[p] for p in members]
        found = _qubit_searches(group) if group[0].dk == 2 else _qudit_searches(group, config)
        for p, (bases, js, iterations, j_grid) in zip(members, found):
            best = 0
            for i in range(1, len(js)):
                if js[i] > js[best] + 1e-12:
                    best = i
            j = float(js[best])
            params, gap = (None, None) if j_grid is None else (_bloch_angles(bases[best]),
                                                               j - j_grid)
            results[p] = OptimalMeasurementResult(ProjectiveMeasurement(bases[best]), j,
                                                  max(infos[p] - j, 0.0), iterations, gap, params)
    return results


def _qubit_searches(evs: list[_JEvaluator]) -> list[tuple]:
    """(bases, J, iterations, the start grid's J) of each qubit problem, ascended from its grid."""
    angles, dirs = _start_points(*_START_GRID)
    grids = [_grid_search(ev, angles, dirs) for ev in evs]
    starts = np.array([basis_vectors(theta, phi) for theta, phi, _ in grids])
    j_grid = [j for _, _, j in grids]
    bases, js, evals = _ascend(_JEvaluator.stack(evs), starts, j_grid, [1] * len(evs))
    return [(bases[p:p + 1], js[p:p + 1], len(dirs) + int(evals[p]), j_grid[p])
            for p in range(len(evs))]


def _qudit_searches(evs: list[_JEvaluator], config: OptimizerConfig) -> list[tuple]:
    """(bases, J, iterations, None) of each qudit problem's ascended waves.

    Every problem draws the same seeded starts, so they are drawn once; the
    live problems' waves ascend together.
    """
    ev = _JEvaluator.stack(evs)
    starts = _haar_bases(np.random.default_rng(config.seed), config.restarts, ev.dk)
    waves = [[] for _ in evs]  # each problem's ascended waves: (bases, J, evaluations)
    live = list(range(len(evs)))
    for lo in range(0, len(starts), _WAVE):
        wave = starts[lo:lo + _WAVE]
        rows = np.concatenate([wave] * len(live))
        counts = [len(wave) if p in live else 0 for p in range(len(evs))]
        bases, js, evals = _ascend(ev, rows, ev.j_bases(rows, counts), counts)
        for i, p in enumerate(live):
            part = slice(i * len(wave), (i + 1) * len(wave))
            waves[p].append((bases[part], js[part], evals[part]))
        still = []
        for p in live:
            seen = np.concatenate([w[1] for w in waves[p]])
            if np.count_nonzero(seen >= seen.max() - _AGREE) < 2:
                still.append(p)
        live = still
        if not live:
            break
    found = []
    for parts in waves:
        bases, js, evals = (np.concatenate(a) for a in zip(*parts))
        found.append((bases, js, len(js) + int(evals.sum()), None))
    return found
