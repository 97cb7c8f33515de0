"""Search over complete projective measurements to attain sup J.

A measurement is an orthonormal basis, and one search serves every
dimension: Riemannian ascent on the unitary group (Abrudan, Eriksson &
Koivunen, IEEE TSP 56(3):1134, 2008), its directions taken in the fixed
left frame. A qubit starts from the argmax of a coarse Bloch-angle grid,
57 directions of the upper hemisphere with the equator, a higher
dimension from seeded Haar-random bases. Every round of every search
takes a saddle-free Newton step (Dauphin et al., NeurIPS 2014) in the
d(d-1) generators that mix outcomes (Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, ch. 6): the Hessian's
eigenvalues enter by their magnitude, so the step ascends at saddles too,
and it turns by at most pi/4. The Hessian
comes from forward differences of the analytic gradient, so a round
evaluates 1 + d(d-1) gradients in one batched call. A search ends where
its model predicts no further gain, after a failed retry along the
gradient, or at the round cap. The starts ascend in lockstep, so each
round is one batched gradient call and one batched J evaluation of its
line search; a qudit's starts do so in waves of `_WAVE`, until two of them
agree on the best J. One call may search
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
blocks and the dense d_rest x d_rest blocks (see measurement._JEvaluator).
The grids and the ascent evaluate J through that one kernel, so every step
of a rank-r state diagonalizes blocks of at most r x r, whatever its
dimension.
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
                          basis_vectors)
from .states import DensityMatrix

# A qubit search ascends from the best of this grid's 57 Bloch directions:
# 5 theta rows spanning [0, pi/2], the equator included, by 16 phi columns
# spanning [0, 2 pi), the pole counted once and the equator's antipodal half
# dropped. The other hemisphere holds only antipodes, of equal J. Five rows
# space theta by pi/8, as the 16 columns space the equator's phi; coarser
# grids such as 3 x 16 or 5 x 12 let some searches need a sixth round.
_START_GRID = (5, 16)
# Bound on the entries of a grid chunk's `_half_blocks`, (d_k, chunk, d_k,
# L b b): d_k times its outcome blocks, the largest array of the chunk. It
# keeps a grid's working set flat as the leaves L and their size b grow.
_GRID_CHUNK_ELEMENTS = 1 << 20
# Ascent rounds per start.
_MAX_ROUNDS = 500
# Qudit starts ascended together; waves continue until two ascended starts
# are within _AGREE (bits) of the best J so far, or the restarts run out.
_WAVE = 4
_AGREE = 1e-9
# Trial steps of an ascent round, as multiples of its direction.
_LADDER = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 1 / 16])
_UNIT_TRIAL = 2  # the index of t = 1 in _LADDER
# A trial is accepted if it gains at least this share of its first-order gain.
_ARMIJO = 1e-4
# A round fails when no accepted trial gains more J (bits) than this.
_GAIN_FLOOR = 1e-12
# A search ends when its model predicts no larger gain (bits) than this.
_MODEL_FLOOR = 2e-12
# Forward-difference step of a search's Hessian H. The error of H is O(h)
# down to about h = 1e-7, where the gradient's rounding takes over, and it
# sets how closely a search's last step lands on the top. A saddle-free
# Newton step takes each eigenvalue of H as
# -max(|lambda|, _FLAT_CURVATURE max |lambda|), and turns by at most
# _MAX_TURN in the generators' coordinates.
_FD_STEP = 1e-6
_FLAT_CURVATURE = 1e-3
_MAX_TURN = math.pi / 4


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of a measurement search: both are integers, and bools are rejected.

    `restarts` (> 0) caps the seeded Haar starts of a subsystem of dimension
    above 2, ascended in waves of 4; `seed` (>= 0) seeds their draw. A qubit
    search uses neither.
    """
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
    """The measurement a search found on one subsystem, and how it found it."""
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
    angles, bases = _grid_points(np.linspace(0.0, math.pi, n)[:_grid_rows(n)],
                                 np.arange(n) * (2 * math.pi / n))
    (j,) = _grid_j(ev, bases)
    best = _first_best(j)
    theta, phi = angles[best]
    return float(theta), float(phi), float(j[best])


def _grid_points(thetas: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points thetas x phis, theta major, as (theta, phi) pairs and their `basis_vectors`.

    A theta = 0 row keeps only its first point: the others are the same pole.
    A theta = pi/2 row of an even number of phis keeps its first half: phi
    column j + n/2 of the equator is the antipode of column j, of equal J,
    and the tie rule picks the earlier one. An odd count keeps the row whole.
    """
    tt, pp = [a.ravel() for a in np.meshgrid(thetas, phis, indexing='ij')]
    column = np.tile(np.arange(len(phis)), len(thetas))
    keep = (tt != 0) | (column == 0)
    if len(phis) % 2 == 0:
        keep &= (tt != math.pi / 2) | (column < len(phis) // 2)
    tt, pp = tt[keep], pp[keep]
    return np.stack([tt, pp], axis=1), np.stack(basis_vectors(tt, pp), axis=1)


@functools.cache
def _start_points(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """`_grid_points` of the rows x cols start grid over [0, pi/2] x [0, 2 pi), built once."""
    points = _grid_points(np.linspace(0.0, math.pi / 2, rows),
                          np.arange(cols) * (2 * math.pi / cols))
    for a in points:
        a.flags.writeable = False
    return points


def _grid_j(ev: _JEvaluator, bases: np.ndarray) -> np.ndarray:
    """J of each of the G qubit `bases` for each of the P problems of `ev`, as (P, G).

    The P G (problem, basis) pairs go through `j_bases` in order, in chunks
    whose `_half_blocks` hold at most `_GRID_CHUNK_ELEMENTS` entries; a
    chunk may span problems.
    """
    n_problems, g = len(ev.rest_entropy), len(bases)
    chunk = max(1, _GRID_CHUNK_ELEMENTS // (ev.dk * math.prod(ev.shape)))
    j = np.empty(n_problems * g)
    for lo in range(0, j.size, chunk):
        hi = min(lo + chunk, j.size)
        pairs = np.arange(lo, hi)
        j[lo:hi] = ev.j_bases(bases[pairs % g],
                              np.bincount(pairs // g, minlength=n_problems).tolist())
    return j.reshape(n_problems, g)


def _first_best(j: np.ndarray) -> np.ndarray:
    """Index of the first J within 1e-12 of the best, along the last axis: the one tie rule."""
    return (j >= j.max(axis=-1, keepdims=True) - 1e-12).argmax(axis=-1)


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
                counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Gradients X of the bases v and their saddle-free Newton directions D.

    Both are in the fixed left frame, where a basis V moves to exp(t D) V:
    J's slope along D is <X, D>, with X = G V^dagger - V G^dagger for
    G = dJ/d conj(V). In the coordinates s of sum_p s_p E_p over the
    `_generators`, the gradient is g_p = <E_p, X> / 2, and the Hessian H
    comes from forward differences of g along exp(h E_q) V: d(d-1) more
    gradients in the same call, each basis followed by its turns, so each
    problem's rows stay one slice (`counts` holds each problem's number of
    bases, in `ev`'s order). D has s = -H'^{-1} g, where H' is H with each
    eigenvalue lambda_i taken as -max(|lambda_i|, `_FLAT_CURVATURE`
    max |lambda|): the Newton step where H is negative definite, and an
    ascent direction everywhere (Dauphin et al., NeurIPS 2014). A
    rank-deficient marginal of the measured subsystem makes some directions
    exactly flat, which the floor keeps finite. s is scaled down to at most
    `_MAX_TURN`, half the pi/2 turn along one generator that swaps two
    outcomes.
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
    lam = np.abs(lam)
    curvature = np.maximum(lam, _FLAT_CURVATURE * lam.max(axis=1, keepdims=True))
    # s = q diag(1 / curvature) q^T g; where H is exactly 0, s = g before the cap
    s = np.einsum('mpi,mi->mp', q, np.einsum('mpi,mp->mi', q, g)
                  / np.where(curvature > 0, curvature, 1.0))
    norm = np.sqrt(np.einsum('mp,mp->m', s, s))
    s *= (_MAX_TURN / np.maximum(norm, _MAX_TURN))[:, None]
    return x, np.einsum('mp,pab->mab', s, gens)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Tr(x[m]^dagger y[m]) for every m of two stacks of matrices."""
    return np.einsum('mab,mab->m', x.conj(), y).real


def _ascend(ev: _JEvaluator, bases: np.ndarray, j: np.ndarray,
            counts: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Riemannian ascent of J from every basis of the stack, all in lockstep.

    A round moves a live basis V (vectors as rows) to exp(t D) V, with the
    gradient X and the saddle-free Newton direction D from one `_directions`
    call, at the `_LADDER` multiples t of D; the trials are one `j_bases`
    call. The best trial gaining at least `_ARMIJO` t <X, D> is accepted.
    Where the model's predicted gain <X, D> / 2 is at most `_MODEL_FLOOR`,
    the search ends on its t = 1 trial, whatever that trial gains. A round
    with no trial gaining more than `_GAIN_FLOOR` is retried once from the
    same point along the X it computed, its trials turning by the `_LADDER`
    multiples of that round's shortest trial, so a ridge narrower than the
    model's step is still climbed; a failed retry ends the search, as do
    `_MAX_ROUNDS` rounds. Each search keeps its own X, so the lockstep run
    equals the starts ascended one by one. `j` holds the starts' J, and
    `counts` the number of starts of each problem in `ev`, the stack holding
    problem 0's first. Returns the final bases, their J and each search's
    evaluations (each gradient and each trial count one, so a fresh round
    counts 1 + d(d-1) + `_LADDER`.size and a retry `_LADDER`.size).
    """
    bases, j = bases.copy(), np.array(j, dtype=float)
    problem = np.repeat(np.arange(len(counts)), counts)
    evals = np.zeros(len(bases), dtype=int)
    # each search's X from its last failed round, and the turn of its retry
    last_x, turn = np.zeros_like(bases), np.zeros(len(bases))
    retry = np.zeros(len(bases), dtype=bool)
    fresh_evals = 1 + len(_generators(ev.dk)[0]) + _LADDER.size
    live = np.arange(len(bases))
    for _ in range(_MAX_ROUNDS):
        if live.size == 0:
            break
        v, on, again = bases[live], problem[live], retry[live]
        live_counts = np.bincount(on, minlength=len(counts)).tolist()
        if again.any():
            # |X| = sqrt(2) |g|, so these trials turn by the ladder's multiples of `turn`
            x, d, fresh = last_x[live], np.empty_like(v), ~again
            back = x[again]
            d[again] = back * (turn[live[again]] / np.sqrt(_inner(back, back) / 2))[:, None, None]
            if fresh.any():
                fresh_counts = np.bincount(on[fresh], minlength=len(counts)).tolist()
                x[fresh], d[fresh] = _directions(ev, v[fresh], fresh_counts)
        else:
            x, d = _directions(ev, v, live_counts)
        slope = _inner(x, d)
        trials = _rotations(d, _LADDER[None]) @ v[:, None]
        values = ev.j_bases(trials.reshape((-1,) + v.shape[1:]),
                            [c * _LADDER.size for c in live_counts]).reshape(trials.shape[:2])
        evals[live] += np.where(again, _LADDER.size, fresh_evals)
        gain = values - j[live, None]
        armijo = gain >= _ARMIJO * _LADDER * slope[:, None]
        pick = np.where(armijo, values, -np.inf).argmax(axis=1)
        rows = np.arange(live.size)
        moved = armijo[rows, pick] & (gain[rows, pick] > _GAIN_FLOOR)
        done = ~again & (slope / 2 <= _MODEL_FLOOR)
        pick[done] = _UNIT_TRIAL
        retry[live] = fail = ~(again | moved | done)
        if fail.any():
            # the failed round's shortest trial turned by |s| / 16, |D| = sqrt(2) |s|
            last_x[live[fail]] = x[fail]
            turn[live[fail]] = _LADDER[-1] * np.sqrt(_inner(d[fail], d[fail]) / 2)
        rows, pick = rows[moved | done], pick[moved | done]
        bases[live[rows]] = trials[rows, pick]
        j[live[rows]] = values[rows, pick]
        live = live[~done & (moved | ~again)]
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
    far. The best ascended start wins by the grids' tie rule (`_first_best`).
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
            best = _first_best(js)
            j = float(js[best])
            params, gap = (None, None) if j_grid is None else (_bloch_angles(bases[best]),
                                                               j - j_grid)
            results[p] = OptimalMeasurementResult(ProjectiveMeasurement(bases[best]), j,
                                                  max(infos[p] - j, 0.0), iterations, gap, params)
    return results


def _qubit_searches(evs: list[_JEvaluator]) -> list[tuple]:
    """(bases, J, iterations, the start grid's J) of each qubit problem, ascended from its grid."""
    ev = _JEvaluator.stack(evs)
    grid = _start_points(*_START_GRID)[1]
    j = _grid_j(ev, grid)
    best = _first_best(j)
    j_grid = j[np.arange(len(evs)), best]
    bases, js, evals = _ascend(ev, grid[best], j_grid, [1] * len(evs))
    return [(bases[p:p + 1], js[p:p + 1], len(grid) + int(evals[p]), float(j_grid[p]))
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
