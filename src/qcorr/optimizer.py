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
its model predicts no further gain, on its t = 1 trial, the only trial of
that round it evaluates; when a retry in the same round along the
gradient gains nothing either; or at the round cap. A pure state's first
step, where every basis gives the same J, is not searched. The starts
ascend in lockstep, so each round is one batched gradient call and one
batched J evaluation of its line search (and one of its retries); a
qudit's starts do so in waves of `_WAVE`, until two of them agree on the
best J. One call may search
several problems, a subsystem of an ensemble each: those of one subsystem
dimension and leaf shape ascend in the same lockstep, each start keeping
its own problem, so a batch takes as many rounds as its longest search
and every search ends where it ends alone. Outcome blocks of at most
2 x 2 take their spectrum and log in closed form, larger ones through
LAPACK. The fine grid of the public `grid_search_qubit` is only an oracle
for the ascent; one rule drops the antipodal repeats of both grids.
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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotAQubit, ParamOutOfRange
from .linalg import is_integer
from .measurement import (CQEnsemble, ProjectiveMeasurement, _JEvaluator,
                          basis_vectors)
from .states import DensityMatrix

# A qubit search ascends from the best of the 57 Bloch directions that
# `_grid_points` keeps of this grid: 9 theta rows spanning [0, pi] by 16 phi
# columns spanning [0, 2 pi), which leaves the 5 rows of [0, pi/2], the pole
# counted once and the equator's antipodal half dropped. The rows space theta
# by pi/8, as the 16 columns space the equator's phi; coarser grids such as
# 5 x 16 or 9 x 12 let some searches need a sixth round.
_START_GRID = (9, 16)
# Bound on the entries of a grid chunk's `_half_blocks`, (d_k, chunk, d_k,
# L b b): d_k times its outcome blocks, the largest array of the chunk. It
# keeps a grid's working set flat as the leaves L and their size b grow.
_GRID_CHUNK_ELEMENTS = 1 << 20
# Ascent rounds per start, each a Newton ladder and at most one retry ladder.
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
            if not (is_integer(value) and (value >= 0 if name == "seed" else value > 0)):
                raise ParamOutOfRange(f"{name} must be an integer "
                                      f"{'>= 0' if name == 'seed' else '> 0'}, got {value!r}")


@dataclass(frozen=True, eq=False)
class OptimalMeasurementResult:
    """The measurement a search found on one subsystem, and how it found it."""
    measurement: ProjectiveMeasurement
    j_value: float       # bits
    discord: float       # bits, floored at 0
    iterations: int      # bases the J kernel evaluated, `_JEvaluator.evaluated`; 0 for constant J
    oracle_gap: float | None = None   # qubit: ascended J minus the start grid's best J
    params: tuple[float, float] | None = None  # (theta, phi) for qubits, else None


def grid_search_qubit(rho: DensityMatrix, k: int,
                      n: int = 128) -> tuple[float, float, float]:
    """Best J over an n x n grid: inclusive theta, periodic phi.

    Ties within 1e-12 break to the lexicographically smallest (theta, phi).
    Only the points `_grid_points` keeps are evaluated: the upper half of the
    sphere when n is even, the pole and every row between the poles when n
    is odd.
    """
    if not (is_integer(n) and n >= 1):
        raise ParamOutOfRange(f"grid size must be an integer > 0, got {n!r}")
    ev = _JEvaluator.of(CQEnsemble.of(rho), k)
    if ev.dk != 2:
        raise NotAQubit(f"subsystem {k} has dimension {ev.dk}")
    angles, bases = _grid_points(n, n)
    (j,) = _grid_j(ev, bases)
    best = _first_best(j)
    theta, phi = angles[best]
    return float(theta), float(phi), float(j[best])


def _grid_points(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows x cols grid over [0, pi] x [0, 2 pi), theta major, less its repeats.

    Returns the kept points as (theta, phi) pairs and their `basis_vectors`.
    Measuring along the Bloch direction -u only swaps the two outcomes, so
    J(-u) = J(u): a point is dropped if an earlier point has its direction
    or its antipode, which leaves the argmax and its tie rule unchanged.
    Every point of rows 0 and rows - 1 is a pole, so only the first point of
    those rows is kept. The antipode of any other point (theta_i, phi_j) is
    (theta_{rows-1-i}, phi_{j+cols/2}), on the grid only when cols is even.
    """
    flat = np.arange(rows * cols)
    i, j = np.divmod(flat, cols)
    antipode = (rows - 1 - i) * cols + (j + cols // 2) % cols
    keep = np.where((i == 0) | (i == rows - 1), flat == 0, (cols % 2 == 1) | (antipode > flat))
    tt, pp = np.linspace(0.0, math.pi, rows)[i[keep]], j[keep] * (2 * math.pi / cols)
    return np.stack([tt, pp], axis=1), np.stack(basis_vectors(tt, pp), axis=1)


@functools.cache
def _start_points(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """`_grid_points` of the rows x cols start grid, built once."""
    points = _grid_points(rows, cols)
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


def _climb(ev: _JEvaluator, v: np.ndarray, x: np.ndarray, d: np.ndarray, j: np.ndarray,
           on: np.ndarray, n_problems: int,
           ending: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trial each basis V keeps of its ladder exp(t D) V, its J, and whether it gained.

    The `_LADDER` trials are one `j_bases` call; `on` holds each basis's
    problem in `ev`, and `j` its J. The best trial gaining at least `_ARMIJO`
    t <X, D> is kept, and it gained if it gains more than `_GAIN_FLOOR`. A
    basis marked `ending` keeps its t = 1 trial, its only trial evaluated.
    """
    trials = _rotations(d, _LADDER[None]) @ v[:, None]
    if ending.any():
        # an ending search's other trials are never read
        keep = ~ending[:, None] | (np.arange(_LADDER.size) == _UNIT_TRIAL)
        counts = np.bincount(on, weights=keep.sum(axis=1), minlength=n_problems)
        values = np.full(keep.shape, -np.inf)
        values[keep] = ev.j_bases(trials[keep], counts.astype(int).tolist())
    else:
        counts = np.bincount(on, minlength=n_problems) * _LADDER.size
        values = ev.j_bases(trials.reshape((-1,) + v.shape[1:]),
                            counts.tolist()).reshape(trials.shape[:2])
    gain = values - j[:, None]
    armijo = gain >= _ARMIJO * _LADDER * _inner(x, d)[:, None]
    pick = np.where(armijo, values, -np.inf).argmax(axis=1)
    pick[ending] = _UNIT_TRIAL
    rows = np.arange(len(v))
    return (trials[rows, pick], values[rows, pick],
            armijo[rows, pick] & (gain[rows, pick] > _GAIN_FLOOR))


def _ascend(ev: _JEvaluator, bases: np.ndarray, j: np.ndarray,
            counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian ascent of J from every basis of the stack, all in lockstep.

    A round takes the gradient X and the saddle-free Newton direction D of
    every live basis V (vectors as rows) from one `_directions` call, and
    climbs the ladder of trials exp(t D) V (`_climb`). Where the model's
    predicted gain <X, D> / 2 is at most `_MODEL_FLOOR`, the search ends on
    its t = 1 trial, whatever that trial gains, so that trial is the only
    one of the round it evaluates. A round in which every live search ends
    rotates and evaluates only those trials and stops; one in which some
    end masks their other trials out of the ladder's `j_bases` stack, and
    one in which none ends evaluates every ladder. A search whose ladder
    gains nothing climbs a second ladder in the same round, from the same
    point along its X, whose trials turn by the `_LADDER` multiples of its
    shortest trial's turn, so a ridge narrower than the model's step is
    still climbed; a failed retry ends the search, as do `_MAX_ROUNDS`
    rounds. A search carries only its basis and J from round to round, so
    the lockstep run equals the starts ascended one by one. `j` holds the
    starts' J, and `counts` the number of starts of each problem in `ev`,
    the stack holding problem 0's first. Returns the final bases and their
    J; `ev.evaluated` counts the bases evaluated.
    """
    bases, j = bases.copy(), np.array(j, dtype=float)
    problem = np.repeat(np.arange(len(counts)), counts)
    live = np.arange(len(bases))
    for _ in range(_MAX_ROUNDS):
        if live.size == 0:
            break
        v, on = bases[live], problem[live]
        live_counts = np.bincount(on, minlength=len(counts)).tolist()
        x, d = _directions(ev, v, live_counts)
        done = _inner(x, d) / 2 <= _MODEL_FLOOR
        if done.all():
            # the last round: every live search ends on its t = 1 trial alone
            unit = _rotations(d, _LADDER[None, _UNIT_TRIAL:_UNIT_TRIAL + 1]) @ v[:, None]
            bases[live] = unit[:, 0]
            j[live] = ev.j_bases(unit[:, 0], live_counts)
            break
        found, values, moved = _climb(ev, v, x, d, j[live], on, len(counts), done)
        fail = ~(moved | done)
        if fail.any():
            # the retry's D is X scaled to the turn of the shortest trial,
            # |s| / 16: |D| = sqrt(2) |s| and |X| = sqrt(2) |g|
            back = x[fail]
            turn = _LADDER[-1] * np.sqrt(_inner(d[fail], d[fail]) / 2)
            back_d = back * (turn / np.sqrt(_inner(back, back) / 2))[:, None, None]
            found[fail], values[fail], moved[fail] = _climb(
                ev, v[fail], back, back_d, j[live[fail]], on[fail], len(counts), done[fail])
        took = moved | done
        bases[live[took]], j[live[took]] = found[took], values[took]
        live = live[moved & ~done]
    return bases, j


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
    A problem of shape (d_k, 1, 1, 1), one leaf of 1 x 1 blocks, has J =
    `rest_entropy` for every basis (a pure state's first step), so it is not
    searched: it takes the first start, which every search of it returns.
    Each group's evaluators are stacked once, and a result's `iterations` is
    the stack's count of its problem's bases (`_JEvaluator.evaluated`).
    """
    infos = [ens.mutual_information() for ens, _ in problems]
    evs = [_JEvaluator.of(ens, k) for ens, k in problems]
    groups = {}
    for p, ev in enumerate(evs):
        groups.setdefault(ev.shape, []).append(p)
    results = [None] * len(problems)
    for shape, members in groups.items():
        ev = _JEvaluator.stack([evs[p] for p in members])
        search = (_constant_searches if shape[1:] == (1, 1, 1)
                  else _qubit_searches if shape[0] == 2 else _qudit_searches)
        bases, js, j_grid = search(ev, config)
        for i, (p, best) in enumerate(zip(members, _first_best(js))):
            j = float(js[i, best])
            params, gap = (None, None) if j_grid is None else (_bloch_angles(bases[i, best]),
                                                               j - float(j_grid[i]))
            results[p] = OptimalMeasurementResult(ProjectiveMeasurement(bases[i, best]), j,
                                                  max(infos[p] - j, 0.0), ev.evaluated[i],
                                                  gap, params)
    return results


def _starts(dk: int, config: OptimizerConfig) -> np.ndarray:
    """The start bases of a search on a subsystem of dimension dk, in tie-rule order.

    A qubit's are the `_START_GRID` directions, the pole first; a higher
    dimension's the `restarts` seeded Haar bases.
    """
    if dk == 2:
        return _start_points(*_START_GRID)[1]
    return _haar_bases(np.random.default_rng(config.seed), config.restarts, dk)


def _constant_searches(ev: _JEvaluator, config: OptimizerConfig) -> tuple:
    """(bases, J, the start grid's J or None) of each problem of `ev`, whose J is constant.

    Every outcome of the one leaf is a 1 x 1 block, of entropy 0, so every
    basis gives J = S(rho_rest) (Henderson & Vedral, J. Phys. A 34:6899,
    2001) and the tie rule keeps the first of the `_starts`, which a search
    of it returns unturned: a qubit's start grid's pole, whose J is the
    grid's best, or a qudit's first Haar basis. No basis is evaluated.
    """
    start = _starts(ev.dk, config)[:1]
    bases = np.broadcast_to(start, (len(ev.rest_entropy),) + start.shape).copy()
    return bases, ev.rest_entropy[:, None], ev.rest_entropy if ev.dk == 2 else None


def _qubit_searches(ev: _JEvaluator, config: OptimizerConfig) -> tuple:
    """(bases, J, the start grid's J) of each qubit problem of `ev`, ascended from its grid."""
    grid = _starts(2, config)
    j = _grid_j(ev, grid)
    best = _first_best(j)
    j_grid = j[np.arange(len(j)), best]
    bases, js = _ascend(ev, grid[best], j_grid, [1] * len(j))
    return bases[:, None], js[:, None], j_grid


def _qudit_searches(ev: _JEvaluator, config: OptimizerConfig) -> tuple:
    """(bases, J, None) of each qudit problem of `ev` over its starts, ascended in waves.

    Every problem draws the same seeded starts, so they are drawn once; the
    live problems' waves ascend together. J is -inf at starts not ascended.
    """
    starts = _starts(ev.dk, config)
    bases = np.broadcast_to(starts, (len(ev.rest_entropy),) + starts.shape).copy()
    js = np.full(bases.shape[:2], -np.inf)
    live = np.ones(len(js), dtype=bool)
    for lo in range(0, len(starts), _WAVE):
        wave = slice(lo, lo + _WAVE)
        n = len(starts[wave])
        rows = bases[live, wave].reshape(-1, ev.dk, ev.dk)
        counts = (live * n).tolist()
        found, j = _ascend(ev, rows, ev.j_bases(rows, counts), counts)
        bases[live, wave] = found.reshape(-1, n, ev.dk, ev.dk)
        js[live, wave] = j.reshape(-1, n)
        seen = js[live]
        live[live] = np.count_nonzero(seen >= seen.max(axis=1, keepdims=True) - _AGREE, axis=1) < 2
        if not live.any():
            break
    return bases, js, None
