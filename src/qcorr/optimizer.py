"""Search over complete projective measurements to attain sup J.

A measurement is an orthonormal basis, and one search serves every
dimension: Riemannian ascent on the unitary group (Abrudan, Eriksson &
Koivunen, IEEE TSP 56(3):1134, 2008), its directions taken in the fixed
left frame. A qubit starts from the argmax of a coarse Bloch-angle grid,
57 directions of the upper hemisphere with the equator, a higher
dimension from seeded Haar-random bases. Where the outcome blocks exceed
2 x 2 and go through LAPACK, the qubit grid is evaluated coarse to fine:
its 25 directions on every other theta row, then only the directions of
the rows between them near the best few of those 25. Every round of
every search takes a saddle-free Newton step (Dauphin et al., NeurIPS
2014) in the d(d-1) generators that mix outcomes (Absil, Mahony &
Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch. 6): the
Hessian's eigenvalues enter by their magnitude, so the step ascends at
saddles too, and it turns by at most pi/4. The Hessian comes from forward
differences of the analytic gradient, so a round evaluates 1 + d(d-1)
gradients in one batched call. A search ends where
its model predicts no further gain, on its t = 1 trial, the only trial of
that round it evaluates; when a retry in the same round along the
gradient gains nothing either; at the round cap; or where its J is
within `_TIE` of its problem's mutual information I, checked before its
first round and after every round. No basis gives a J above I, and one
at I loses no correlation: the step's discord is zero, as where the
state is classical on the measured side (Ollivier & Zurek, PRL 88:017901,
2001), so such a search has reached the maximum and evaluates nothing
more; a qubit grid argmax at I is not ascended, nor, at blocks above
2 x 2, is a coarse grid argmax at I refined. A basis at I leaves the
state unchanged, so it diagonalizes the measured marginal rho_k: a qudit
search first evaluates rho_k's eigenbasis, and where that is at I it is
the result after one evaluation. Where rho_k's spectrum is degenerate the
classical basis may be any basis of the eigenspace and the check can
miss; the search then ascends its starts as it would without it. A round
keeps its highest-J trial, and one tolerance, `_TIE`, settles every
comparison of two J: whether a trial gains, whether a start is above the
best, which of the tied best wins, and whether a J has reached I. A pure state's
first step, where every basis gives the same J, is not searched. The
starts ascend in lockstep, so each round is one batched gradient call and
one batched J evaluation of its line search (and one of its retries); a
qudit's starts do so in waves of `_WAVE`, and after every round in which
a start ends the search stops as soon as one ended start is at I, or
once two ended starts agree on the best J and no ascending start is
above it by more than `_TIE`. One call may search several problems, a
subsystem of an ensemble each: those of one subsystem
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
dimension. The kernel also bounds its own working set: it evaluates any
stack of bases, a grid, a ladder or a wave, in chunks whose half blocks,
d_k times their outcome blocks, hold at most 2^20 entries
(measurement._CHUNK_ELEMENTS), so no search here sizes its stacks.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotAQubit, ParamOutOfRange
from .linalg import is_integer
from .measurement import (CQEnsemble, ProjectiveMeasurement, _JEvaluator, _view,
                          basis_vectors)
from .states import DensityMatrix

# A qubit search ascends from the best of the 57 Bloch directions that
# `_grid_points` keeps of this grid: 9 theta rows spanning [0, pi] by 16 phi
# columns spanning [0, 2 pi), which leaves the 5 rows of [0, pi/2], the pole
# counted once and the equator's antipodal half dropped. The rows space theta
# by pi/8, as the 16 columns space the equator's phi; coarser grids such as
# 5 x 16 or 9 x 12 let some searches need a sixth round.
_START_GRID = (9, 16)
# Where outcome blocks take LAPACK, the start grid is evaluated coarse to
# fine: first the 25 points of its even theta rows, then those of its odd
# rows within _FINE_RADIUS (rad) of any of the _FINE_AROUND best coarse
# directions or their antipodes. Around one coarse direction that is 16
# points at the pole, 8 at theta = pi/4 and 6 on the equator.
_FINE_RADIUS = 0.6
_FINE_AROUND = 4
# Ascent rounds per start, each a Newton ladder and at most one retry ladder.
_MAX_ROUNDS = 500
# Qudit starts ascended together. Checked after every round, a search stops
# once two ended starts are within _AGREE (bits) of the best J among its
# ended starts and no ascending start is above it by more than _TIE, or the
# restarts run out.
_WAVE = 4
_AGREE = 1e-9
# Most restarts a config takes: a qudit search draws all its seeded Haar
# bases, and their QR, before its first wave, however early the waves stop.
MAX_RESTARTS = 10_000
# Trial steps of an ascent round, as multiples of its direction.
_LADDER = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 1 / 16])
_UNIT_TRIAL = 2  # the index of t = 1 in _LADDER
# J values (bits) within this of each other are tied: a trial gains only by
# more than this, a start is above the best only by more than this, and the
# first of the J within this of the best wins.
_TIE = 1e-12
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

    `restarts` (1..MAX_RESTARTS) caps the seeded Haar starts of a subsystem
    of dimension above 2, ascended in waves of 4 until one ended start
    reaches the mutual information I, the maximum, or two ended starts agree
    on the best J, a rule checked after every round; `seed` (>= 0) seeds
    their draw. Such a search first evaluates its marginal's eigenbasis,
    and where that is at I, as on a state classical on the measured side
    with a nondegenerate marginal, it ascends no start. A qubit search
    uses neither.
    """
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not (is_integer(value) and (value >= 0 if name == "seed" else value > 0)):
                raise ParamOutOfRange(f"{name} must be an integer "
                                      f"{'>= 0' if name == 'seed' else '> 0'}, got {value!r}")
        if self.restarts > MAX_RESTARTS:
            raise ParamOutOfRange(f"restarts must be at most {MAX_RESTARTS}, "
                                  f"got {self.restarts!r}")


@dataclass(frozen=True, eq=False)
class OptimalMeasurementResult:
    """The measurement a search found on one subsystem, and how it found it.

    A qubit search with outcome blocks above 2 x 2 evaluates its start grid
    coarse to fine (`_qubit_searches`), so its `iterations` count only the
    grid directions it evaluated, and its `oracle_gap` is taken from the
    best of those, which is the best of all 57 unless a sharp maximum lies
    off the coarse rows and away from the best coarse directions.
    """
    measurement: ProjectiveMeasurement
    j_value: float       # bits
    discord: float       # bits, floored at 0
    iterations: int      # bases the J kernel evaluated, `_JEvaluator.evaluated`; 0 for constant J
    oracle_gap: float | None = None   # qubit: ascended J minus the start grid's best evaluated J
    params: tuple[float, float] | None = None  # (theta, phi) for qubits, else None


def grid_search_qubit(rho: DensityMatrix, k: int,
                      n: int = 128) -> tuple[float, float, float]:
    """Best J over an n x n grid: inclusive theta, periodic phi.

    Ties within `_TIE` break to the lexicographically smallest (theta, phi).
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
    j = ev.j_bases(bases, np.zeros(len(bases), dtype=int))
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


@functools.cache
def _coarse_to_fine(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The coarse stage of the rows x cols start grid, and the fine points near each point.

    Returns the indices into `_start_points(rows, cols)` of the points on
    even theta rows, and a mask `near` over pairs of points: `near[i]` marks
    the points on odd rows within `_FINE_RADIUS` of point i's Bloch
    direction or of its antipode, and is empty where point i is on an odd
    row. Of the 9 x 16 start grid that is the 25 points of theta = 0,
    pi/4, pi/2, and around one of them 16, 8 or 6 of the 32 others. Both
    are built once and read-only.
    """
    theta, phi = _start_points(rows, cols)[0].T
    odd = np.rint(theta * (rows - 1) / math.pi) % 2 == 1
    u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
                 axis=1)
    near = (np.abs(u @ u.T) >= math.cos(_FINE_RADIUS)) & odd & ~odd[:, None]
    coarse = np.flatnonzero(~odd)
    for a in (coarse, near):
        a.flags.writeable = False
    return coarse, near


def _first_best(j: np.ndarray) -> np.ndarray:
    """Index of the first J within `_TIE` of the best, along the last axis: the one tie rule."""
    return (j >= j.max(axis=-1, keepdims=True) - _TIE).argmax(axis=-1)


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


@functools.lru_cache(maxsize=1)
def _haar_starts(d: int, restarts: int, seed: int) -> np.ndarray:
    """The `restarts` seeded `_haar_bases` of C^d, read-only, drawn once for the last key.

    One table stays allocated, the size of the one draw a search makes.
    """
    bases = _haar_bases(np.random.default_rng(seed), restarts, d)
    bases.flags.writeable = False
    return bases


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


def _directions(ev: _JEvaluator, v: np.ndarray, on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients X of the bases v and their saddle-free Newton directions D.

    Both are in the fixed left frame, where a basis V moves to exp(t D) V:
    J's slope along D is <X, D>, with X = G V^dagger - V G^dagger for
    G = dJ/d conj(V). In the coordinates s of sum_p s_p E_p over the
    `_generators`, the gradient is g_p = <E_p, X> / 2, and the Hessian H
    comes from forward differences of g along exp(h E_q) V: d(d-1) more
    gradients in the same call, each basis followed by its turns, so the
    rows keep the order of `on`, each basis's problem in `ev`. D has
    s = -H'^{-1} g, where H' is H with each eigenvalue lambda_i taken as
    -max(|lambda_i|, `_FLAT_CURVATURE` max |lambda|): the Newton step where
    H is negative definite, and an ascent direction everywhere (Dauphin et
    al., NeurIPS 2014). A rank-deficient marginal of the measured subsystem
    makes some directions exactly flat, which the floor keeps finite. s is
    scaled down to at most `_MAX_TURN`, half the pi/2 turn along one
    generator that swaps two outcomes.
    """
    m, dk = len(v), v.shape[-1]
    gens, turns = _generators(dk)
    v = np.concatenate([v[:, None], turns @ v[:, None]], axis=1).reshape(-1, dk, dk)
    x = ev.gradient(v, on.repeat(1 + len(gens))) @ v.conj().swapaxes(-1, -2)
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


def _climb(ev: _JEvaluator, v: np.ndarray, d: np.ndarray, j: np.ndarray,
           on: np.ndarray, ending: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trial each basis V keeps of its ladder exp(t D) V, its J, and whether it gained.

    The `_LADDER` trials are one `j_bases` call; `on` holds each basis's
    problem in `ev`, and `j` its J. Each basis keeps its highest-J trial,
    which gained if it beats `j` by more than `_TIE`. A basis marked
    `ending` evaluates only its t = 1 trial, the others reading -inf, so it
    keeps that trial.
    """
    trials = _rotations(d, _LADDER[None]) @ v[:, None]
    if ending.any():
        keep = ~ending[:, None] | (np.arange(_LADDER.size) == _UNIT_TRIAL)
        values = np.full(keep.shape, -np.inf)
        values[keep] = ev.j_bases(trials[keep], np.broadcast_to(on[:, None], keep.shape)[keep])
    else:
        values = ev.j_bases(trials.reshape((-1,) + v.shape[1:]),
                            on.repeat(_LADDER.size)).reshape(trials.shape[:2])
    rows, pick = np.arange(len(v)), values.argmax(axis=1)
    return trials[rows, pick], values[rows, pick], values[rows, pick] - j > _TIE


def _ascend(ev: _JEvaluator, bases: np.ndarray, j: np.ndarray, on: np.ndarray,
            settle=None) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian ascent of J from every basis of the stack, all in lockstep.

    A round takes the gradient X and the saddle-free Newton direction D of
    every live basis V (vectors as rows) from one `_directions` call, and
    climbs the ladder of trials exp(t D) V (`_climb`), keeping its
    highest-J trial if that beats the basis's J by more than `_TIE`. Where
    the model's predicted gain <X, D> / 2 is at most `_MODEL_FLOOR`, the
    search ends on its t = 1 trial, whatever that trial gains, so that
    trial is the only one of the round it evaluates. A round in which every
    live search ends rotates and evaluates only those trials and stops; one
    in which some end masks their other trials out of the ladder's
    `j_bases` stack, and one in which none ends evaluates every ladder. A
    search whose ladder gains no more than `_TIE` climbs a second ladder in
    the same round, from the same point along its X, whose trials turn by
    the `_LADDER` multiples of its shortest trial's turn, so a ridge
    narrower than the model's step is still climbed; a failed retry ends
    the search, as do `_MAX_ROUNDS` rounds. A search carries only its basis
    and J from round to round, so the lockstep run equals the starts
    ascended one by one. `j` holds the starts' J, and `on` each start's
    problem in `ev`, problem 0's first.
    Before the first round and after every round, a search whose J is
    within `_TIE` of its problem's `mutual_info` I ends where it is: as
    J <= I, it has reached the maximum. Each row's ceiling, I less `_TIE`,
    is taken once, so the rule costs a round one comparison. Whenever a
    search ends, `settle(j, live)`, if given, is told every basis's J and
    which are still live, and returns which of those to stop: they end at
    J = -inf. Returns the final bases and their J; `ev.evaluated` counts
    the bases evaluated.
    """
    bases, j = bases.copy(), np.array(j, dtype=float)
    ceiling = ev.mutual_info[on] - _TIE
    live = going = np.arange(len(bases))
    # pass r ends what round r - 1 left at its ceiling, then takes round r;
    # the pass after the round cap only ends
    for rounds in range(1, _MAX_ROUNDS + 2):
        going = going[j[going] < ceiling[going]]
        if settle is not None and going.size < live.size:
            stop = settle(j, going)
            j[going[stop]] = -np.inf
            going = going[~stop]
        live = going
        if live.size == 0:
            break
        v, v_on = bases[live], on[live]
        x, d = _directions(ev, v, v_on)
        done = _inner(x, d) / 2 <= _MODEL_FLOOR
        if done.all():
            # the last round: every live search ends on its t = 1 trial alone
            unit = _rotations(d, _LADDER[None, _UNIT_TRIAL:_UNIT_TRIAL + 1]) @ v[:, None]
            bases[live] = unit[:, 0]
            j[live] = ev.j_bases(unit[:, 0], v_on)
            going = live[:0]
        else:
            found, values, moved = _climb(ev, v, d, j[live], v_on, done)
            fail = ~(moved | done)
            if fail.any():
                # the retry's D is X scaled to the turn of the shortest trial,
                # |s| / 16: |D| = sqrt(2) |s| and |X| = sqrt(2) |g|
                back = x[fail]
                turn = _LADDER[-1] * np.sqrt(_inner(d[fail], d[fail]) / 2)
                back *= (turn / np.sqrt(_inner(back, back) / 2))[:, None, None]
                found[fail], values[fail], moved[fail] = _climb(
                    ev, v[fail], back, j[live[fail]], v_on[fail], done[fail])
            took = moved | done
            bases[live[took]], j[live[took]] = found[took], values[took]
            # the round cap ends every search still live
            going = live[moved & ~done] if rounds < _MAX_ROUNDS else live[:0]
    return bases, j


def optimize_measurement(rho: DensityMatrix, k: int,
                         config: OptimizerConfig = OptimizerConfig()) -> OptimalMeasurementResult:
    """Measurement attaining sup J on subsystem k; discord = I - J, floored at 0."""
    return _optimize([(CQEnsemble.of(rho), k)], config)[0]


def _optimize(problems: list[tuple[CQEnsemble, int]],
              config: OptimizerConfig) -> list[OptimalMeasurementResult]:
    """optimize_measurement on unmeasured subsystem k of a cq ensemble, for each (ensemble, k).

    The problems whose views share a shape ascend in one lockstep,
    each start keeping its own problem, so every result is that of its
    problem searched alone. A qubit problem starts from its own
    `_START_GRID` argmax (its J taken from the grid, so `oracle_gap` >= 0),
    a qudit problem from the seeded Haar bases, unless its marginal's
    eigenbasis, evaluated first, is at I (`_qudit_searches`). Those ascend
    in waves of `_WAVE` consecutive starts of the one draw; after every
    round in which a start ends, a problem whose ended starts settle it
    (`_settled`) stops its ascending starts and begins no further wave. The best ended start
    wins by the grids' tie rule (`_first_best`). Each problem's mutual
    information I, which its evaluator carries, gives its discord, I - J,
    and ends every search of it that reaches I: a qubit grid argmax at I is
    the result, with `oracle_gap` 0 and the grid's evaluations alone.
    A problem of shape (d_k, 1, 1, 1), one leaf of 1 x 1 blocks, has J =
    `rest_entropy` for every basis (a pure state's first step), so it is not
    searched: it takes the first start, which every search of it returns.
    Each group is one evaluator of its problems' views, and a result's
    `iterations` is that evaluator's count of its problem's bases
    (`_JEvaluator.evaluated`).
    """
    views = [_view(ens, k) for ens, k in problems]
    groups = {}
    for p, (view, *_) in enumerate(views):
        groups.setdefault(view.shape, []).append(p)
    results = [None] * len(problems)
    for members in groups.values():
        ev = _JEvaluator(*zip(*(views[p] for p in members)))
        search = (_constant_searches if ev.shape[1:] == (1, 1, 1)
                  else _qubit_searches if ev.dk == 2 else _qudit_searches)
        bases, js, j_grid = search(ev, config)
        for i, (p, best) in enumerate(zip(members, _first_best(js))):
            j = float(js[i, best])
            params, gap = (None, None) if j_grid is None else (_bloch_angles(bases[i, best]),
                                                               j - float(j_grid[i]))
            discord = max(float(ev.mutual_info[i]) - j, 0.0)
            results[p] = OptimalMeasurementResult(ProjectiveMeasurement(bases[i, best]), j,
                                                  discord, ev.evaluated[i], gap, params)
    return results


def _starts(dk: int, config: OptimizerConfig) -> np.ndarray:
    """The start bases of a search on a subsystem of dimension dk, in tie-rule order.

    A qubit's are the `_START_GRID` directions, the pole first; a higher
    dimension's the `restarts` seeded Haar bases.
    """
    if dk == 2:
        return _start_points(*_START_GRID)[1]
    return _haar_starts(dk, config.restarts, config.seed)


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
    """(bases, J, the start grid's J) of each qubit problem of `ev`, ascended from its grid.

    Where the outcome blocks take closed forms (`_JEvaluator.closed_form`),
    one `j_bases` call evaluates every problem's 57 start directions: a
    direction then costs little next to the call. Larger blocks go through
    LAPACK, where each direction costs two `eigvalsh` calls, and the grid
    is evaluated coarse to fine (`_coarse_to_fine`): one call evaluates the
    25 directions of the even theta rows of every problem, and a second
    only the odd-row directions within `_FINE_RADIUS` of one of each
    problem's `_FINE_AROUND` best coarse directions (ties in grid order) or
    its antipode, except where the coarse best is within `_TIE` of the
    problem's I: it is then the maximum, and the result after 25
    evaluations. Unevaluated directions read -inf. Each problem ascends
    from the best evaluated direction, picked by the tie rule in grid order
    (`_first_best`), whose J is the start grid's J.
    """
    grid, problems = _starts(2, config), np.arange(len(ev.rest_entropy))
    if ev.closed_form:
        j = ev.j_bases(np.tile(grid, (problems.size, 1, 1)),
                       problems.repeat(len(grid))).reshape(problems.size, -1)
    else:
        coarse, near = _coarse_to_fine(*_START_GRID)
        j = np.full((problems.size, len(grid)), -np.inf)
        j[:, coarse] = ev.j_bases(np.tile(grid[coarse], (problems.size, 1, 1)),
                                  problems.repeat(coarse.size)).reshape(problems.size, -1)
        ranked = coarse[np.argsort(-j[:, coarse], axis=1, kind='stable')[:, :_FINE_AROUND]]
        fine = near[ranked].any(axis=1) & (j.max(axis=1) < ev.mutual_info - _TIE)[:, None]
        on, points = np.nonzero(fine)
        if on.size:
            j[on, points] = ev.j_bases(grid[points], on)
    best = _first_best(j)
    j_grid = j[problems, best]
    bases, js = _ascend(ev, grid[best], j_grid, problems)
    return bases[:, None], js[:, None], j_grid


def _settled(js: np.ndarray, ascending: np.ndarray, ceiling: np.ndarray) -> np.ndarray:
    """Whether each problem's qudit search may stop, from its starts' J, as (P,): the wave rule.

    `js` holds the J of each problem's starts, -inf where a start has not
    begun, and `ascending` marks the starts still ascending; the rest with a
    finite J have ended. `ceiling` is each problem's I less `_TIE`. A
    problem settles as soon as one of its ended starts is at its ceiling,
    the maximum, as J <= I; otherwise once two of its ended starts are
    within `_AGREE` of the best J among them, and none of its ascending
    starts is above that best by more than `_TIE`, so rounding noise does
    not keep it ascending. As an ascending start's J only rises, the
    rule can only come to hold in a round in which a start ends. A problem
    whose marginal eigenbasis is at I holds it as its ended start 0, so it
    stays settled.
    """
    ended = ~ascending & (js > -np.inf)
    best = np.where(ended, js, -np.inf).max(axis=1, keepdims=True)
    agree = np.count_nonzero(ended & (js >= best - _AGREE), axis=1) >= 2
    return (best[:, 0] >= ceiling) | (agree & ~(ascending & (js > best + _TIE)).any(axis=1))


def _qudit_searches(ev: _JEvaluator, config: OptimizerConfig) -> tuple:
    """(bases, J, None) of each qudit problem of `ev` over its starts, ascended in waves.

    First, one `j_bases` call evaluates every problem's marginal
    eigenbasis, the eigenvectors of its rho_k (`_JEvaluator.marginals`). A
    step has zero discord exactly when some basis leaves the state
    unchanged, and that basis diagonalizes rho_k (Ollivier & Zurek, PRL
    88:017901, 2001), so where rho_k's spectrum is nondegenerate it is the
    only basis that can reach I. A problem whose eigenbasis is within
    `_TIE` of its I is settled: that basis is its start 0, the others
    read -inf, and it begins no wave. Where every problem is settled, no
    start is drawn and the eigenbasis is each problem's one start. Where
    rho_k is degenerate the classical basis may be any basis of the
    eigenspace, so the check can miss; such a problem, as every other,
    then ascends its starts as it would without the check, the one
    evaluation added to its count.
    Every problem draws the same seeded starts, so they are drawn once; the
    live problems' waves of `_WAVE` consecutive starts ascend together.
    After every round in which a start ends, a problem that `_settled`
    stops its ascending starts and begins no further wave: one whose start
    reaches its I, even before the first round, settles then. J is -inf at
    starts not ascended, those stopped included.
    """
    n_problems = len(ev.rest_entropy)
    ceiling = ev.mutual_info - _TIE
    eigen = np.linalg.eigh(ev.marginals())[1].swapaxes(-1, -2)  # eigenvectors as rows
    j_eigen = ev.j_bases(eigen, np.arange(n_problems))
    settled = j_eigen >= ceiling
    if settled.all():
        return eigen[:, None], j_eigen[:, None], None
    starts = _starts(ev.dk, config)
    bases = np.broadcast_to(starts, (n_problems,) + starts.shape).copy()
    js = np.full(bases.shape[:2], -np.inf)
    bases[settled, 0], js[settled, 0] = eigen[settled], j_eigen[settled]
    for lo in range(0, len(starts), _WAVE):
        n = len(starts[lo:lo + _WAVE])
        on = np.flatnonzero(~settled).repeat(n)
        rows = on, lo + np.arange(on.size) % n  # each row's (problem, start)

        def settle(j, live):
            js[rows] = j
            ascending = np.zeros(js.shape, dtype=bool)
            ascending[on[live], rows[1][live]] = True
            settled[:] = _settled(js, ascending, ceiling)
            return settled[on[live]]

        found, j = _ascend(ev, bases[rows], ev.j_bases(bases[rows], on), on, settle)
        bases[rows], js[rows] = found, j
        if settled.all():
            break
    return bases, js, None
