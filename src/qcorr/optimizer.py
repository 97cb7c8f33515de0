"""Search over complete projective measurements to attain sup J.

A qubit subsystem starts from the argmax of an exhaustive Bloch-angle
grid; higher dimensions start from seeded random draws of a Hermitian
generator. Every start is refined by compass search, and the searches run
in lockstep, so each round of their probes is one batched J evaluation.
J is evaluated on a classical-quantum ensemble of leaves (a state that no
step has measured yet is a single leaf), so later steps of a sequential run
diagonalize per-leaf blocks, not the dense state.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotAQubit, ParamOutOfRange
from .measurement import (CQEnsemble, ProjectiveMeasurement, _JEvaluator,
                          _conditional_entropy, basis_vectors,
                          measurement_from_unitary, qubit_measurement)
from .states import DensityMatrix

# Bound on the entries of one (chunk, L, dr, dr) stack of grid blocks, so the
# grid's working set stays flat as the leaves L and their dimension dr grow.
_GRID_CHUNK_ELEMENTS = 1 << 20
# First compass step on each generator parameter.
_GENERATOR_STEP = 0.3
# A compass probe moves the search only if it beats the current J by more.
_REFINE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    grid: int = 128              # the qubit grid is grid x grid Bloch angles
    restarts: int = 32           # used for subsystem dim > 2
    max_refine_steps: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not (isinstance(value, numbers.Integral)
                    and (value >= 0 if name == "seed" else value > 0)):
                raise ParamOutOfRange(f"{name} must be an integer "
                                      f"{'>= 0' if name == 'seed' else '> 0'}, got {value!r}")


@dataclass(frozen=True, eq=False)
class OptimalMeasurementResult:
    measurement: ProjectiveMeasurement
    j_value: float       # bits
    discord: float       # bits, floored at 0
    iterations: int      # J evaluations performed
    oracle_gap: float | None = None   # refined J minus grid-oracle J, when a grid exists
    params: tuple[float, ...] | None = None  # (theta, phi) for qubits, generator otherwise


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


def _bloch_conditional_entropy(half_rest: np.ndarray, half_tensor: np.ndarray,
                               dirs: np.ndarray) -> np.ndarray:
    """sum_i p_i S(rho_rest|i) for measurements along Bloch directions `dirs`.

    The two outcome blocks of the measurement along unit vector n are
    (rest +- n . T) / 2 for every leaf, with `rest` the leaf's block traced
    over subsystem k and T_j = Tr_k[(sigma_j x I) W]. The arguments hold
    rest / 2 (L x dr x dr) and T / 2 (3 x L*dr*dr).
    """
    m = (dirs @ half_tensor).reshape((-1,) + half_rest.shape)
    blocks = np.empty((2,) + m.shape, dtype=np.complex128)
    np.add(half_rest, m, out=blocks[0])
    np.subtract(half_rest, m, out=blocks[1])
    return _conditional_entropy(blocks)


def grid_search_qubit(rho: DensityMatrix, k: int,
                      n: int = 128) -> tuple[float, float, float]:
    """Best J over an n x n grid: inclusive theta, periodic phi.

    Ties within 1e-12 break to the lexicographically smallest (theta, phi).
    Only the first `_grid_rows` theta rows are evaluated (half the sphere
    when n is even).
    """
    ev = _JEvaluator(CQEnsemble.of(rho), k)
    if ev.dk != 2:
        raise NotAQubit(f"subsystem {k} has dimension {ev.dk}")
    return _grid_search(ev, n)


def _grid_search(ev: _JEvaluator, n: int) -> tuple[float, float, float]:
    """grid_search_qubit on the ensemble and qubit subsystem of `ev`."""
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
        hi = min(lo + chunk, tt.size)
        j[lo:hi] = ev.rest_entropy - _bloch_conditional_entropy(
            half_rest, half_tensor, dirs[lo:hi])
    best = int(np.flatnonzero(j >= j.max() - 1e-12)[0])
    return float(tt[best]), float(pp[best]), float(j[best])


def _canonical_qubit_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map arbitrary angles to theta in [0, pi], phi in [0, 2 pi)."""
    theta = theta % (2 * math.pi)
    if theta > math.pi:
        theta = 2 * math.pi - theta
        phi = phi + math.pi
    return theta, phi % (2 * math.pi)


@functools.lru_cache(maxsize=None)
def _generator_basis(d: int) -> np.ndarray:
    """(d*d, d*d) matrix B with (params @ B).reshape(d, d) the generator.

    Row r of B is the flattened Hermitian matrix that parameter r multiplies:
    d diagonal entries, then (re, im) pairs for each upper-triangle entry in
    row-major order.
    """
    basis = np.zeros((d * d, d, d), dtype=np.complex128)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1
    rows, cols = np.triu_indices(d, 1)
    re = d + 2 * np.arange(rows.size)
    basis[re, rows, cols] = basis[re, cols, rows] = 1
    basis[re + 1, rows, cols], basis[re + 1, cols, rows] = 1j, -1j
    basis = basis.reshape(d * d, d * d)
    basis.flags.writeable = False
    return basis


def _unitaries(params: np.ndarray, d: int) -> np.ndarray:
    """exp(i H) for the generator H of every row of `params` (n x d^2).

    Layout of a row: d diagonal entries of H, then (re, im) pairs for each
    upper-triangle entry in row-major order.
    """
    w, v = np.linalg.eigh((params @ _generator_basis(d)).reshape(-1, d, d))
    return (v * np.exp(1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _bases(probes: np.ndarray, d: int) -> np.ndarray:
    """Bases (vectors as rows) at compass points.

    A qubit's points are Bloch angles (theta, phi); a qudit's are the d^2
    parameters of a Hermitian generator.
    """
    if d == 2:
        return np.array([basis_vectors(*_canonical_qubit_angles(*p)) for p in probes])
    return _unitaries(probes, d).transpose(0, 2, 1)


def _compass_search(start, step0: float, config: OptimizerConfig):
    """Derivative-free ascent: axis-aligned probes with shrinking step.

    A coroutine: it yields each probe point and is sent back its J. It
    returns (params, value, evaluations) and never returns a value below
    the starting one. `_lockstep` drives it.
    """
    x = np.asarray(start, dtype=float).copy()
    best = yield x
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
                val = yield cand
                evals += 1
                if val > best + _REFINE_TOLERANCE:
                    x, best = cand, val
                    moved = True
        if not moved:
            step /= 2
    return x, best, evals


def _lockstep(searches, fun) -> list:
    """Advance compass searches together; one `fun` call per round of probes.

    `fun` maps the list of pending probe points of the live searches to
    their J values. Each search sees only its own values, so it takes the
    same path it takes alone. Returns every search's (params, value,
    evaluations), in the order of `searches`.
    """
    results = [None] * len(searches)
    live = [(i, search, next(search)) for i, search in enumerate(searches)]
    while live:
        values = fun([probe for _, _, probe in live])
        pending = []
        for (i, search, _), value in zip(live, values):
            try:
                pending.append((i, search, search.send(value)))
            except StopIteration as done:
                results[i] = done.value
        live = pending
    return results


def _refine(ev: _JEvaluator, starts: np.ndarray, step0: float,
            config: OptimizerConfig) -> list:
    """Compass search from every row of `starts`, all in lockstep.

    Each round maps the live searches' probes to bases and evaluates them in
    one `j_bases` call. Returns every search's (params, value, evaluations).
    """
    return _lockstep([_compass_search(s, step0, config) for s in starts],
                     lambda probes: ev.j_bases(_bases(np.asarray(probes), ev.dk)))


def optimize_measurement(rho: DensityMatrix, k: int,
                         config: OptimizerConfig = OptimizerConfig()) -> OptimalMeasurementResult:
    """Measurement attaining sup J on subsystem k; discord = I - J, floored at 0.

    For dimension > 2 the seeded restarts run in lockstep: each round of
    compass probes, one per live restart, is one batched J evaluation.
    """
    return _optimize(CQEnsemble.of(rho), k, config)


def _optimize(ens: CQEnsemble, k: int,
              config: OptimizerConfig) -> OptimalMeasurementResult:
    """optimize_measurement on unmeasured subsystem k of a cq ensemble.

    The starts are the grid argmax on a qubit and seeded generator draws
    otherwise; the best refined start wins, the first of any tie.
    """
    info = ens.mutual_information()
    ev = _JEvaluator(ens, k)
    d = ev.dk
    if d == 2:
        theta, phi, j_grid = _grid_search(ev, config.grid)
        starts, step0 = np.array([[theta, phi]]), 2 * math.pi / config.grid
    else:
        starts = np.random.default_rng(config.seed).uniform(
            -math.pi, math.pi, (config.restarts, d * d))
        step0 = _GENERATOR_STEP
    runs = _refine(ev, starts, step0, config)
    best, j = None, -math.inf
    for params, val, _ in runs:
        if val > j + 1e-12:
            best, j = params, val
    j = float(j)
    params = tuple(float(x) for x in best)
    iterations = sum(evals for _, _, evals in runs)
    if d == 2:
        params = _canonical_qubit_angles(*params)
        m = qubit_measurement(*params)
        iterations += _grid_rows(config.grid) * config.grid
        gap = j - j_grid
    else:
        m = measurement_from_unitary(_unitaries(best[None], d)[0])
        gap = None
    discord = info - j
    if discord < 0.0:
        discord = 0.0
    return OptimalMeasurementResult(m, j, float(discord), iterations, gap, params)
