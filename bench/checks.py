"""Independent checks of qcorr's outputs, in plain numpy.

Nothing here imports qcorr. Every quantity is recomputed from the input
density matrix and from the measurements the program returned: J through
the non-selective channel, the outcome table through the Born rule, and
the closed forms from the state's own entries. A check returns a list of
messages, one per failed property; an empty list means the output passed.

Subsystem 0 is the leftmost tensor factor, as in the program.
"""
from __future__ import annotations

import math
import string

import numpy as np

# Quantities the program and these checks compute by the same mathematics,
# along different routes: they agree to rounding.
EXACT_TOL = 1e-8
# Closed forms and the paper's values, which the program reaches by a
# numerical search over measurements.
CLOSED_TOL = 1e-6
# How far a random measurement may beat the returned optimum before the
# optimum counts as missed.
SAMPLE_TOL = 1e-8
SAMPLES_PER_STEP = 24
# The search for a qubit's best measurement: a grid of Bloch vectors over
# polar x azimuthal angles, then, around each of the best ZOOM_STARTS grid
# points, ZOOM_LEVELS local grids of ZOOM_POINTS^2 directions, each centred
# on the last one's best and ZOOM_SHRINK times as wide. The last grid is
# about 1e-8 rad wide, so J is found to far better than CLOSED_TOL.
SPHERE_GRID = (64, 128)
ZOOM_STARTS = 4
ZOOM_POINTS = 9
ZOOM_LEVELS = 14
ZOOM_SHRINK = 0.35

PAPER_STEP_DISCORDS = (0.600876, 0.201752)

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


# ------------------------------------------------------------ plain numerics

def entropy_bits(m: np.ndarray) -> float:
    """Von Neumann entropy in bits of a Hermitian PSD matrix."""
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def shannon_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 1e-12]
    return float(-(p * np.log2(p)).sum())


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced matrix on the subsystems in `keep` (kept in ascending order)."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    letters = iter(string.ascii_letters)
    rows = [next(letters) for _ in range(n)]
    cols = [next(letters) if k in keep else rows[k] for k in range(n)]
    spec = "".join(rows + cols) + "->" + "".join(
        [rows[k] for k in keep] + [cols[k] for k in keep])
    d = int(np.prod([dims[k] for k in keep]))
    return np.einsum(spec, m.reshape(dims + dims)).reshape(d, d)


def mutual_info(m: np.ndarray, dims) -> float:
    """Total correlation: sum of marginal entropies minus the joint entropy."""
    return (sum(entropy_bits(partial_trace(m, dims, [k])) for k in range(len(dims)))
            - entropy_bits(m))


def dephase(m: np.ndarray, dims, k: int, projs: np.ndarray) -> np.ndarray:
    """Non-selective measurement sum_i P_i rho P_i with P_i acting on subsystem k."""
    dims = list(dims)
    n = len(dims)
    t = np.moveaxis(m.reshape(dims + dims), (k, n + k), (0, 1))
    shape = t.shape
    t = t.reshape(dims[k], dims[k], -1)
    out = np.einsum("iab,bcx,icd->adx", projs, t, projs)
    out = np.moveaxis(out.reshape(shape), (0, 1), (k, n + k))
    return out.reshape(m.shape)


def j_value(m: np.ndarray, dims, k: int, projs: np.ndarray) -> float:
    """Measurement-induced J: the total correlation left after measuring k."""
    return mutual_info(dephase(m, dims, k, projs), dims)


def born_table(m: np.ndarray, dims, projs_by_subsystem) -> np.ndarray:
    """p[i_0, ..., i_n-1] = Tr[(P_i0 x ... x P_in-1) rho], one axis per subsystem."""
    dims = list(dims)
    n = len(dims)
    t = m.reshape(dims + dims)
    # at step k the tensor is (outcomes k-1..0, rows k.., cols k..): row k
    # sits at axis k and column k at axis n
    for k in range(n):
        t = np.tensordot(projs_by_subsystem[k], t, axes=([1, 2], [n, k]))
    return t.transpose(tuple(range(n - 1, -1, -1))).real


def projectors(basis: np.ndarray) -> np.ndarray:
    """Rank-1 projectors onto the rows of `basis`."""
    return np.einsum("ia,ib->iab", basis, basis.conj())


def basis_from_projectors(projs) -> tuple[np.ndarray, list[str]]:
    """Unit vectors spanning each rank-1 projector, and what is wrong with them."""
    projs = np.asarray(projs, dtype=complex)
    d = projs.shape[-1]
    rows = []
    for p in projs:
        col = p[:, int(np.argmax(np.linalg.norm(p, axis=0)))]
        rows.append(col / np.linalg.norm(col))
    basis = np.array(rows)
    problems = []
    if projs.shape != (d, d, d):
        problems.append(f"{projs.shape[0]} projectors on a {d}-dim subsystem")
    elif np.abs(basis.conj() @ basis.T - np.eye(d)).max() > EXACT_TOL:
        problems.append("measurement vectors are not orthonormal")
    elif np.abs(projectors(basis) - projs).max() > EXACT_TOL:
        problems.append("projectors are not rank-1 projectors onto their range")
    return basis, problems


def _entropies_bits(w: np.ndarray) -> np.ndarray:
    """Entropies in bits of the distributions along the last axis."""
    w = np.where(w > 1e-12, w, 1.0)
    return -(w * np.log2(w)).sum(axis=-1)


def j_values_qubit(m: np.ndarray, dims, k: int, bloch: np.ndarray) -> np.ndarray:
    """J for measuring qubit k along each unit Bloch vector in `bloch` (N, 3).

    Measuring k leaves the other marginals as they are, so only the joint
    entropy and the outcome distribution on k change with the direction.
    """
    dims = list(dims)
    n = len(dims)
    sigma = np.einsum("zj,jab->zab", bloch, np.array(PAULI))
    projs = np.stack([np.eye(2) + sigma, np.eye(2) - sigma], axis=1) / 2
    t = np.moveaxis(m.reshape(dims + dims), (k, n + k), (0, 1))
    shape = t.shape
    out = np.einsum("ziab,bcx,zicd->zadx", projs, t.reshape(2, 2, -1), projs)
    out = np.moveaxis(out.reshape((len(bloch),) + shape), (1, 2), (k + 1, n + k + 1))
    joint = _entropies_bits(np.linalg.eigvalsh(out.reshape(len(bloch), *m.shape)))
    outcomes = np.einsum("ziab,ba->zi", projs, partial_trace(m, dims, [k])).real
    rest = sum(entropy_bits(partial_trace(m, dims, [j])) for j in range(n) if j != k)
    return rest + _entropies_bits(outcomes) - joint


def best_qubit_j(m: np.ndarray, dims, k: int) -> float:
    """The largest J over projective measurements of qubit k (see SPHERE_GRID)."""
    theta, phi = np.meshgrid(np.linspace(0, np.pi, SPHERE_GRID[0]),
                             np.linspace(0, 2 * np.pi, SPHERE_GRID[1], endpoint=False),
                             indexing="ij")
    theta, phi = theta.ravel(), phi.ravel()
    grid = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=1)
    j = j_values_qubit(m, dims, k, grid)
    best = float(j.max())
    offsets = np.linspace(-1, 1, ZOOM_POINTS)
    a, b = (x.ravel()[:, None] for x in np.meshgrid(offsets, offsets))
    for centre in grid[np.argsort(j)[-ZOOM_STARTS:]]:
        width = np.pi / SPHERE_GRID[0]
        for _ in range(ZOOM_LEVELS):
            e1 = np.cross(centre, [1.0, 0, 0] if abs(centre[0]) < 0.9 else [0, 1.0, 0])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(centre, e1)
            local = centre + width * (a * e1 + b * e2)
            local /= np.linalg.norm(local, axis=1, keepdims=True)
            j_local = j_values_qubit(m, dims, k, local)
            centre = local[np.argmax(j_local)]
            best = max(best, float(j_local.max()))
            width *= ZOOM_SHRINK
    return best


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_correlations(m: np.ndarray) -> np.ndarray:
    """c_j = Tr[rho sigma_j x sigma_j] for a two-qubit state."""
    return np.array([np.trace(m @ np.kron(s, s)).real for s in PAULI])


def luo_bell_diagonal(c) -> tuple[float, float]:
    """Discord and classical correlation of a Bell-diagonal state (Luo 2008).

    rho = (I + sum_j c_j sigma_j x sigma_j) / 4 has
    C = [(1 - c) log(1 - c) + (1 + c) log(1 + c)] / 2 with c = max |c_j|,
    and D = I - C.
    """
    c1, c2, c3 = c
    lam = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3,
                    1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4
    info = 2.0 - shannon_bits(lam)
    cmax = float(np.max(np.abs(c)))
    classical = sum(x * math.log2(x) for x in (1 - cmax, 1 + cmax) if x > 0) / 2
    return info - classical, classical


# ------------------------------------------------------------------- checks

def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{name} = {got!r}, expected {want!r} within {tol:.0e}"]
    return []


def check_sequential(m: np.ndarray, dims, seq: dict, kind: str,
                     rng: np.random.Generator) -> list[str]:
    """Check a sequential Q/C result against the input state `m`.

    `seq` holds plain data: order, step_discords, step_projectors, q, c,
    info and table (the joint outcome probabilities, one axis per subsystem).
    `kind` names the closed form that applies: paper, pure, bell_diagonal,
    cq (classical on subsystem 0), ghz or generic.
    """
    dims = tuple(dims)
    n = len(dims)
    fails = []
    info = mutual_info(m, dims)
    fails += _close("I", seq["info"], info, EXACT_TOL)
    steps = list(seq["step_discords"])
    if tuple(seq["order"]) != tuple(range(n)) or len(steps) != n:
        return fails + [f"order {seq['order']} with {len(steps)} steps for {n} subsystems"]

    current = m
    by_subsystem = {}
    for t, k in enumerate(seq["order"]):
        basis, problems = basis_from_projectors(seq["step_projectors"][t])
        if problems:
            fails += [f"step {t}: {p}" for p in problems]
            return fails
        projs = projectors(basis)
        by_subsystem[k] = projs
        info_t = mutual_info(current, dims)
        j_t = j_value(current, dims, k, projs)
        fails += _close(f"step {t} discord vs I - J from its basis",
                        steps[t], max(info_t - j_t, 0.0), EXACT_TOL)
        if steps[t] < 0:
            fails.append(f"step {t} discord {steps[t]!r} is negative")
        best_sampled = max(j_value(current, dims, k, projectors(haar_unitary(dims[k], rng).T))
                           for _ in range(SAMPLES_PER_STEP))
        if best_sampled > j_t + SAMPLE_TOL:
            fails.append(f"step {t}: a random measurement gives J = {best_sampled!r}"
                         f" > returned {j_t!r}")
        current = dephase(current, dims, k, projs)

    q, c = seq["q"], seq["c"]
    fails += _close("Q vs sum of step discords", q, float(sum(steps)), EXACT_TOL)
    fails += _close("Q + C vs I", q + c, info, EXACT_TOL)
    if not (0.0 <= steps[0] <= q + EXACT_TOL and q <= info + EXACT_TOL):
        fails.append(f"0 <= D <= Q <= I fails: D={steps[0]!r} Q={q!r} I={info!r}")

    table = np.asarray(seq["table"], dtype=float).reshape(dims)
    born = born_table(m, dims, [by_subsystem[k] for k in range(n)])
    if not np.abs(table - born).max() <= EXACT_TOL:
        fails.append(f"outcome table differs from the Born rule by "
                     f"{np.abs(table - born).max():.3e}")
    c_born = sum(shannon_bits(born.sum(axis=tuple(j for j in range(n) if j != k)))
                 for k in range(n)) - shannon_bits(born)
    fails += _close("C vs the Born-rule table", c, c_born, EXACT_TOL)

    if kind == "paper":
        for t, want in enumerate(PAPER_STEP_DISCORDS):
            fails += _close(f"paper example step {t} discord", steps[t], want, CLOSED_TOL)
    elif kind == "pure":
        fails += _pure_state(m)
        fails += _close("pure-state D_0 vs S(rho_0)", steps[0],
                        entropy_bits(partial_trace(m, dims, [0])), CLOSED_TOL)
    elif kind == "bell_diagonal":
        d, _ = luo_bell_diagonal(bell_correlations(m))
        fails += _close("Bell-diagonal D_0 vs Luo", steps[0], d, CLOSED_TOL)
    elif kind == "cq":
        fails += _classical_on_0(m, dims)
        fails += _close("classical-quantum D_0", steps[0], 0.0, CLOSED_TOL)
    elif kind == "ghz":
        fails += _close("GHZ Q", q, 1.0, CLOSED_TOL)
        fails += _close("GHZ C", c, n - 1.0, CLOSED_TOL)
        for t, got in enumerate(steps):
            fails += _close(f"GHZ step {t} discord", got, 1.0 if t == 0 else 0.0,
                            CLOSED_TOL)
    elif kind != "generic":
        fails.append(f"unknown closed form {kind!r}")
    return fails


def check_full_report(m: np.ndarray, dims, rep: dict, kind: str,
                      rng: np.random.Generator) -> list[str]:
    """Check a full report: entropies, per-subsystem (D_k, C_k) and its sequential part.

    Every subsystem must be a qubit: each C_k is compared, both ways, with
    the best J that `best_qubit_j` finds.
    """
    dims = tuple(dims)
    n = len(dims)
    if set(dims) != {2}:
        raise ValueError(f"check_full_report takes qubits only, not dims {dims}")
    fails = []
    for k in range(n):
        fails += _close(f"S(rho_{k})", rep["marginal_entropies"][k],
                        entropy_bits(partial_trace(m, dims, [k])), EXACT_TOL)
    fails += _close("S(rho)", rep["joint_entropy"], entropy_bits(m), EXACT_TOL)
    info = mutual_info(m, dims)
    fails += _close("I", rep["info"], info, EXACT_TOL)
    for k, (d_k, c_k) in enumerate(rep["per_subsystem"]):
        if not 0.0 <= d_k <= info + EXACT_TOL:
            fails.append(f"0 <= D_{k} <= I fails: D={d_k!r} I={info!r}")
        fails += _close(f"D_{k} vs I - C_{k}", d_k, max(info - c_k, 0.0), EXACT_TOL)
        fails += _close(f"C_{k} vs the best J on the Bloch sphere", c_k,
                        best_qubit_j(m, dims, k), CLOSED_TOL)
    fails += _close("D_0 vs the first sequential step", rep["per_subsystem"][0][0],
                    rep["sequential"]["step_discords"][0], EXACT_TOL)
    if kind == "pure":
        for k in range(n):
            fails += _close(f"pure-state D_{k} vs S(rho_{k})", rep["per_subsystem"][k][0],
                            entropy_bits(partial_trace(m, dims, [k])), CLOSED_TOL)
    elif kind == "bell_diagonal":
        fails += _bell_diagonal(m)
        d, c = luo_bell_diagonal(bell_correlations(m))
        for k in range(n):
            fails += _close(f"Bell-diagonal D_{k} vs Luo", rep["per_subsystem"][k][0],
                            d, CLOSED_TOL)
            fails += _close(f"Bell-diagonal C_{k} vs Luo", rep["per_subsystem"][k][1],
                            c, CLOSED_TOL)
    fails += check_sequential(m, dims, rep["sequential"], kind, rng)
    return fails


def _pure_state(m: np.ndarray) -> list[str]:
    purity = float(np.trace(m @ m).real)
    return [] if abs(purity - 1.0) <= EXACT_TOL else [f"input is not pure: Tr rho^2 = {purity}"]


def _bell_diagonal(m: np.ndarray) -> list[str]:
    c = bell_correlations(m)
    rebuilt = (np.eye(4) + sum(cj * np.kron(s, s) for cj, s in zip(c, PAULI))) / 4
    if np.abs(rebuilt - m).max() > EXACT_TOL:
        return ["input is not Bell-diagonal"]
    return []


def _classical_on_0(m: np.ndarray, dims) -> list[str]:
    d0 = dims[0]
    t = m.reshape(d0, -1, d0, m.shape[0] // d0)
    off = max((np.abs(t[i, :, j, :]).max() for i in range(d0) for j in range(d0) if i != j),
              default=0.0)
    return [] if off <= EXACT_TOL else ["input is not classical on subsystem 0"]
