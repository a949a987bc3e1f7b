"""Conditional coherent risk measures on finite filtered spaces.

A FiniteCondSpace is a finite probability space together with a
partition of its atoms; the partition plays the role of the public
information sigma-algebra.  Conditional risk measures assign one number
per block, and a two-step valuation integrates those block values
against an outer weighting.

Every measure here is coherent and admits a dual representation as a
supremum of conditional expectations over a set of densities.  The
implementations use the fast closed-form solutions (sorted tail fill
for average value at risk, exponential tilting for the entropic ball);
independent brute-force oracles for the same quantities live alongside
them so tests can cross-check the two routes.

No module of the package imports this one.  It lives with the tests as
the oracle of the dominance theorem: the robust price bounds every
two-step price over its priors (``test_risk_measures.py``,
``test_acceptance.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rifa.errors import ContractError, NumericalError, ResourceError

__all__ = [
    "FiniteCondSpace",
    "CondRiskValue",
    "cond_avar",
    "avar_robust_oracle",
    "entropic_sup",
    "two_step",
]

PROB_TOL = 1e-9
ORACLE_BLOCK_LIMIT = 12
_ENTROPY_TOL = 1e-12
_ENTROPY_MAX_DOUBLINGS = 200
_ENTROPY_BISECT_ITERS = 200


@dataclass(frozen=True, slots=True)
class FiniteCondSpace:
    """Finite probability space with a conditioning partition.

    atoms:     ((label, probability), ...) with positive probabilities
               summing to one
    partition: tuple of blocks, each a tuple of atom indices; every atom
               belongs to exactly one block
    """

    atoms: tuple[tuple[str, float], ...]
    partition: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ContractError("space needs at least one atom")
        for label, p in self.atoms:
            if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0.0):
                raise ContractError(f"atom {label!r} needs probability > 0, got {p}")
        total = math.fsum(p for _, p in self.atoms)
        if abs(total - 1.0) > PROB_TOL:
            raise ContractError(f"atom probabilities sum to {total}, expected 1")
        seen: set[int] = set()
        for block in self.partition:
            if not block:
                raise ContractError("empty partition block")
            for i in block:
                if not (isinstance(i, int) and 0 <= i < len(self.atoms)):
                    raise ContractError(f"atom index {i} out of range")
                if i in seen:
                    raise ContractError(f"atom index {i} appears in two blocks")
                seen.add(i)
        if len(seen) != len(self.atoms):
            raise ContractError("partition does not cover every atom")

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])

    @property
    def n_blocks(self) -> int:
        return len(self.partition)

    def block_mass(self, k: int) -> float:
        return math.fsum(self.atoms[i][1] for i in self.partition[k])

    @staticmethod
    def single_block(probs: "list[float] | tuple[float, ...] | np.ndarray") -> "FiniteCondSpace":
        """Trivial conditioning: one block holding every atom."""
        atoms = tuple((f"w{i}", float(p)) for i, p in enumerate(probs))
        return FiniteCondSpace(atoms, (tuple(range(len(atoms))),))


@dataclass(frozen=True, slots=True)
class CondRiskValue:
    """One finite value per partition block."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ContractError("risk value needs at least one block entry")
        for v in self.values:
            if not math.isfinite(v):
                raise ContractError(f"non-finite block value {v}")


def _check_outcomes(space: FiniteCondSpace, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (len(space.atoms),):
        raise ContractError(
            f"outcome vector has shape {arr.shape}, expected ({len(space.atoms)},)"
        )
    if not np.all(np.isfinite(arr)):
        raise ContractError("outcome vector must be finite")
    return arr


def _block_weights(space: FiniteCondSpace, k: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array(space.partition[k], dtype=int)
    p = space.probs[idx]
    return idx, p / p.sum()


def cond_avar(space: FiniteCondSpace, x, lam: float) -> CondRiskValue:
    """Conditional average value at risk of holding X, per block.

    Dual form: the largest conditional expectation of -X over densities
    bounded by 1/lam.  Computed by the sorted greedy rule: fill the
    admissible mass with the worst outcomes of -X first.  lam = 1 is the
    plain conditional expectation of -X; lam below the smallest atom
    weight concentrates on the single worst atom.
    """
    if not (0.0 < lam <= 1.0):
        raise ContractError(f"lambda must lie in (0, 1], got {lam}")
    arr = _check_outcomes(space, x)
    out = []
    for k in range(space.n_blocks):
        idx, w = _block_weights(space, k)
        z = -arr[idx]
        order = np.argsort(-z, kind="stable")
        cum = np.cumsum(w[order])
        # mass allocated to each sorted atom under the capped density
        filled = np.minimum(cum, lam)
        alloc = np.diff(np.concatenate(([0.0], filled))) / lam
        out.append(float(np.dot(z[order], alloc)))
    return CondRiskValue(tuple(out))


def avar_robust_oracle(space: FiniteCondSpace, x, lam: float) -> CondRiskValue:
    """Brute-force dual optimum for cond_avar, per block.

    Maximizes the conditional expectation of -X over densities g with
    0 <= g <= 1/lam and unit mean by enumerating every vertex of that
    polytope (each vertex saturates the cap on some subset of atoms and
    is fractional on at most one).  Exact up to float arithmetic, and
    completely independent of the greedy routine.
    """
    if not (0.0 < lam <= 1.0):
        raise ContractError(f"lambda must lie in (0, 1], got {lam}")
    for block in space.partition:
        if len(block) > ORACLE_BLOCK_LIMIT:
            raise ResourceError(
                f"oracle block limit is {ORACLE_BLOCK_LIMIT} atoms, got {len(block)}"
            )
    cap = 1.0 / lam
    arr = _check_outcomes(space, x)
    out = []
    for k in range(space.n_blocks):
        idx, w = _block_weights(space, k)
        z = -arr[idx]
        m = len(idx)
        # all saturation patterns at once: row p of G is one 0/cap pattern
        G = cap * (
            (np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1
        ).astype(float)
        mass = G @ w
        value = G @ (w * z)
        best = -math.inf
        exact = np.abs(mass - 1.0) <= 1e-12
        if np.any(exact):
            best = float(value[exact].max())
        for j in range(m):
            # free coordinate j absorbs whatever mass the pattern misses
            need = 1.0 - (mass - G[:, j] * w[j])
            gj = need / w[j]
            ok = (gj >= -1e-12) & (gj <= cap + 1e-12)
            if np.any(ok):
                adjusted = value - G[:, j] * w[j] * z[j] + need * z[j]
                best = max(best, float(adjusted[ok].max()))
        if not math.isfinite(best):
            raise NumericalError("no feasible density vertex found", best_value=best)
        out.append(best)
    return CondRiskValue(tuple(out))


def _gibbs_stats(z: np.ndarray, w: np.ndarray, beta: float) -> tuple[float, float]:
    """Mean of z and relative entropy of the beta-tilted density."""
    zmax = float(z.max())
    expw = w * np.exp(beta * (z - zmax))
    norm = float(expw.sum())
    # work with the gap to zmax so beta * mean never overflows or cancels
    mean_gap = float(np.dot(expw, z - zmax) / norm)
    # H = beta * E_tilt[z] - log E_P[exp(beta z)] in shifted form
    return zmax + mean_gap, beta * mean_gap - math.log(norm)


def entropic_sup(space: FiniteCondSpace, x, c: float) -> CondRiskValue:
    """Coherent entropic risk: sup of E[-X] over an entropy ball, per block.

    The optimizer over densities with relative entropy at most c is an
    exponential tilt of the reference weights; the tilt parameter is the
    unique nonnegative root of the entropy constraint, found by monotone
    bisection.  c = 0 collapses to the conditional expectation; once c
    reaches the entropy of the point mass on the block argmax set the
    supremum saturates at the block maximum.
    """
    if not (isinstance(c, (int, float)) and math.isfinite(c) and c >= 0.0):
        raise ContractError(f"entropy budget must be finite and >= 0, got {c}")
    arr = _check_outcomes(space, x)
    out = []
    for k in range(space.n_blocks):
        idx, w = _block_weights(space, k)
        z = -arr[idx]
        zmax = float(z.max())
        if c == 0.0:
            out.append(float(np.dot(w, z)))
            continue
        argmax_mass = float(w[z >= zmax - 1e-15].sum())
        if c >= -math.log(argmax_mass) - 1e-15:
            out.append(zmax)
            continue
        lo, hi = 0.0, 1.0
        for _ in range(_ENTROPY_MAX_DOUBLINGS):
            if _gibbs_stats(z, w, hi)[1] >= c:
                break
            hi *= 2.0
        else:
            raise NumericalError(
                "entropy constraint never reached while raising the tilt",
                best_value=_gibbs_stats(z, w, hi)[0],
            )
        for _ in range(_ENTROPY_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            mean, ent = _gibbs_stats(z, w, mid)
            if abs(ent - c) <= _ENTROPY_TOL:
                break
            if ent < c:
                lo = mid
            else:
                hi = mid
        else:
            mean, ent = _gibbs_stats(z, w, 0.5 * (lo + hi))
            if abs(ent - c) > 1e-8:
                raise NumericalError(
                    f"entropy bisection stalled at |H - c| = {abs(ent - c)}",
                    best_value=mean,
                )
        out.append(mean)
    return CondRiskValue(tuple(out))


def two_step(space: FiniteCondSpace, q_block_weights, rho: CondRiskValue) -> float:
    """Outer expectation of a per-block risk value.

    The caller supplies rho already applied under its own sign
    convention; pricing a benefit X with a conditional measure means
    passing the block values of rho(-X) here.
    """
    q = np.asarray(q_block_weights, dtype=float)
    if q.shape != (space.n_blocks,):
        raise ContractError(
            f"outer weights have shape {q.shape}, expected ({space.n_blocks},)"
        )
    if len(rho.values) != space.n_blocks:
        raise ContractError(
            f"risk value has {len(rho.values)} blocks, space has {space.n_blocks}"
        )
    if np.any(q < -1e-15) or abs(float(q.sum()) - 1.0) > PROB_TOL:
        raise ContractError("outer weights must be a probability vector")
    return math.fsum(float(qk) * rv for qk, rv in zip(q, rho.values))
