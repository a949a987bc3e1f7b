"""Worst-case valuation of the contract over the hazard parameter box.

The filtration generated by the market is atomic: conditioning on the
full market history is conditioning on a lattice path.  For a fixed
hazard parameter point the conditional discounted contract value on a
path is

    G(path, theta) = survival_pay * P(no decrement through T)
                   + sum_t surrender_pay[t] * P(alive at t, surrender at t),

with both probabilities produced by the copula-coupled hazard models.
The worst-case price replaces G by its per-path supremum over the box
(suprema over equivalent model families act pathwise here because all
models share the market's null sets), then integrates under the
risk-neutral weights:

    robust_price = sum_paths q_weight * sup_theta G(path, theta).

Monotone reduction: every admissible copula is 2-increasing, so both the
joint survival mass and each surrender slice mass are nondecreasing in
the death survival level, which is itself decreasing in b and c.  Hence
G is nonincreasing in (b, c) for every family, and the supremum pins
them at the lower box corner (the infimum at the upper corner), leaving
a 2-dimensional search over (a, d).  That search runs deterministic
multistart Nelder-Mead on box-normalised coordinates, a dense grid, or
both (hybrid), per the optimizer configuration.  The Nelder-Mead runs of
every path and start advance in lockstep, one batched simplex step per
iteration, each following scipy's bounded Nelder-Mead exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from rifa.benefits import BenefitSpec, payoff_table
from rifa.copulas import CopulaSpec, _survival_array, SLICE_TOL
from rifa.errors import ConfigurationError, ContractError, NumericalError
from rifa.hazards import ParamBox, Theta
from rifa.lattice import MarketParams, Path, _is_int, _real, path_arrays

OPTIMIZER_METHODS = ("nelder_mead", "grid", "hybrid")

# simplex-size tolerance in box-normalised coordinates
_XATOL = 1e-8
# resolution of the pre-multistart screening batch (coarser than any
# validation grid, so cross-checks against grid oracles stay meaningful)
_SCREEN_POINTS_PER_DIM = 17
# scipy's Nelder-Mead shrink coefficient and initial-simplex steps
_SIGMA = 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """Search settings for all box optimizations.

    method:              nelder_mead, grid, or hybrid (both, best of)
    multistarts:         Nelder-Mead starts on a fixed Latin pattern
    tolerance:           absolute function tolerance for convergence
    max_iters:           Nelder-Mead iteration cap per start
    grid_points_per_dim: grid resolution for grid/hybrid methods
    """

    method: str = "nelder_mead"
    multistarts: int = 5
    tolerance: float = 1e-8
    max_iters: int = 500
    grid_points_per_dim: int = 64

    def __post_init__(self):
        if self.method not in OPTIMIZER_METHODS:
            raise ConfigurationError(
                f"method must be one of {OPTIMIZER_METHODS}, got {self.method!r}"
            )
        for name, least in (("multistarts", 1), ("max_iters", 1), ("grid_points_per_dim", 2)):
            n = getattr(self, name)
            if not _is_int(n) or n < least:
                raise ConfigurationError(f"{name} must be an integer >= {least}, got {n!r}")
            object.__setattr__(self, name, int(n))
        object.__setattr__(self, "tolerance", _real("tolerance", self.tolerance))
        if not 0.0 < self.tolerance < math.inf:
            raise ConfigurationError("tolerance must be positive and finite")


@dataclass(frozen=True, slots=True)
class PathOptimum:
    """Worst-case value of one path: index, value, attaining parameters."""

    index: int
    q_weight: float
    value: float
    theta: Theta


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    """Result of a robust valuation, optionally with the classical side.

    robust_price:  weighted sum of per-path worst-case values
    per_path:      the per-path optima, ascending path index
    sup_classical: best single-model price over the box (None if not run)
    argmax_outer:  parameter point attaining sup_classical
    delta:         robust_price - sup_classical (None if not run), derived
    """

    robust_price: float
    per_path: tuple[PathOptimum, ...]
    sup_classical: float | None = None
    argmax_outer: Theta | None = None

    def __post_init__(self):
        # pathwise domination makes the robust price an upper bound
        if self.sup_classical is not None and self.delta < -1e-9:
            raise NumericalError(
                f"robust price {self.robust_price} below classical supremum "
                f"{self.sup_classical}"
            )

    @property
    def delta(self) -> float | None:
        if self.sup_classical is None:
            return None
        return self.robust_price - self.sup_classical


# (point, path) pairs per block of the paired route: each (T+1, pairs)
# temporary takes 8*(T+1) kB, and a block gathers three of them, its chains'
# sums and payouts, from the tree's node columns
_BLOCK_PAIRS = 1 << 10
# (point, path) pairs per block of the prefix-tree route, and (point, group)
# pairs per tile of _first_best: each temporary takes 128 kB, 64 points at
# T = 8.  Larger blocks spread a call's fixed cost over more points, until
# the temporaries outgrow the L2 cache; memory stays flat in T
_TREE_PAIRS = 1 << 14
# (point, node) pairs per block of the one-dot estimate, whose one large
# array is the survival levels (512 kB): its call's fixed cost, the product
# with the weight rows, spreads over four times _TREE_PAIRS' points
_LEVEL_PAIRS = 1 << 16
# the one-dot estimate sums its 2**T node terms in dot products of at most
# this many, then adds those: a bound of g_(1024 + 2**T/1024) rather than
# g_(2**T) keeps its radius within 1e-12 of the price past T = 10
_DOT_TERMS = 1 << 10
# the parts each run, and each interval of it whose inner points its bound
# cannot rule out, splits into: a wider split takes fewer rounds of pricing,
# each of a fixed cost, but prices more points.  On paper.cfg's a-sweep 4
# parts price 350 of its 8,959 screen points in 5 rounds, 2 parts 243 in 8
# and 8 parts 497 in 4; 4 parts were the fastest
_RUN_SPLIT = 4
# blocks of fewer terms are summed by math.fsum directly: below about a
# thousand terms it is faster than the dozen array operations of _fsum_rows
_FSUM_DIRECT = 1 << 10


def _by_date(nodes: np.ndarray) -> list[np.ndarray]:
    """The dates of a prefix-tree node array, one level each from date 0.

    Node 0 is date 0 and node 2**(t-1) + p is date t's node of the path
    prefix p < 2**(t-1), so the dates 0..s fill 2**s nodes of the first
    axis.  Level t views date t's nodes with that axis split into t-1 axes
    of 2, bit k of p the k-th from the right, ahead of any trailing axes:
    under broadcasting, path row i of a finer level then reads entry
    i mod 2**(t-1) of a coarser one, without copies.
    """
    rest = nodes.shape[1:]
    return [
        nodes[(1 << t) >> 1 : 1 << t].reshape((2,) * max(t - 1, 0) + rest)
        for t in range(nodes.shape[0].bit_length())
    ]


def _row_sum(terms: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of arrays in the order numpy's ``sum(axis=-1)`` adds a row of them.

    numpy starts from +0.0 and adds its pairwise sum of the row: fewer
    than 8 terms in sequence; 8 to 128 terms in 8 interleaved
    accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the tail past the last multiple of 8 in sequence.  Longer rows, split
    in halves by numpy, are not reproduced; a date sum has T-1 <= 23
    terms.  The terms broadcast together, or stack along the first axis
    of one array, whose fewer than 8 terms one reduction adds in sequence.
    """
    n = len(terms)
    if n < 8:
        if isinstance(terms, np.ndarray):
            return np.add.reduce(terms, axis=0, initial=0.0)
        return functools.reduce(np.add, terms, 0.0)
    r = list(terms[:8])
    k = 8
    while k + 8 <= n:
        r = [x + y for x, y in zip(r, terms[k : k + 8])]
        k += 8
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return 0.0 + functools.reduce(np.add, terms[k:], res)


def _fsum_rows(x: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row of a 2-D array, bit for bit.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    2008, Lemma 3.3): with sigma = 2**(e + M) >= 2**M * max|x| of the row
    and 2**M >= n + 2, hi = (sigma + x) - sigma and lo = x - hi are exact,
    and hi lies on a grid fine enough that its sum is exact in any order.
    The rounded sum c of the two parts is then within |t| + B of the true
    sum, t the exact error of that last addition and B a bound on the
    error of summing lo, so c is the correctly rounded sum whenever that
    distance is below half the gap to c's neighbours.  Rows that fail
    that test, sum to zero, or hold tiny, huge or non-finite entries go
    to ``math.fsum`` itself, which keeps its signed zeros, nan, inf and
    OverflowError; so do blocks of fewer than _FSUM_DIRECT terms.
    """
    if x.size < _FSUM_DIRECT:
        return np.array(list(map(math.fsum, x.tolist())))
    n = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        mx = np.maximum.reduce(np.abs(x), axis=1, initial=0.0)
        sigma = np.ldexp(1.0, np.frexp(mx)[1] + (n + 1).bit_length())[:, None]
        hi = (sigma + x) - sigma
        lo = x - hi
        tau = np.add.reduce(hi, axis=1)
        rho = np.add.reduce(lo, axis=1)
        bound = (2.0 * n * 2.0**-53) * np.add.reduce(np.abs(lo), axis=1)
        c = tau + rho
        z = c - tau
        t = (tau - (c - z)) + (rho - z)
        gap = np.minimum(np.nextafter(c, np.inf) - c, c - np.nextafter(c, -np.inf))
        ok = (np.abs(t) + bound < 0.5 * gap) & (c != 0.0) & (mx >= 2.0**-900)
    for i in np.flatnonzero(~ok).tolist():
        c[i] = math.fsum(x[i].tolist())
    return c


def _refuse_negative(slices: np.ndarray) -> None:
    """Raise if a surrender slice mass lies below -SLICE_TOL: not rounding noise."""
    if np.minimum.reduce(slices, axis=None, initial=0.0) < -SLICE_TOL:
        raise NumericalError("negative surrender slice mass beyond tolerance")


class _Kernel:
    """Conditional values G(path, theta) over the paths of one price array.

    Built once per price array, of one path or all 2**T in ``path_arrays``
    order, and death-parameter pair (b, c): the death leg is computed here,
    once.  The lattice is kept in one layout, ``_tree_arrays``' node columns,
    whose price prefix sums make the surrender hazard an O(1) quadratic in a
    per date, so a value costs O(T) exponentials.

    One node routine, ``_nodes``, forms the load and exponentials (by
    ``_levels``), copula masses, slice check and clip for two routes, which
    so give the same values bit for bit: ``values`` at paired (path, a, d)
    points, each pair its path's chain of nodes, and ``every_path``, every
    path at each (a, d) point on the whole tree, which needs all 2**T paths.
    On the same tree, ``price_estimates`` bounds the q-weighted price from
    the node values or, under independence, from ``_levels`` alone.
    """

    __slots__ = ("T", "spec", "surr_on", "f1", "q", "tt", "chain", "tree", "weights")

    def __init__(
        self,
        prices: np.ndarray,
        q: np.ndarray,
        b: float,
        c: float,
        spec: CopulaSpec,
        benefit: BenefitSpec,
        market: MarketParams,
    ):
        T = self.T = market.T
        if prices.shape[0] not in (1, 1 << T):
            raise ContractError(f"a kernel takes 1 or {1 << T} paths, got {prices.shape[0]}")
        self.spec = spec
        self.surr_on = benefit.surrender
        self.q = q
        # death survival P(death > t), t = 0..T; a load past the float
        # range gives survival 0, its limit
        with np.errstate(over="ignore"):
            loads = b * np.exp(c * np.arange(T, dtype=float))
        self.f1 = np.exp(-np.concatenate(([0.0], np.cumsum(loads))))
        self.tt = np.arange(T + 1, dtype=float)[:, None]
        # ``_nodes``' death columns and parents on a chain of dates 0..T
        self.chain = (np.concatenate((self.f1[1:], self.f1[1:T]))[:, None], slice(0, T - 1))
        self.tree = self._tree_arrays(prices, benefit, market)
        self.weights = None

    def _tree_arrays(
        self, prices: np.ndarray, benefit: BenefitSpec, market: MarketParams
    ) -> tuple:
        """The lattice as prefix-tree node columns, C-contiguous, one node per row.

        Node 0 is date 0, and date t >= 1 fills w_t = min(2**(t-1), R) nodes
        from s_t = 1 + w_1 + .. + w_(t-1), R the price rows: path p's date-t
        node is s_t + p mod w_t, 2**(t-1) + p mod 2**(t-1) for all 2**T paths
        (as in ``_by_date``) and t for one.  Bit k of a path row is step k+1,
        so the node takes row p's sums of prices and squared prices over dates
        0..t-1 and payout of date t-1.  Its parent is s_(t-1) + p mod w_(t-1).

        Returns ``_nodes``' columns (date, cum1, cum2, f1, up), the
        parents of nodes 2.. as slice rows, those nodes' payouts (under
        independence times death survival, the only way they enter), each
        path's survival payout, and ``values``' gather source: the stack
        (cum1, cum2, payout) with each date's s_t and w_t - 1.
        """
        T, f1 = self.T, self.f1
        width = np.array([1] + [min(1 << (t - 1), prices.shape[0]) for t in range(1, T + 1)])
        start, mask = np.cumsum(width) - width, width - 1
        date = np.repeat(np.arange(T + 1), width)
        # nodes 1.. take row p's sums and payout of the date before their own
        prev, p = date[1:] - 1, np.arange(1, date.shape[0]) - start[date[1:]]
        v_surv, surrender = payoff_table(benefit, market, prices)
        head = prices[: width[T], :T]
        stack = np.zeros((3, date.shape[0]))
        stack[:2, 1:] = np.cumsum((head, head**2), axis=2)[:, p, prev]
        stack[2, 1:] = surrender[p, prev]
        if self.spec.is_independence:
            stack[2, 1:] *= f1[prev]
        # the parents of nodes 1..: those of dates 1..T-1, then of later nodes
        parent = start[prev] + (p & mask[prev])
        return (
            date.astype(float)[:, None],
            stack[0, :, None],
            stack[1, :, None],
            # f1 on nodes 1.., then that of the next date on the nodes of
            # dates 0..T-2
            np.concatenate((f1[date[1:]], f1[date[: start[T - 1]] + 1]))[:, None],
            parent[: start[T] - 1],
            parent[1:] - 1,
            stack[2, 2:],
            v_surv,
            stack,
            start[:, None],
            mask[:, None],
        )

    @staticmethod
    def _levels(
        nodes: tuple, a: np.ndarray, d: np.ndarray, runs: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The surrender load on every node, the survival exp(-load/d), the runs.

        nodes begins (date, cum1, cum2), as in ``_nodes``, with node 0 at
        date 0, and points lie along the last axis.  The load depends on a
        alone, so a block whose points all share a forms it once, a column.
        With runs it is formed once per run of points that share a (the
        screens list a group's points together, and each step of an a-sweep
        pins a), a column per run, gathered onto the points by the returned
        index (None where each point, or every point, has one column).
        """
        node_t, node_cum1, node_cum2 = nodes[:3]
        run = None
        if a.shape[0] > 1 and a[0] == a[-1] and (a == a[0]).all():
            a = a[:1]
        elif runs and a.shape[0] > 1:
            change = a[1:] != a[:-1]
            if not change.all():
                run = np.append(0, np.cumsum(change))
                a = a[np.flatnonzero(np.append(True, change))]
        # float_power squares through libm pow, as Python floats do; the
        # classical band's Nelder-Mead path depends on that last bit.  A load
        # past the float range is +inf, its limit (f2 = 0), as is a nan one
        # (fmin drops nan); date 0's, row 0, is 0
        with np.errstate(over="ignore", invalid="ignore"):
            load = node_t * np.float_power(a, 2.0) - 2.0 * a * node_cum1 + node_cum2
            load[0] = 0.0
            np.fmin(load, np.inf, out=load)
            spread = load if run is None else load.take(run, axis=1)
            rate = np.divide(spread, -d, out=None if run is None else spread)
        return load, np.exp(rate, out=rate), run

    def _nodes(self, nodes: tuple, split: int, a: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Survival to T on the date-T nodes, then the slices of the inner nodes.

        nodes = (date, cum1, cum2, f1, up), nodes along the first axis and
        points along the last: node 0 is date 0, nodes 1..split-1 are inner
        (dates 1..T-1), nodes split.. are date T.  f1 is death survival on
        nodes 1.., then that of the next date on the first nodes, those that
        parent inner nodes, and up[m] the parent of inner node m+1.  The
        prefix tree passes its nodes, ``values`` each pair's chain of dates
        0..T.  Row r is date-T node split + r; the inner nodes' slices, the
        mass of surrendering at their date while alive, follow.
        """
        f1, up = nodes[3:]
        f2 = self._levels(nodes, a, d)[1]
        count = f2.shape[0]
        out = np.empty((count - 1, d.shape[0]))
        survival, slices = out[: count - split], out[count - split :]
        if self.spec.is_independence:
            np.multiply(self.f1[self.T], f2[split:], out=survival)
            np.subtract(f2[up], f2[1:split], out=slices)
        else:
            # joint survival P(death > t, surrender > t) on nodes 1.., then
            # at the next date on the first nodes, in one copula call
            upper = f2[: f1.shape[0] - count + 1]
            joint = _survival_array(self.spec, f1, np.concatenate((f2[1:], upper)))
            survival[...] = joint[split - 1 : count - 1]
            np.subtract(joint[count - 1 :][up], joint[: split - 1], out=slices)
        _refuse_negative(slices)
        if not self.spec.is_independence:
            np.clip(slices, 0.0, None, out=slices)
        return out

    def values(self, rows: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
        """G at paired points: entry i is G on path rows[i] at (a[i], d[i]).

        rows, a and d are paired 1-D arrays.  Each pair is its path's chain
        of tree nodes, dates 0..T, gathered by one take per block of at most
        _BLOCK_PAIRS pairs, so memory stays flat, and evaluated by ``_nodes``
        elementwise per pair: a value does not depend on the other pairs.
        """
        T = self.T
        v_surv, stack, start, mask = self.tree[7:]
        if not self.surr_on:
            return v_surv[rows] * self.f1[T]
        out = np.empty(a.shape[0])
        for i in range(0, a.shape[0], _BLOCK_PAIRS):
            s, r = slice(i, i + _BLOCK_PAIRS), rows[i : i + _BLOCK_PAIRS]
            cum1, cum2, pay = stack.take(start + (r & mask), axis=1)
            m = self._nodes((self.tt, cum1, cum2, *self.chain), T, a[s], d[s])
            out[s] = v_surv[r] * m[0] + _row_sum(m[1:] * pay[2:])
        return out

    def _price_weights(self) -> np.ndarray:
        """The rows that ``price_estimates`` multiplies by its node array.

        sum_i q_i * G_i = w @ nodes(a, d) in exact arithmetic.  The weight
        of date-T node r is q * v_surv summed over paths r and r + 2**(T-1),
        which reach it, and that of slice node m sums, over m's children n,
        the payout of n times Q_n, q summed over the paths through n.  Each
        Q_n is correctly rounded (``_fsum_rows``), so a weight takes at most
        three roundings: it is within g_3 of its value, relative to its
        magnitude mw, the same sum of absolute products.  Other families
        get the rows (w, mw) over ``_nodes``' rows.

        Under independence a node value is linear in the survival levels
        f2 (``_levels``) of all 2**T nodes: date-T node r is f1[T] * f2_r
        and the slice of inner node m is f2_parent(m) - f2_m.  The rows are
        then (c, c+, rho) over f2: c_k = f1[T] * w_k at date T, and
        otherwise the weights of k's inner children less k's own (two
        roundings more, so c is within g_5 of its value relative to c+);
        c+ puts each magnitude at both ends of its slice, and rho =
        kappa1 * c+ + kappa2 * |c| is the radius row (``price_estimates``).
        Six more follow for the slope rows of ``_run_bounds``: c's positive
        and negative parts, exact, times each node's date, then its price
        sum, then its squared-price sum, the load's coefficients.
        Empty, shape (0, 0), when q or a payout lies outside the range where
        that bound holds: q in [2**-450, 1], payouts 0 or of magnitude in
        [2**-400, 2**400].
        """
        T, q = self.T, self.q
        gather, pay, v = self.tree[5:8]
        payouts = np.abs(np.concatenate((v, pay)))
        payouts = payouts[payouts != 0.0]
        if not (
            2.0**-450 <= q.min() and q.max() <= 1.0
            and 2.0**-400 <= payouts.min(initial=1.0)
            and payouts.max(initial=1.0) <= 2.0**400
        ):
            return np.empty((0, 0))
        half = (1 << T) >> 1
        qv = q * v
        # Q on the nodes of dates 2..T, in the order of pay's rows: node
        # 2**(t-1) + p holds the paths p mod 2**(t-1)
        Q = [_fsum_rows(q.reshape(-1, 1 << (t - 1)).T) for t in range(2, T + 1)]
        qpay = pay * np.concatenate([np.zeros(0)] + Q)
        w, mw = (
            np.concatenate((s[:half] + s[half:], np.bincount(gather, x, minlength=half - 1)))
            for s, x in ((qv, qpay), (np.abs(qv), np.abs(qpay)))
        )
        if not self.spec.is_independence:
            return np.stack((w, mw))
        # f2 rows: node 0, the inner nodes 1..half-1, the date-T nodes; the
        # slice weights add at their node's parent, up, and subtract at it
        up, f1T = self.tree[4], self.f1[T]
        c, cplus = np.zeros((2, 1 << T))
        for row, x, sign in ((c, w, -1.0), (cplus, mw, 1.0)):
            row[1:half] = sign * x[half:]
            row[:half] += np.bincount(up, x[half:], minlength=half)
            row[half:] = x[:half] * f1T
        terms = min(1 << T, _DOT_TERMS)
        kappa1, kappa2 = _sum_margin(T + 12), _sum_margin(terms + (1 << T) // terms - 1)
        rho = kappa1 * cplus + kappa2 * np.abs(c)
        # c split into its parts, times the load's coefficients of a**2,
        # -2a and 1 on each node
        signed = np.stack((np.maximum(c, 0.0), np.maximum(-c, 0.0)))
        with np.errstate(over="ignore"):
            slopes = [signed * x[:, 0] for x in self.tree[:3]]
        return np.concatenate([np.stack((c, cplus, rho))] + slopes)

    def price_estimates(
        self, a: np.ndarray, d: np.ndarray, parts: bool = False
    ) -> tuple[np.ndarray, ...] | None:
        """Estimates of the price sum_i fl(q_i * G_i) at each point, with radii.

        A product of ``_price_weights``' rows and the nodes replaces the
        2**T path terms.  With u = 2**-53 and g_k = ku/(1 - ku) (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 3.1
        and 4.2): each exact term x_i = fl(q_i * G_i) is within g_(T+2) * m_i
        of its value in exact arithmetic on the same node values, m_i the sum
        of the magnitudes of the products it adds up, the correctly rounded
        sum adds u, and a dot product of k terms in any order, fused or not,
        is within g_k of the sum of their magnitudes.

        Other families: the node sum w @ nodes, of 2**T - 1 terms, with
        weights within g_3, is within g_n * M of the exact price,
        n = 2**T + T + 4 and M = mw @ |nodes| in exact arithmetic; the
        computed magnitude A has A >= (1 - g_n) * M, which gives the radius
        ``_sum_margin(n)`` * A.

        Independence: the one product (c, c+, rho) @ f2 gives the estimate,
        the magnitude and the radius, summed in dot products of at most
        _DOT_TERMS node terms that are then added, so that its rounding is
        that of a sum of k = K + 2**T/K - 1 terms, K = min(2**T,
        _DOT_TERMS).  f2 carries the exact route's bits, so the exact
        route's roundings (g_(T+2) + u, its slice |f2_parent - f2_m| <=
        f2_parent + f2_m) and those of c (g_5) are within g_(T+8) *
        (c+ @ f2) in exact arithmetic, with the exact c+, which the
        computed one is within g_5 of; the product c @ f2 adds
        g_k * (|c| @ f2).  The computed rho and rho @ f2 lose at most g_3
        and g_k, and kappa1 = ``_sum_margin(T + 12)`` and kappa2 =
        ``_sum_margin(k)`` cover both shortfalls for any 2**T < 2**40.
        The slices are not formed: where no inner node's load lies below
        its parent's, every inner load is at least node 0's, 0, so every
        level is at most 1 and at most its parent's up to exp's error of an
        ulp or two, far above -SLICE_TOL.  Elsewhere they are, by
        ``_nodes``' subtraction, and one below -SLICE_TOL is refused as on
        the exact route.

        Underflowed products, each off by at most 2**-1075 and only ever
        scaled by a q <= 1, fall far inside the radii's slack for a
        magnitude of at least 2**-900, and one of at most 2**500 with
        q >= 2**-450 keeps every term of the exact sum finite.  None without
        surrender, where the kernel has no weights or where a point's
        magnitude leaves [2**-900, 2**500]: the caller then takes the exact
        price.

        With parts, under independence only, four more rows follow, from
        which ``_run_bounds`` bounds the price between two points of a run.
        The slope rows D+- = (c+- * L) @ f2, c+- = max(+-c, 0) and L each
        node's load, expand L = t a**2 - 2a cum1 + cum2 (``_levels``): the
        one product with f2 also sums c+- t, c+- cum1 and c+- cum2, and each
        point recombines its three sums with its a, so no load spreads onto
        the points; a level under an infinite load is 0, as is its term.
        Then the price's slack sigma = tau * (mag + rad) + 2**(2T - 650)
        and the slopes' slack omega = tau * (M+ + M-) + 2**(2T - 600) *
        (1 + d), M+- the magnitudes of the slope rows (|a| for -a) and
        tau = 4 * ``_sum_margin(k)`` + 2**-41.  The slope rows are nan where
        the point's a gives a negative load, or an inner load below its
        parent's, whose slices every point must check.
        """
        if not self.surr_on:
            return None
        if self.weights is None:
            self.weights = self._price_weights()
        if not self.weights.size:
            return None
        half = (1 << self.T) >> 1
        with np.errstate(over="ignore", invalid="ignore"):
            if self.spec.is_independence:
                load, f2, run = self._levels(self.tree, a, d, runs=True)
                up = self.tree[4]
                # per column of loads, whether an inner load lies below its parent's
                below = ~(load[1:half] >= load[up]).all(axis=0)
                if below.any():
                    _refuse_negative(np.subtract(f2[up], f2[1:half]))
                w = self.weights if parts else self.weights[:3]
                out = w[:, :_DOT_TERMS] @ f2[:_DOT_TERMS]
                for i in range(_DOT_TERMS, f2.shape[0], _DOT_TERMS):
                    out += w[:, i : i + _DOT_TERMS] @ f2[i : i + _DOT_TERMS]
                est, mag, rad = out[:3]
            else:
                nodes = self._nodes(self.tree[:5], half, a, d)
                est = self.weights[0] @ nodes
                mag = self.weights[1] @ np.abs(nodes, out=nodes)
                rad = _sum_margin((1 << self.T) + self.T + 4) * mag
        if not (2.0**-900 <= mag.min() and mag.max() <= 2.0**500):
            return None
        if not parts:
            return est, rad
        T = self.T
        terms = min(1 << T, _DOT_TERMS)
        tau = 4.0 * _sum_margin(terms + (1 << T) // terms - 1) + 2.0**-41
        # the slope rows from their parts, one per coefficient of the load
        # t a**2 - 2a cum1 + cum2, and their magnitudes.  Levels that fall
        # as d rises, under a negative load, bound nothing; nor do the loads
        # of a column with slices to check, as every point of its run is
        # then checked, as on the exact route
        falls = below | (load < 0.0).any(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            square, linear, const = out[3:].reshape(3, 2, -1)
            square *= a * a
            square += const
            linear *= 2.0 * a
            slope, size = square - linear, square + abs(linear)
            if falls.any():
                slope[:, np.broadcast_to(falls if run is None else falls[run], a.shape)] = np.nan
            plus, minus = slope
            sigma = tau * (mag + rad) + 2.0 ** (2 * T - 650)
            omega = tau * (size[0] + size[1]) + 2.0 ** (2 * T - 600) * (1.0 + d)
        return est, rad, plus, minus, sigma, omega

    def every_path(self, a: np.ndarray, d: np.ndarray) -> np.ndarray:
        """G on every path at each point: entry [i, r] is G on row r at (a[i], d[i]).

        ``_nodes`` on the prefix tree, bit for bit what ``values`` gives:
        each date's terms are computed once per node, 2**T nodes instead of
        2**T*(T+1) row entries.  The surrender slices of dates 1..T-1, and
        their products with the payouts, take one node array each, a node
        reading its parent's term; the date sum broadcasts them over the
        finer levels (``_by_date``) in numpy's order (``_row_sum``).
        """
        T, f1 = self.T, self.f1
        if self.q.shape[0] != 1 << T:
            raise ContractError("every_path needs the prices of all 2**T paths")
        gather, pay, v_surv = self.tree[5:8]
        if not self.surr_on:
            return np.broadcast_to(v_surv * f1[T], (a.shape[0], 1 << T))
        half = (1 << T) >> 1
        nodes = self._nodes(self.tree[:5], half, a, d)
        # each slice times its payout on the next date's nodes (in-range
        # indices: take needs no bounds copy)
        paid = np.empty((1 << T, a.shape[0]))
        np.take(nodes[half:], gather, axis=0, out=paid[2:], mode="clip")
        paid[2:] *= pay[:, None]
        paid = _row_sum(_by_date(paid)[2:])
        survival = nodes[:half].reshape((2,) * (T - 1) + (-1,))
        v_surv = v_surv.reshape((2,) * T + (1,))
        return (v_surv * survival + paid).reshape(-1, a.shape[0]).T


class _Objective(NamedTuple):
    """An objective's exact values, and certified estimates of them.

    values(rows, a, d) gives problem rows[i]'s objective at (a[i], d[i]);
    screen(a, d) -> (estimates, radii) bounds the values of
    ``_first_best``'s candidates, and estimates(rows, a, d) -> (estimates,
    radii) those of paired points, for ``minimize``.  Each value lies
    within its radius of its estimate.  estimates is None where every
    radius would be 0 or an estimate costs about what a value does: the
    search then takes values.  runs(rows, a, d), where not None, adds to
    the paired estimates and radii the rows D+, D-, sigma and omega of
    ``_Kernel.price_estimates``, from which ``_run_bounds`` bounds the
    values between two points that share a.
    """

    values: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    screen: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    estimates: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    runs: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None


def _sum_margin(n: int) -> float:
    """c with |s - fsum(x)| <= fl(c * A) for float sums s of n finite x and A of |x|.

    In any order of addition, with u = 2**-53 and g = (n-1)u / (1 - (n-1)u),
    |s - S| <= g*sum|x| for the exact sum S, and A >= (1 - g)*sum|x| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 4.2), while
    |fsum - S| <= u*sum|x|; so |s - fsum| <= (g + u)*A/(1 - g) <= nu*A/(1 - 2nu).
    The factor 1 + 8u covers the roundings of c and of c * A, which is normal
    for A >= 2**-900.
    """
    return n * 2.0**-53 / (1 - n * 2.0**-52) * (1 + 2.0**-50)


def _path_objective(kernel: _Kernel) -> _Objective:
    """G on path rows[i], the kernel's paired route.

    The screen gives values, radius 0, a shared row by the prefix tree when
    the kernel holds every path.
    """
    paths = kernel.q.shape[0]

    def screen(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if a.shape[0] == 1 and paths == 1 << kernel.T:
            v = kernel.every_path(a[0], d[0]).T
        else:
            rows, a, d = np.broadcast_arrays(np.arange(paths)[:, None], a, d)
            v = kernel.values(rows.ravel(), a.ravel(), d.ravel()).reshape(rows.shape)
        return v, np.zeros_like(v)

    return _Objective(kernel.values, screen)


def _price_objective(kernel: _Kernel) -> _Objective:
    """The single-model price, one problem: rows is not read.

    Values are what ``math.fsum`` gives of the q-weighted G over the
    kernel's paths, by ``_fsum_rows`` on the prefix tree in blocks of at
    most _TREE_PAIRS (point, path) pairs: memory stays flat.  The screen
    gives the certified estimates of ``_Kernel.price_estimates``, else
    values, radius 0, in blocks of as many pairs or, for the one-dot
    estimate of independence, of _LEVEL_PAIRS.  Only that estimate goes
    to ``minimize``, and with its run rows to ``_run_bounds``: at a
    search's few points per call the node form of the other families
    costs about what a value does.
    """
    q = kernel.q
    step = max(1, _TREE_PAIRS // q.shape[0])
    block = max(1, (_LEVEL_PAIRS if kernel.spec.is_independence else _TREE_PAIRS) // q.shape[0])

    def exact(a: np.ndarray, d: np.ndarray) -> np.ndarray:
        out = np.zeros(a.shape[0])
        for i in range(0, a.shape[0], step):
            s = slice(i, i + step)
            out[s] = _fsum_rows(q * kernel.every_path(a[s], d[s]))
        return out

    def values(rows: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
        return exact(a, d)

    def priced(a: np.ndarray, d: np.ndarray, parts: bool = False) -> np.ndarray:
        # rows estimate and radius, then, with parts, the run rows (nan
        # where a block takes exact values)
        out = np.full((6 if parts else 2, a.shape[0]), np.nan)
        for i in range(0, a.shape[0], block):
            s = slice(i, i + block)
            tree = kernel.price_estimates(a[s], d[s], parts)
            if tree is None:
                out[0, s], out[1, s] = exact(a[s], d[s]), 0.0
            else:
                out[:, s] = tree
        return out

    def screen(a: np.ndarray, d: np.ndarray) -> np.ndarray:
        return priced(a.ravel(), d.ravel()).reshape((2, *a.shape))

    def estimates(rows: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
        return priced(a, d)

    def runs(rows: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
        return priced(a, d, parts=True)

    if not kernel.spec.is_independence:
        return _Objective(values, screen)
    return _Objective(values, screen, estimates, runs)


def _by_group(objectives: Sequence[_Objective], which: np.ndarray) -> _Objective:
    """Objective whose group g is problem 0 of objectives[which[g]]."""
    if len(objectives) == 1:
        return objectives[0]

    def paired(method: str, *rows_out: int) -> Callable[..., np.ndarray]:
        # values give one row of output, estimates two: values and radii
        def call(rows: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
            kind, out = which[rows], np.zeros((*rows_out, a.shape[0]))
            for k in np.unique(kind).tolist():
                sel = np.flatnonzero(kind == k)
                out[..., sel] = getattr(objectives[k], method)(np.zeros_like(sel), a[sel], d[sel])
            return out

        return call

    def screen(a: np.ndarray, d: np.ndarray) -> np.ndarray:
        out = np.zeros((2, which.shape[0], a.shape[1]))
        for k in np.unique(which).tolist():
            sel = np.flatnonzero(which == k)
            # a shared row is screened once per kind
            pick = slice(None) if a.shape[0] == 1 else sel
            out[:, sel] = objectives[k].screen(a[pick], d[pick])
        return out

    bracketed, bounded = (getattr(objectives[0], x) is not None for x in ("estimates", "runs"))
    return _Objective(
        paired("values"),
        screen,
        paired("estimates", 2) if bracketed else None,
        paired("runs", 6) if bounded else None,
    )


@dataclass(frozen=True, slots=True)
class NelderMeadResult:
    """Outcome of one lockstep Nelder-Mead batch.

    x:         best vertex of each problem, shape (problems, N)
    fun:       objective at x, the value stored there (scipy's is nan if any vertex is),
               or the lower end of its bracket
    converged: per problem, whether the tolerances were met in time
    nfev:      objective evaluations over the whole batch
    fun_hi:    the upper end of the bracket stored at x; fun itself without one
    """

    x: np.ndarray
    fun: np.ndarray
    converged: np.ndarray
    nfev: int
    fun_hi: np.ndarray

    @property
    def success(self) -> bool:
        """True when every problem converged."""
        return bool(self.converged.all())


def _clip(x: np.ndarray) -> np.ndarray:
    """np.clip(x, 0, 1) in place, bit for bit (-0.0 and nan pass), by two ufuncs."""
    return np.minimum(1.0, np.maximum(0.0, x, out=x), out=x)


def _sort_simplex(
    P: np.ndarray, le: Callable[[np.ndarray, np.ndarray], np.ndarray], first: int = 1
) -> None:
    """Sort each problem's vertices in place, whose first `first` are sorted.

    P[vertex, coordinates then value, problem].  An insertion-sort network:
    for each later vertex j, the pairs (j-1, j), .., (0, 1) swap in turn
    where le(P[i], P[i+1]), whether the value at i is at most that at i+1,
    fails and the value at i+1 is not nan, giving argsort's stable order.
    """
    for j in range(first, P.shape[0]):
        for i in range(j - 1, -1, -1):
            swap = np.greater(P[i + 1, -1] == P[i + 1, -1], le(P[i], P[i + 1]))
            if np.count_nonzero(swap):
                pair = P[i : i + 2]
                pair[...] = np.where(swap, pair[::-1], pair)


def minimize(
    fun: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    maxiter: int,
    xatol: float,
    fatol: float,
    bracket: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> NelderMeadResult:
    """Nelder-Mead over the unit cube on many problems in lockstep.

    `fun(rows, z)` returns the objective of problem rows[i] at z[i]; x0
    holds one start per problem, shape (problems, N).  Each problem runs
    scipy 1.17's bounded Nelder-Mead (`scipy.optimize.minimize` with
    method="Nelder-Mead", bounds [0, 1]^N and these maxiter, xatol and
    fatol) operation for operation.  The live problems are packed in one
    array P[vertex, coordinates then value, problem], compacted when some
    retire, and an insertion sort keeps each simplex in argsort's
    order.  Every operation acts per problem, in scipy's order, so a
    result does not depend on the rest of the batch.  An iteration makes
    one call for every reflection, one for every expansion or contraction
    and, only when some problem shrinks, one for the shrunken vertices.

    Given `bracket(rows, z)`, which returns estimates and radii with each
    value of fun within its radius of its estimate, those calls go to
    bracket, and a point stores the bracket's ends [lo, hi], rounded
    outward for free: rounding is monotone and fun's value is a float, so
    it lies in [fl(est - rad), fl(est + rad)], and is that float where the
    two ends meet.  Every decision (the sort's comparisons, the reflect,
    expand and contract tests, the choice of the trial point and the fatol
    test, which brackets fl(f_i - f_0) by fl(lo_i - hi_0) and
    fl(hi_i - lo_0)) is settled from the brackets where they do not
    overlap.  Where one is still open, one call to fun makes its operands
    exact, and two bitwise-equal points of one problem compare equal
    without one.  So every decision, and every point, is the one the exact
    values give; only the values stored at x may stay brackets, whose
    ends the result's fun and fun_hi hold, and nfev counts the points
    visited, not the exact values that settle brackets.  A problem that
    needed exact values has values tied within its brackets, as a rule
    until it stops, so its later points go to fun directly.
    """
    x0 = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    m, n = x0.shape
    # a point's column: its coordinates, then the ends hi and lo of the
    # bracket of its value, or the value alone (hi == lo) without a bracket
    hi, lo = n, n + (bracket is not None)
    P = np.empty((n + 1, lo + 1, m))
    P[:, :n] = x0.T
    for k in range(n):
        P[k + 1, k] = np.where(x0[:, k] != 0, (1 + _NONZDELT) * x0[:, k], _ZDELT)
    # a step past the upper bound is reflected inside before clipping
    P[:, :n] = np.clip(np.where(P[:, :n] > 1.0, 2.0 - P[:, :n], P[:, :n]), 0.0, 1.0)
    live = np.arange(m)
    sure = np.zeros(m, dtype=bool)

    def evaluate(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The rows hi (and lo) of the points z of problems rows."""
        if bracket is None:
            return fun(rows, z)
        out = np.empty((2, rows.size))
        known = sure[rows]
        if np.count_nonzero(known):
            out[:, known] = fun(rows[known], z[known])
        if not known.all():
            est, rad = bracket(rows[~known], z[~known])
            out[0, ~known], out[1, ~known] = est + rad, est - rad
        return out

    def refine(*points: tuple[np.ndarray, np.ndarray]) -> None:
        """Store, from one call to fun, the values of the points X[:, mask]
        whose brackets are open."""
        picks = [(X, np.flatnonzero(mask & (X[lo] < X[hi]))) for X, mask in points]
        rows = np.concatenate([live[i] for _, i in picks])
        sure[rows] = True
        if rows.size:
            values = fun(rows, np.concatenate([X[:n, i].T for X, i in picks]))
            k = 0
            for X, i in picks:
                X[n:, i] = values[k : k + i.size]
                k += i.size

    def same(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return (X[..., :n, :].view(np.uint64) == Y[:n].view(np.uint64)).all(axis=-2)

    def below(X: np.ndarray, Y: np.ndarray, strict: bool, where=True) -> np.ndarray:
        """Per problem, whether the value of point X is less than that of
        Y, or no greater unless strict; exact where `where` holds."""
        yes = X[hi] < Y[lo] if strict else X[hi] <= Y[lo]
        if hi == lo:
            return yes
        no = X[lo] >= Y[hi] if strict else X[lo] > Y[hi]
        open_ = where & ~(yes | no)
        if np.count_nonzero(open_):
            open_ &= (X[lo] < X[hi]) | (Y[lo] < Y[hi])
            equal = open_ & same(X, Y)
            refine((X, open_ & ~equal), (Y, open_ & ~equal))
            yes = X[hi] < Y[lo] if strict else X[hi] <= Y[lo]
            yes[equal] = not strict
        return yes

    def near(where: np.ndarray) -> np.ndarray:
        """Per problem, whether |fl(f_i - f_0)| <= fatol at every vertex i;
        exact where `where` holds."""
        X, Y = P[1:], P[0]

        def ends() -> tuple[np.ndarray, np.ndarray]:
            return X[:, lo] - Y[hi], X[:, hi] - Y[lo]

        least, most = ends()
        yes = np.maximum(np.abs(least), np.abs(most)) <= fatol
        no = (least > fatol) | (most < -fatol)
        open_ = where & ~no.any(axis=0) & ~(yes | no)
        if np.count_nonzero(open_):
            open_ &= (X[:, lo] < X[:, hi]) | (Y[lo] < Y[hi])
            equal = open_ & same(X, Y)
            redo = open_ & ~equal
            refine(*((P[i + 1], redo[i]) for i in range(n)), (P[0], redo.any(axis=0)))
            least, most = ends()
            yes = (np.maximum(np.abs(least), np.abs(most)) <= fatol) | equal
        return yes.all(axis=0)

    def le(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return below(X, Y, strict=False)

    z = P[:, :n].transpose(0, 2, 1).reshape(-1, n)
    values = evaluate(np.concatenate((live,) * (n + 1)), z)
    P[:, n:] = values.reshape(-1, n + 1, m).transpose(1, 0, 2)
    nfev = m * (n + 1)
    # scipy sorts the initial simplex twice; the sort is stable, so once is the same
    _sort_simplex(P, le)
    # the value rows' test is the fatol test, or with brackets none (but
    # for nan): ``near`` settles that
    tol = np.array([xatol] * n + [fatol if hi == lo else np.inf] * (lo + 1 - n))[:, None]

    x, fmin, fmax = np.empty((m, n)), np.empty(m), np.empty(m)
    converged = np.zeros(m, dtype=bool)
    iterations = 1
    # the reflection and trial points, reallocated only when problems retire
    r, t = np.empty((2, lo + 1, m))
    while live.size:
        ok = np.logical_and.reduce(np.abs(P[1:] - P[0]) <= tol, axis=(0, 1))
        if hi != lo:
            ok &= near(ok & (iterations < maxiter))
        out = ok if iterations < maxiter else np.ones_like(ok)
        if np.count_nonzero(out):
            gone, best = live[out], P[0].compress(out, axis=1)
            converged[gone] = ok[out] & (iterations < maxiter)
            x[gone], fmin[gone], fmax[gone] = best[:n].T, best[lo], best[hi]
            live, P = live[~out], P.compress(~out, axis=2)
            if not live.size:
                break
            r, t = np.empty((2, lo + 1, live.size))
        worst = P[n, :n]
        xbar = np.add.reduce(P[:n, :n], 0) / n
        # scipy's trial points are c * xbar + (1 - c) * worst: reflection
        # c = 2, expansion 3, outside contraction 1.5, inside 0.5
        _clip(np.subtract(2.0 * xbar, worst, out=r[:n]))
        r[n:] = evaluate(live, r[:n].T)
        # whether the reflection lies below vertex 0 (expand), below vertex
        # n-1 (keep it, c = 2: no trial) or below vertex n (contract
        # outside, else inside); the first that holds decides
        expand = below(r, P[0], True)
        keep = below(r, P[n - 1], True, ~expand)
        outside = below(r, P[n], True, ~(expand | keep))
        c = np.where(expand, 3.0, np.where(keep, 2.0, np.where(outside, 1.5, 0.5)))
        _clip(np.add(c * xbar, (1.0 - c) * worst, out=t[:n]))
        trial = (c != 2.0).nonzero()[0]
        t[n:] = r[n:]  # where no trial is made, so that t's values are defined
        t[n:, trial] = evaluate(live[trial], t[:n].take(trial, axis=1).T)
        nfev += live.size + trial.size
        # expansion is taken below the reflection, an outside contraction at
        # or below it, an inside one below the worst vertex
        expand, outside, inside = (c == k for k in (3.0, 1.5, 0.5))
        take_t = (
            (expand & below(t, r, True, expand))
            | (outside & below(t, r, False, outside))
            | (inside & below(t, P[n], True, inside))
        )
        shrink = np.greater(c < 2.0, take_t).nonzero()[0]
        if shrink.size:
            S = P.take(shrink, axis=2)
            S[1:, :n] = _clip(S[0, :n] + _SIGMA * (S[1:, :n] - S[0, :n]))
            z = S[1:, :n].transpose(0, 2, 1).reshape(-1, n)
            values = evaluate(np.concatenate((live[shrink],) * n), z)
            S[1:, n:] = values.reshape(-1, n, shrink.size).transpose(1, 0, 2)
            nfev += z.shape[0]
        P[n] = np.where(take_t, t, r)
        if shrink.size:
            P[..., shrink] = S
        # after a step without shrink only the new last vertex is out of order
        _sort_simplex(P, le, 1 if shrink.size else n)
        iterations += 1

    return NelderMeadResult(x=x, fun=fmin, converged=converged, nfev=nfev, fun_hi=fmax)


def _latin_starts(k: int, ndim: int) -> list[tuple[float, ...]]:
    """k deterministic starts on a Latin pattern over the unit cube."""
    fractions = [(i + 0.5) / k for i in range(k)]
    if ndim == 1:
        return [(f,) for f in fractions]
    perm = list(range(0, k, 2)) + list(range(1, k, 2))
    return [(fractions[i], fractions[perm[i]]) for i in range(k)]


def _least(
    lo: np.ndarray, hi: np.ndarray, exact: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, np.argmin's index of exact values known by brackets, and that value.

    Entry [g, j]'s value lies in [lo, hi] and is lo itself where the two
    meet (or are both nan).  The index is the first of ties, or the first
    nan.  Only contenders, whose lo reaches the least hi of their row and
    whose bracket is open, are evaluated, by exact(mask): every other
    entry lies above the value of the one that least hi brackets, which
    is in hand, so it cannot win.
    """
    redo = lo < hi
    if redo.any():
        redo &= lo <= hi.min(axis=1, keepdims=True)
        lo = lo.copy()
        lo[redo] = exact(redo)
    j = np.argmin(lo, axis=1)
    return j, lo[np.arange(lo.shape[0]), j]


def _run_bounds(
    f: _Objective, a: np.ndarray, d: np.ndarray, sign: float, best: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sign * the estimates of the points a run bound cannot rule out, and radii.

    Row g's points (a[g, j], d[g, j]) share one a, and fall into runs of
    nondecreasing d; best[g] is sign * a value the row has in hand, or inf.
    f.runs prices each run's two ends, then, in one call per round, the
    ends of the _RUN_SPLIT parts that split each interval between two
    priced points i < j whose inner points are open.  An interval loses
    its inner points where
    the bound below of their sign * values exceeds B, the least of best and
    the row's upper bracket ends sign * est + rad; where that bound is not
    finite (a block of exact values, a run with a negative load or with
    slices to check, as ``price_estimates`` says) every inner point is
    priced, and otherwise the interval splits again.  The ruled-out points
    get +inf, radius 0; the rest their brackets.

    The bound is centered (Du & Kearfott, J. Global Optim. 5, 1994): it
    follows the price's slope in x = 1/d, which is near 0 on a flat run
    even where the price's positive and negative parts are not.  Let
    d_i <= d_i+1 <= d <= d_j-1 <= d_j in a run whose computed node loads
    L_k are all >= 0, so x_j <= x <= x_i; c and rho are the weight rows
    (``_price_weights``), c+- = max(+-c, 0), f_k(d) the computed level
    exp(-fl(L_k / d)), g_k(x) = e**(-L_k x) (0 where L_k = +inf), P(x) =
    c @ g(x), u = 2**-53, mu = ``_sum_margin(k)`` for the dot products of
    ``price_estimates``, and tau = 4 mu + 2**-41.

    1. exp and the division by d.  fl(L_k / d) is within u of L_k x, and
       exp within 2**-46 of its result, or 2**-1075 where that is
       subnormal.  As e**(708u) - 1 < 2**-43.4, |f_k - g_k| <= delta g_k +
       eta, delta = 2**-43, eta = 2**-1060; as y e**-y < 2**-1011 for
       y = L_k x > 708, L_k |f_k - g_k| <= delta L_k g_k + 2**-1010 d.
    2. The ends.  |P(x_e) - est_e| <= sigma_e = tau (mag_e + rad_e) +
       2**(2T - 650) at each end e: the dot product rounds c @ f within
       mu mag (|c| <= c+ entry by entry), and by 1 c @ f is within
       delta mag (1 + 2**-40) + eta sum|c| of P.  Every weight lies below
       2**(T + 403), as q <= 1 and payouts are at most 2**400.
    3. The slope.  P'(x) = D-(x) - D+(x), D+-(x) = (c+- * L) @ g(x), and
       each g_k falls in x; on [x_j, x_i] the slope so lies in [lo, up],
       lo = D-(x_i) - D+(x_j), up = D-(x_j) - D+(x_i).  The rows D+- of
       ``price_estimates`` expand L = t a**2 - 2a cum1 + cum2: the products
       c+- t, c+- cum1 and c+- cum2 round by u, their dot products over f
       by mu, the load itself and the recombination with a by 10u, all of
       the magnitude M+- with |a| for -a; with 1, each row is within
       omega = tau (M+ + M-) + 2**(2T - 600) (1 + d) of D+-(x), which
       widens lo and up by omega_i + omega_j.
    4. The centered form.  The line through (x_j, P_j) of slope up and
       that through (x_i, P_i) of slope lo lie above P on [x_j, x_i], and
       so does their mean of weights lam and 1 - lam for any lam in
       [0, 1].  The mean is linear: its top over the inner points is at
       x_i+1 or x_j-1.  It is least where the mean is flat, lam = -lo /
       (up - lo) clipped to [0, 1], or with lam = 0 where the second line
       is the lower at both inner ends, 1 where the first is; any lam
       gives a bound, and 1 - lam is exact once lam is 1 less it.  For a
       minimum -P, with its slopes -up and -lo, takes P's place.
    5. The inner point.  Its exact price is within rho @ f(d) of c @ f(d)
       (``price_estimates``' radius), and c @ f(d) within the terms of 2
       at d of P(x); by 1, as the levels fall in x, both are at most
       those at d_j: within rad_j + sigma_j together, with 2 delta + 2 mu
       of rad_j to spare in tau.

    Hence sign * price >= -(top + rad_j + sigma_j + err), top the bound of
    4 on -sign * P from q_e = sigma_e - sign * est_e and the widened
    slopes.  err = 2**-48 (|q_i| + |q_j| + h (|lo| + |up|) + rad_j +
    sigma_j) + 2**-1060 (1 + |lo| + |up|), h = x_i - x_j, covers the
    bound's own roundings, fewer than 16 of u on those terms (a distance
    in x is (d_b - d_a) / d_b / d_a, within 3u), and its underflows.  A
    ruled-out point's sign * value so lies strictly above B, which
    brackets a value in hand: it can neither win nor tie, and ``_least``
    picks the same point and value without it.
    """
    rows, m = a.shape
    # the intervals (ends i < j) whose inner points are open, points
    # indexed row by row: at first the runs, which end where d falls and
    # at each row's end
    first = np.ones((rows, m), dtype=bool)
    first[:, 1:] = d[:, 1:] < d[:, :-1]
    i = np.flatnonzero(first)
    ij = np.array((i, np.append(i[1:], rows * m) - 1))
    a, d = a.ravel(), d.ravel()
    # the priced points' rows of f.runs, in the order priced, and each
    # point's column there
    table, slot = np.empty((6, 0)), np.empty(rows * m, dtype=np.intp)
    priced = np.zeros(rows * m, dtype=bool)
    bound = best.copy()
    # the points to price, ascending: at first the runs' ends
    new = ij.T.ravel()
    while True:
        new = new[np.append(True, new[1:] != new[:-1]) & ~priced[new]]
        if not new.size:
            break
        slot[new] = np.arange(table.shape[1], table.shape[1] + new.size)
        priced[new] = True
        r = new // m
        found = f.runs(r, a[new], d[new])
        np.fmin.at(bound, r, sign * found[0] + found[1])
        table = np.concatenate((table, found), axis=1)
        ij = ij[:, ij[1] - ij[0] > 1]
        i, j = ij
        low = _centered_bound(sign, d[np.array((i, i + 1, j - 1, j))], table[:, slot[ij]])
        cut = low > bound[i // m]
        open_ = np.isfinite(low)
        whole = [np.arange(x + 1, y) for x, y in ij[:, ~(cut | open_)].T.tolist()]
        ij = ij[:, open_ & ~cut]
        # _RUN_SPLIT parts each, their inner ends priced with the points of
        # the whole intervals; parts of fewer points have ends at their
        # starts, and no inner points
        ends = ij[0, :, None] + (ij[1] - ij[0])[:, None] * np.arange(_RUN_SPLIT + 1) // _RUN_SPLIT
        ij = np.array((ends[:, :-1].ravel(), ends[:, 1:].ravel()))
        new = np.sort(np.concatenate([ends[:, 1:-1].ravel()] + whole))
    v, rad = np.full(rows * m, np.inf), np.zeros(rows * m)
    est, rad[priced] = table[:2, slot[priced]]
    v[priced] = sign * est
    return v.reshape(rows, m), rad.reshape(rows, m)


def _centered_bound(sign: float, d: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The bound below of sign * the prices inside an interval of a run.

    d holds, shape (4, n), d_i <= d_i+1 <= d_j-1 <= d_j: the interval's
    ends and its first and last inner points.  ends holds the ends' rows
    (est, rad, D+, D-, sigma, omega) of ``_Kernel.price_estimates``, shape
    (6, 2, n).  ``_run_bounds`` gives the chain of inequalities; the bound
    is nan or infinite where a row is.
    """
    est, rad, plus, minus, sigma, omega = ends
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the slope of -sign * P in x = 1/d lies in [lo, up]
        wide = omega[0] + omega[1]
        lo, up = minus[0] - plus[1] - wide, minus[1] - plus[0] + wide
        if sign > 0:
            lo, up = -up, -lo
        q_i, q_j = sigma - sign * est
        # the lines through x_j and x_i at the inner points x_i+1 >= x_j-1
        # (rows 0 and 1), by their distances in x from the ends
        from_j = (d[3] - d[1:3]) / d[3] / d[1:3]
        to_i = (d[1:3] - d[0]) / d[1:3] / d[0]
        line_j, line_i = q_j + up * from_j, q_i - lo * to_i
        # the weight of line_j in the flat mean, or 0 where line_i is the
        # lower at both points, or 1 where line_j is
        lam = np.minimum(np.maximum(-lo / (up - lo), 0.0), 1.0)
        lam = np.where(line_j[1] >= line_i[1], 0.0, np.where(line_j[0] <= line_i[0], 1.0, lam))
        lam = 1.0 - (1.0 - lam)
        top = np.maximum(*(lam * line_j + (1.0 - lam) * line_i))
        # the bound's own roundings, and underflows
        slack, steep = rad[1] + sigma[1], abs(lo) + abs(up)
        h = from_j[0] + to_i[0]
        err = 2.0**-48 * (abs(q_i) + abs(q_j) + h * steep + slack) + 2.0**-1060 * (1.0 + steep)
        return -(top + slack + err)


def _first_best(
    f: _Objective, groups: int, a: np.ndarray, d: np.ndarray, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per group, the index and value of the first best of its candidate points.

    Group g's candidates are (a[g, j], d[g, j]), shape (groups, n), or one
    row (1, n) that every group shares.  The index is np.argmin's of
    sign * values: the first of ties, or the first nan.  Column tiles of
    at most _TREE_PAIRS (point, group) pairs go through f.screen, and a
    running first best carries across tiles, an earlier tile keeping ties:
    ``_least`` picks it from the running best and the tile's brackets.
    Where f has run bounds and every row pins a (under independence, each
    step of an a-sweep), ``_run_bounds`` prices only the points of a tile
    that its bound cannot rule out, one row per group, in the tiles where
    some run has inner points to rule out: three or more.
    """
    group = np.arange(groups)
    best, val = np.zeros(groups, dtype=np.intp), np.full(groups, np.inf)
    runs = f.runs is not None and (a == a[:, :1]).all()
    if runs:
        a, d = (np.broadcast_to(x, (groups, x.shape[1])) for x in (a, d))
    step = max(1, _TREE_PAIRS // groups)
    for i in range(0, a.shape[1], step):
        s = slice(i, i + step)
        rise = d[:, s][:, 1:] >= d[:, s][:, :-1] if runs else None
        if runs and np.count_nonzero(rise[:, 1:] & rise[:, :-1]):
            v, rad = _run_bounds(f, a[:, s], d[:, s], sign, val)
        else:
            est, rad = f.screen(a[:, s], d[:, s])
            v = sign * np.broadcast_to(est, (groups, est.shape[-1]))
        # values of radius 0, as the per-path G's are, are their own brackets
        lo = hi = np.concatenate((val[:, None], v), axis=1)
        if rad.any():
            with np.errstate(over="ignore"):
                lo, hi = (np.concatenate((val[:, None], v + x * rad), axis=1) for x in (-1.0, 1.0))

        def exact(redo: np.ndarray) -> np.ndarray:
            at = (group[:, None], a[:, s], d[:, s])
            return sign * f.values(*(np.broadcast_to(x, v.shape)[redo[:, 1:]] for x in at))

        j, val = _least(lo, hi, exact)
        new = j > 0
        best[new] = j[new] - 1 + i
    return best, sign * val


def _optimize_ad(
    f: _Objective,
    groups: int,
    a_iv: tuple[float, float] | Sequence[tuple[float, float]],
    d_iv: tuple[float, float] | Sequence[tuple[float, float]],
    cfg: OptimizerConfig,
    maximize: bool,
    extra_points: Sequence[tuple[float, float]] = (),
) -> list[tuple[float, float, float]]:
    """Optimize a smooth objective over an (a, d) rectangle, per group.

    A group is a problem of f: one path of the robust search, or one
    single-model price.  a_iv and d_iv are a (lo, hi) interval shared by
    every group or one per group, shape (groups, 2); the free axes (those
    with hi > lo) must be the same in every group.  Each group's
    candidates are its rectangle's corners and midpoint, the caller's
    extras, the points of the dense grid (grid, hybrid) and the
    Nelder-Mead results (nelder_mead, hybrid) from the Latin starts and
    the group's best point of a coarse screen.  ``_first_best`` screens
    the other candidates, one row per group or one shared row if all
    rectangles are equal; every group's searches run in one lockstep
    ``minimize``, which settles its decisions from f's estimates when f
    has them and a is pinned.  The first best of a group's candidates is
    then ``_least``'s, as in the screen, so only contenders are evaluated
    exactly.  Returns, per group, the first best as (value, a, d), the
    value f gave at that point.
    """
    sign = -1.0 if maximize else 1.0
    # per group, axis (a, d) and end (lo, hi)
    ends = np.stack(
        [np.broadcast_to(np.asarray(iv, dtype=float), (groups, 2)) for iv in (a_iv, d_iv)],
        axis=1,
    )
    lo, hi = ends[..., 0], ends[..., 1]
    width = hi - lo
    spans = hi > lo
    if not (spans == spans[0]).all():
        raise ValueError("every group must have the same free axes")
    free = np.flatnonzero(spans[0]).tolist()
    # the group of each row of the candidate arrays: one row that every
    # group shares when all rectangles are equal
    owners = np.arange(1 if (ends == ends[0]).all() else groups)
    every_group = np.arange(groups)
    # a rectangle that every group shares maps with its own floats, not
    # gathered per point
    shared = (lo[0].tolist(), width[0].tolist()) if owners.size == 1 else None
    columns = [(i, free.index(i) if i in free else None) for i in (0, 1)]

    def to_point(z: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # unit-cube coordinates z of groups g to (a, d); every z given here
        # (screen grid, clipped simplex vertices, minimize's x) is in the cube
        base, scale = shared or (lo[g].T, width[g].T)
        a, d = (
            np.full(z.shape[0], base[i]) if j is None else base[i] + z[:, j] * scale[i]
            for i, j in columns
        )
        return a, d

    # each row's fixed points, axis (a, d) by point: the corners of the
    # free axes, of (lo, lo), (lo, hi), (hi, lo) and (hi, hi), the
    # midpoint, then the extras clipped to the rectangle
    low, high = lo[owners, :, None], hi[owners, :, None]
    at_hi = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
    corners = np.where(at_hi[:, (at_hi <= spans[0, :, None]).all(axis=0)], high, low)
    extras = np.minimum(np.maximum(np.reshape(extra_points, (-1, 2)).T, low), high)
    a, d = np.moveaxis(np.concatenate((corners, 0.5 * (low + high), extras), axis=2), 1, 0)
    if free and cfg.method in ("grid", "hybrid"):
        n = cfg.grid_points_per_dim
        # each row's grid axes, shape (rows, n), or (rows, 1) if fixed, then
        # their meshgrid with indexing="ij", flattened
        a_grid, d_grid = (
            np.linspace(low[:, i, 0], high[:, i, 0], n, axis=1) if i in free else low[:, i]
            for i in (0, 1)
        )
        a = np.concatenate((a, np.repeat(a_grid, d_grid.shape[1], axis=1)), axis=1)
        d = np.concatenate((d, np.tile(d_grid, a_grid.shape[1])), axis=1)
    # per group, the first best of the fixed points and the grid, then of
    # each Nelder-Mead run, in this order
    i, value = _first_best(f, groups, a, d, sign)
    a, d = (np.broadcast_to(x, (groups, x.shape[1]))[every_group, i] for x in (a, d))
    # each group's candidates, and the ends of the brackets of sign * their
    # values: the screen's first best is exact, both ends
    first = sign * value[:, None]
    candidates, lows, highs = [np.stack((a, d), axis=1)[:, None]], [first], [first]

    failed = np.zeros(groups, dtype=bool)
    if free and cfg.method in ("nelder_mead", "hybrid"):
        # space-filling screen: its best point seeds one extra polish run,
        # so multistart locality cannot miss a basin the screen can see
        starts = np.array(_latin_starts(cfg.multistarts, len(free)))
        n_screen = _SCREEN_POINTS_PER_DIM if len(free) == 2 else _SCREEN_POINTS_PER_DIM**2
        axes = [np.linspace(0.0, 1.0, n_screen)] * len(free)
        mesh = np.meshgrid(*axes, indexing="ij") if len(free) == 2 else axes
        zz = np.stack([m.ravel() for m in mesh], axis=1)
        a, d = to_point(np.tile(zz, (owners.size, 1)), np.repeat(owners, zz.shape[0]))
        i, _ = _first_best(f, groups, a.reshape(owners.size, -1), d.reshape(owners.size, -1), sign)
        screened = zz[i]
        x0 = np.concatenate(
            (np.broadcast_to(starts, (groups, *starts.shape)), screened[:, None, :]),
            axis=1,
        )
        per_group = x0.shape[1]

        def fun(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
            g = rows // per_group
            return sign * f.values(g, *to_point(z, g))

        # brackets pay where a is pinned, as on each step of an a-sweep:
        # there a group's estimates form its load once.  With a free, the
        # price's flat ridge in a leaves brackets open near convergence,
        # and settling them cost single searches more than they saved
        lazy = f.estimates is not None and free == [1]

        def bracket(rows: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            g = rows // per_group
            est, rad = f.estimates(g, *to_point(z, g))
            return sign * est, rad

        res = minimize(
            fun,
            x0.reshape(-1, len(free)),
            # scipy counts the initial simplex as iteration 1
            cfg.max_iters + 1,
            _XATOL,
            cfg.tolerance,
            bracket=bracket if lazy else None,
        )
        polished = to_point(res.x, np.repeat(every_group, per_group))
        candidates.append(np.stack(polished, axis=1).reshape(groups, per_group, 2))
        lows.append(res.fun.reshape(groups, per_group))
        highs.append(res.fun_hi.reshape(groups, per_group))
        failed = ~res.converged.reshape(groups, per_group).any(axis=1)

    cand = np.concatenate(candidates, axis=1)
    lows, highs = np.concatenate(lows, axis=1), np.concatenate(highs, axis=1)
    # a candidate equal, bit for bit, to an earlier one of its group loses
    # their tie, so it is dropped unpriced
    a_bits, d_bits = cand.view(np.uint64).transpose(2, 0, 1)
    same = (a_bits[:, :, None] == a_bits[:, None]) & (d_bits[:, :, None] == d_bits[:, None])
    repeat = (same & np.tri(cand.shape[1], k=-1, dtype=bool)).any(axis=2)
    lows[repeat] = highs[repeat] = np.inf

    def exact(redo: np.ndarray) -> np.ndarray:
        return sign * f.values(np.nonzero(redo)[0], *cand[redo].T)

    # only contenders and the winner are evaluated exactly
    best, best_val = _least(lows, highs, exact)
    best_val = sign * best_val
    bad = np.flatnonzero(failed | ~np.isfinite(best_val))
    if bad.size:
        g = bad[0]
        if failed[g]:
            raise NumericalError(
                f"Nelder-Mead failed to converge within {cfg.max_iters} iterations "
                f"on all {per_group} starts",
                best_value=float(best_val[g]),
            )
        raise NumericalError(f"objective returned non-finite value {float(best_val[g])}")
    point = cand[every_group, best]
    return list(zip(best_val.tolist(), point[:, 0].tolist(), point[:, 1].tolist()))


def conditional_values(
    prices: np.ndarray,
    q: np.ndarray,
    theta: Theta,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
) -> np.ndarray:
    """G(path, theta) on every row of the prices of one path or all 2**T (``_Kernel``)."""
    kernel = _Kernel(prices, q, theta.b, theta.c, spec, benefit, market)
    rows = np.arange(q.shape[0])
    a, d = np.full(rows.shape, theta.a), np.full(rows.shape, theta.d)
    return kernel.values(rows, a, d)


def conditional_value(
    path: Path,
    theta: Theta,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
) -> float:
    """Discounted conditional contract value G(path, theta)."""
    prices, q = np.array([path.prices]), np.array([path.q_weight])
    return float(conditional_values(prices, q, theta, spec, benefit, market)[0])


def _pathwise_optima(
    prices: np.ndarray,
    q: np.ndarray,
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
    extra_thetas: Sequence[Theta],
) -> list[tuple[float, Theta]]:
    """Supremum of the conditional value over the box on each price row.

    (b, c) are pinned to their lower bounds by the monotone certificate;
    the remaining (a, d) rectangle of every path is searched in one
    `_optimize_ad` call.
    """
    b, c = box.b[0], box.c[0]
    kernel = _Kernel(prices, q, b, c, spec, benefit, market)
    optima = _optimize_ad(
        _path_objective(kernel),
        q.shape[0],
        box.a,
        box.d,
        cfg,
        maximize=True,
        extra_points=[(t.a, t.d) for t in extra_thetas],
    )
    return [(value, Theta(a, b, c, d)) for value, a, d in optima]


def pathwise_esssup(
    path: Path,
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
    extra_thetas: Sequence[Theta] = (),
) -> tuple[float, Theta]:
    """Per-path supremum of the conditional value over the box."""
    prices, q = np.array([path.prices]), np.array([path.q_weight])
    [optimum] = _pathwise_optima(prices, q, box, spec, benefit, market, cfg, extra_thetas)
    return optimum


def robust_price(
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
    extra_thetas: Sequence[Theta] = (),
) -> EvaluationReport:
    """Worst-case price: q-weighted per-path suprema, robust side only.

    Every path is searched at once; path results are combined by an
    exact sum in ascending path-index order.
    """
    prices, q = path_arrays(market)
    optima = _pathwise_optima(prices, q, box, spec, benefit, market, cfg, extra_thetas)
    per_path = tuple(
        PathOptimum(index, weight, value, theta)
        for index, (weight, (value, theta)) in enumerate(zip(q.tolist(), optima))
    )
    # one sum per call, so _fsum_rows would gain nothing over fsum here
    total = math.fsum(opt.q_weight * opt.value for opt in per_path)
    return EvaluationReport(robust_price=total, per_path=per_path)


def classical_price(
    theta: Theta,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
) -> float:
    """Price under one fixed hazard model: E_Q of the conditional value."""
    kernel = _Kernel(*path_arrays(market), theta.b, theta.c, spec, benefit, market)
    a, d = np.array([theta.a]), np.array([theta.d])
    return float(_price_objective(kernel).values(np.zeros(1, dtype=np.intp), a, d)[0])


def _optimize_classical(
    boxes: Sequence[ParamBox],
    benefits: Sequence[BenefitSpec],
    spec: CopulaSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
    maximize: bool,
) -> list[tuple[float, Theta]]:
    """Extreme single-model price of each (box, benefit) pair, one lockstep search.

    Pairs that pin the same (b, c) and share a benefit share a kernel.
    """
    prices, q = path_arrays(market)
    # monotone certificate: worst case pins (b, c) low, best case high
    pins = [(box.b[0], box.c[0]) if maximize else (box.b[1], box.c[1]) for box in boxes]
    kinds: dict[tuple[float, float, BenefitSpec], int] = {}
    which = np.array([
        kinds.setdefault((b, c, benefit), len(kinds))
        for (b, c), benefit in zip(pins, benefits)
    ])
    objectives = [
        _price_objective(_Kernel(prices, q, b, c, spec, benefit, market))
        for b, c, benefit in kinds
    ]
    optima = _optimize_ad(
        _by_group(objectives, which),
        len(boxes),
        [box.a for box in boxes],
        [box.d for box in boxes],
        cfg,
        maximize=maximize,
    )
    return [(value, Theta(a, b, c, d)) for (value, a, d), (b, c) in zip(optima, pins)]


def sup_classical_batch(
    boxes: Sequence[ParamBox],
    benefits: Sequence[BenefitSpec],
    spec: CopulaSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
) -> list[tuple[float, Theta]]:
    """``sup_classical`` of each (box, benefit) pair, bit for bit, in one search."""
    if len(boxes) != len(benefits):
        raise ContractError(f"{len(boxes)} boxes but {len(benefits)} benefits")
    if not boxes:
        return []
    return _optimize_classical(boxes, benefits, spec, market, cfg, maximize=True)


def sup_classical(
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
) -> tuple[float, Theta]:
    """Largest single-model price over the box, with its attaining point."""
    [optimum] = _optimize_classical([box], [benefit], spec, market, cfg, maximize=True)
    return optimum


def inf_classical(
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
) -> tuple[float, Theta]:
    """Smallest single-model price over the box, with its attaining point."""
    [optimum] = _optimize_classical([box], [benefit], spec, market, cfg, maximize=False)
    return optimum


def evaluate(
    box: ParamBox,
    spec: CopulaSpec,
    benefit: BenefitSpec,
    market: MarketParams,
    cfg: OptimizerConfig,
) -> EvaluationReport:
    """Full robust-versus-classical evaluation.

    The classical argmax is injected as a candidate into every per-path
    search, which guarantees the domination robust >= sup_classical holds
    in floating point, not just in theory.
    """
    sup_val, theta_star = sup_classical(box, spec, benefit, market, cfg)
    robust = robust_price(box, spec, benefit, market, cfg, extra_thetas=(theta_star,))
    return EvaluationReport(
        robust_price=robust.robust_price,
        per_path=robust.per_path,
        sup_classical=sup_val,
        argmax_outer=theta_star,
    )
