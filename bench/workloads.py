"""Seeded job streams for the three benchmark workloads.

A job is one design question about one exponent set A.  Each workload is an
endless stream of jobs drawn from ``random.Random(seed)``: the same seed gives
the same jobs.  The stream is cut into rounds, and each round holds one job
per stratum of the workload (a family or shape, a field order q, a number of
variables m and a size range), in a seeded order.  A run stops after a fixed
number of seconds, not a fixed number of rounds, so the strata are what keep
the mix of cheap and costly jobs, and with it the medians, the same from seed
to seed.

The package receives only the generated parameters and exponent lists.  Set
sizes, square supports and enumeration routes are worked out here, with numpy
and plain Python, independently of the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

WORKLOADS = ("design_scale", "exact_oracle", "irregular_sets")

EXACT_BUDGET = 10**7  # the class budget passed explicitly to exact_min_distance

# Field orders whose tables each workload builds during set-up.
FIELDS = {
    "design_scale": (8, 9, 11, 13, 16, 25, 27, 32),
    "exact_oracle": (2, 3, 4, 5, 7, 8, 9, 11, 13),
    "irregular_sets": (7, 8, 9, 11, 13, 16),
}


@dataclass(frozen=True)
class Job:
    """One design question: build A, then run the unrolled params pipeline.

    ``family`` names a constructor in ``squarecodes.families`` called with
    ``args``; when it is None, A is ``MonomialSet(q, m, exponents)``.
    ``design_d`` (half-hyperbolic jobs) asks for the square-design checks
    against ``hyperbolic_set(q, m, design_d)``.  ``companion`` is the
    ``(q, exponents)`` of the two-variable set whose Schur identity an
    exact_oracle job checks.
    """

    jid: int
    workload: str
    stratum: str
    q: int
    m: int
    family: str | None = None
    args: tuple = ()
    exponents: tuple = ()
    design_d: int | None = None
    companion: tuple | None = None

    def describe(self) -> str:
        if self.family is not None:
            return f"{self.family}{self.args}"
        return f"MonomialSet(q={self.q}, m={self.m}, k={len(self.exponents)})"

    def to_json(self) -> dict:
        return {
            "job": self.jid,
            "stratum": self.stratum,
            "q": self.q,
            "m": self.m,
            "set": self.describe(),
        }


def jobs(workload: str, seed: int):
    """The endless job stream of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = _MAKERS[workload]
    jid = 0
    for spec in _ANCHORS[workload]:
        yield Job(jid, workload, "anchor", **spec)
        jid += 1
    while True:
        strata = list(_ROUNDS[workload])
        rng.shuffle(strata)
        for shape, q, m, lo, hi in strata:
            stratum = f"{shape}:{q}^{m}:{lo}-{hi}"
            yield Job(jid, workload, stratum, q, m, **make(rng, shape, q, m, lo, hi))
            jid += 1


def warmup_jobs(workload: str) -> list[Job]:
    """A few tiny fixed jobs per workload: set-up warm-up and self-test input."""
    return [Job(-1 - i, workload, "warmup", **spec) for i, spec in enumerate(_WARMUP[workload])]


# ---------------------------------------------------------------------------
# exponent-set arithmetic done here, apart from the package
# ---------------------------------------------------------------------------

def folded_square(vecs, q: int, m: int) -> set:
    """The square support fold(A + A), by OR-ing copies of A's indicator
    shifted by each a in A over the doubled box [0, 2q-2]^m."""
    pts = np.asarray(sorted(vecs), dtype=np.int64).reshape(-1, m)
    indicator = np.zeros((q,) * m, dtype=bool)
    indicator[tuple(pts.T)] = True
    sums = np.zeros((2 * q - 1,) * m, dtype=bool)
    for a in pts:
        sums[tuple(slice(c, c + q) for c in a)] |= indicator
    unfolded = np.argwhere(sums)
    folded = np.where(unfolded == 0, 0, (unfolded - 1) % (q - 1) + 1)
    return set(map(tuple, np.unique(folded, axis=0).tolist()))


def _down_set(corners, q: int, m: int) -> list:
    return [
        v
        for v in product(range(q), repeat=m)
        if any(all(c <= t for c, t in zip(v, corner)) for corner in corners)
    ]


def route_classes(q: int, n: int, k: int) -> tuple[str, int]:
    """The route exact_min_distance takes for a rank-k code of length n.

    Primal walk when (q^k - 1)/(q - 1) fits the budget, else the dual walk
    when (q^(n-k) - 1)/(q - 1) fits, else a refusal; the count is the number
    of projective classes walked.
    """
    primal = (q**k - 1) // (q - 1)
    if primal <= EXACT_BUDGET:
        return "primal", primal
    dual = (q ** (n - k) - 1) // (q - 1)
    if dual <= EXACT_BUDGET:
        return "dual", dual
    return "refused", 0


@lru_cache(maxsize=None)
def _sorted_stat(kind: str, q: int, m: int) -> np.ndarray:
    """Per-point statistic of a family's membership test, sorted so that the
    set of the k best points is a prefix (ties are resolved by the caller)."""
    if kind == "halfhyp":
        pts = np.indices(((q - 1) // 2 + 1,) * m).reshape(m, -1)
        return np.sort(np.prod(q - 2 * pts, axis=0))[::-1]
    pts = np.indices((q,) * m).reshape(m, -1)
    if kind == "rm":
        return np.sort(pts.sum(axis=0))
    return np.sort(np.prod(q - pts, axis=0))[::-1]  # hyp


def _prefix_param(stat: np.ndarray, target: int, descending: bool) -> tuple[int, int]:
    """Threshold admitting the target-th best point, and the size it gives."""
    t = int(stat[min(target, stat.size) - 1])
    k = int(np.count_nonzero(stat >= t) if descending else np.count_nonzero(stat <= t))
    return t, k


# ---------------------------------------------------------------------------
# design_scale: large lower sets from every family
# ---------------------------------------------------------------------------

# Each stratum is (family or shape, q, m, lo, hi).  On design_scale and
# irregular_sets [lo, hi] bounds the set size k; a square support costs ~k^2
# microseconds, so the ranges are narrow and the mix, not the seed, decides
# what a round costs.  On exact_oracle [lo, hi) bounds the projective classes
# walked for A plus its square.  Strata of similar cost are grouped, and
# the groups sized, so that the median and the p90 of the solved jobs fall
# well inside one group each, not on the edge between two groups of another
# cost.  Half-hyperbolic and weighted strata stay on grids where Algorithm 1
# (~13 us per doubled point) and weighted_rm_set (~11 us per point) are
# cheap; the anchor job carries the large-k tail of the square support.
_LIGHT, _MEDIUM, _HEAVY = (1, 5_000), (60_000, 120_000), (1_300_000, 1_600_000)
_ROUNDS = {
    "design_scale": (
        # ~0.04 s
        ("rm", 25, 2, 140, 160), ("rm", 32, 2, 140, 160), ("rm", 8, 4, 120, 130),
        ("hyp", 13, 3, 140, 160), ("hyp", 16, 3, 140, 160), ("wrm_even", 27, 2, 140, 160),
        # 0.07 to 0.12 s
        ("halfhyp", 25, 2, 140, 160), ("halfhyp", 32, 2, 140, 160), ("hyp", 32, 3, 140, 160),
        # ~0.13 s: the median
        ("rm", 27, 2, 280, 320), ("rm", 27, 2, 280, 320), ("rm", 27, 2, 280, 320), ("rm", 27, 2, 280, 320),
        # ~0.17 s
        ("hyp", 9, 4, 280, 320), ("wrm", 13, 3, 280, 320),
        # ~0.26 s: the p90
        ("halfhyp", 13, 3, 140, 160), ("halfhyp", 13, 3, 140, 160), ("halfhyp", 13, 3, 140, 160),
        ("wrm", 25, 3, 140, 160), ("wrm", 25, 3, 140, 160), ("wrm", 25, 3, 140, 160),
        # ~0.6 s, and a refusal
        ("hyp", 11, 4, 560, 640), ("refused", 16, 4, 0, 0),
    ),
    "exact_oracle": (
        ("rm", 3, 2, *_LIGHT), ("rm", 5, 2, *_LIGHT), ("lower", 2, 3, *_LIGHT), ("lower", 7, 2, *_LIGHT),
        ("lower", 4, 2, *_MEDIUM),
        # ~0.05 s: the median
        ("lower", 5, 2, *_MEDIUM), ("lower", 5, 2, *_MEDIUM), ("lower", 5, 2, *_MEDIUM),
        ("lower", 3, 3, *_MEDIUM), ("lower", 3, 3, *_MEDIUM),
        # ~0.4 s: the p90
        ("lower", 4, 2, *_HEAVY), ("lower", 4, 2, *_HEAVY),
        ("refused", 7, 2, 0, 0),
    ),
    "irregular_sets": (
        ("divisor", 7, 2, 40, 60), ("sparse", 9, 2, 40, 60), ("stray", 8, 2, 40, 60),
        ("stray", 13, 2, 90, 110), ("divisor", 16, 2, 90, 110),
        # 0.11 to 0.14 s: the median
        ("sparse", 11, 3, 60, 80), ("shifted", 7, 3, 120, 160), ("divisor", 13, 3, 60, 80),
        ("sparse", 8, 3, 120, 160), ("stray", 9, 3, 120, 160),
        # ~0.17 s: the p90
        ("shifted", 16, 3, 60, 80), ("shifted", 16, 3, 60, 80),
    ),
}

_ANCHORS = {
    # the ROADMAP baseline: square_support of this set takes ~4 s (k = 2148)
    "design_scale": [dict(q=25, m=3, family="half_hyperbolic_set", args=(25, 3, 25))],
    # the ROADMAP baseline: exact_min_distance on this q=4, k=12 set takes ~1.4 s
    "exact_oracle": [
        dict(q=4, m=2, exponents=tuple(_down_set([(3, 2)], 4, 2)), companion=(13, ((0, 0), (0, 1), (1, 0))))
    ],
    "irregular_sets": [],
}

_WARMUP = {
    "design_scale": [
        dict(q=8, m=2, family="reed_muller_set", args=(8, 2, 3)),
        dict(q=11, m=2, family="half_hyperbolic_set", args=(11, 2, 12), design_d=12),
        dict(q=9, m=3, family="hyperbolic_set", args=(9, 3, 300)),
    ],
    "exact_oracle": [
        dict(q=3, m=2, exponents=tuple(_down_set([(2, 1)], 3, 2)), companion=(5, ((0, 0), (1, 0), (0, 1)))),
        dict(q=2, m=3, family="reed_muller_set", args=(2, 3, 1), companion=(9, ((0, 0), (1, 0)))),
    ],
    "irregular_sets": [
        dict(q=7, m=2, exponents=((1, 1), (1, 2), (2, 1))),
        dict(q=7, m=2, exponents=((0, 0), (0, 3), (3, 0), (3, 3))),
        dict(q=8, m=2, exponents=((0, 0), (0, 1), (1, 0), (5, 6))),
    ],
}

_MAX_TRIES = 10_000  # a stratum that cannot be met is a bug in _ROUNDS


def _design_job(rng: random.Random, family: str, q: int, m: int, lo: int, hi: int) -> dict:
    if family == "refused":
        # k ~ 64000: the box witness of the certificate would need more than
        # 2^26 matrix entries, so certified_min_distance raises BudgetExceeded
        return dict(family="hyperbolic_set", args=(q, m, rng.randint(48, 96)))
    for _ in range(_MAX_TRIES):
        target = rng.randint(lo, hi)
        if family == "wrm_even":
            sizes = {d: _wrm_even_size(q, d) for d in range(2, q, 2)}
            d = min(sizes, key=lambda x: abs(sizes[x] - target))
            args, k = (q, d, rng.choice(("b1", "b2"))), sizes[d]
        elif family == "wrm":
            weights = tuple(rng.randint(1, 3) for _ in range(m))
            stat = np.sort(np.asarray(weights) @ np.indices((q,) * m).reshape(m, -1))
            s, k = _prefix_param(stat, target, descending=False)
            args = (q, m, s, weights)
        else:
            t, k = _prefix_param(_sorted_stat(family, q, m), target, descending=family != "rm")
            args = (q, m, t)
        if lo <= k <= hi:
            design_d = args[2] if family == "halfhyp" else None
            return dict(family=_CONSTRUCTORS[family], args=args, design_d=design_d)
    raise RuntimeError(f"no {family} set at q={q}, m={m} has {lo} <= k <= {hi}")


_CONSTRUCTORS = {
    "rm": "reed_muller_set",
    "wrm": "weighted_rm_set",
    "hyp": "hyperbolic_set",
    "halfhyp": "half_hyperbolic_set",
    "wrm_even": "wrm_even_optimal_set",
}


def _wrm_even_size(q: int, d: int) -> int:
    s = q - d // 2
    jmax = (q - d) // 2
    on_line = sum(1 for j in range(jmax + 1) if 0 <= s - j <= q - 1)
    below = sum(1 for i in range(q) for j in range(q) if i + j < s)
    return below + on_line


# ---------------------------------------------------------------------------
# exact_oracle: small codes through the exhaustive oracle
# ---------------------------------------------------------------------------

_SCHUR_Q = (3, 4, 5, 7, 8, 9, 11, 13)


def _exact_job(rng: random.Random, shape: str, q: int, m: int, lo: int, hi: int) -> dict:
    n = q**m
    for _ in range(_MAX_TRIES):
        if shape == "rm":
            s = rng.randint(0, m * (q - 1))
            vecs = [v for v in product(range(q), repeat=m) if sum(v) <= s]
            spec = dict(family="reed_muller_set", args=(q, m, s))
        else:
            corners = [tuple(rng.randrange(q) for _ in range(m)) for _ in range(rng.randint(1, 3))]
            vecs = _down_set(corners, q, m)
            spec = dict(exponents=tuple(vecs))
        route_a, classes_a = route_classes(q, n, len(vecs))
        if shape == "refused":
            # e.g. q = 7, m = 2, 10 <= k <= 39: neither the code nor its dual
            # fits the class budget
            ok = route_a == "refused"
        else:
            route_s, classes_s = route_classes(q, n, len(folded_square(vecs, q, m)))
            ok = "refused" not in (route_a, route_s) and lo <= classes_a + classes_s < hi
        if ok:
            return dict(companion=_companion(rng), **spec)
    raise RuntimeError(f"no {shape} set at q={q}, m={m} walks {lo} to {hi} classes")


def _companion(rng: random.Random) -> tuple:
    q = rng.choice(_SCHUR_Q)
    while True:
        corners = [tuple(rng.randrange(q) for _ in range(2)) for _ in range(rng.randint(1, 2))]
        vecs = _down_set(corners, q, 2)
        if 2 <= len(vecs) <= 15:
            return q, tuple(vecs)


# ---------------------------------------------------------------------------
# irregular_sets: non-lower sets in four shapes
# ---------------------------------------------------------------------------

def _irregular_job(rng: random.Random, shape: str, q: int, m: int, lo: int, hi: int) -> dict:
    vecs = _IRREGULAR_SHAPES[shape](rng, q, m, rng.randint(lo, hi))
    return dict(exponents=tuple(sorted(vecs)))


def _grown_lower_set(rng, bounds, k: int) -> set:
    """A random lower set of k points inside the box [0, bounds], grown one
    addable point at a time (a point whose lower neighbours are all in)."""
    m = len(bounds)
    k = min(k, math.prod(b + 1 for b in bounds))
    members: set = set()
    frontier = [(0,) * m]
    queued = {frontier[0]}
    while len(members) < k:
        v = frontier.pop(rng.randrange(len(frontier)))
        members.add(v)
        for j in range(m):
            w = v[:j] + (v[j] + 1,) + v[j + 1:]
            if w[j] <= bounds[j] and w not in queued and all(
                w[:i] + (w[i] - 1,) + w[i + 1:] in members for i in range(m) if w[i]
            ):
                frontier.append(w)
                queued.add(w)
    return members


def _shifted(rng, q, m, k):
    """A lower set times a monomial X^s (shift s != 0)."""
    s = [rng.randint(0, 2) for _ in range(m)]
    if not any(s):
        s[rng.randrange(m)] = 1
    lower = _grown_lower_set(rng, [q - 1 - si for si in s], k)
    return {tuple(c + si for c, si in zip(v, s)) for v in lower}


def _divisor(rng, q, m, k):
    """A product of progressions {0, l, 2l, ..., c*l}, each step l dividing
    q-1, with as close to k points as the progressions allow."""
    options = [(step, c) for step in range(1, q) if (q - 1) % step == 0 for c in range((q - 1) // step + 1)]
    best = None
    for _ in range(200):
        axes = [rng.choice(options) for _ in range(m)]
        size = 1
        for _, c in axes:
            size *= c + 1
        if best is None or abs(size - k) < abs(best[0] - k):
            best = (size, axes)
    return set(product(*(range(0, step * c + 1, step) for step, c in best[1])))


def _stray(rng, q, m, k):
    """A lower set plus one to four stray points outside it."""
    strays = rng.randint(1, 4)
    vecs = _grown_lower_set(rng, [q - 1] * m, k - strays)
    while len(vecs) < k:
        vecs.add(tuple(rng.randrange(q) for _ in range(m)))
    return vecs


def _sparse(rng, q, m, k):
    """k distinct uniform random points of the box."""
    vecs: set = set()
    while len(vecs) < k:
        vecs.add(tuple(rng.randrange(q) for _ in range(m)))
    return vecs


_IRREGULAR_SHAPES = {"shifted": _shifted, "divisor": _divisor, "stray": _stray, "sparse": _sparse}

_MAKERS = {"design_scale": _design_job, "exact_oracle": _exact_job, "irregular_sets": _irregular_job}


def box_points(family: str, q: int, m: int) -> int:
    """Points a family constructor scans, computed from its inputs."""
    if family == "half_hyperbolic_set":
        return ((q - 1) // 2 + 1) ** m
    if family == "wrm_even_optimal_set":
        return 2 * q * q  # the explicit staircase and its weighted-degree twin
    return q**m
