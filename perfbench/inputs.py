"""Seeded inputs for the three workloads.

Everything a run feeds the program is derived here from ``--seed`` and
nothing else, before any timing starts.  :func:`digest` hashes the inputs so
that two commits can be shown to have seen identical work.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from oracle import reduced_tangency_mu, scalar_roots

# Point-solve mix.  The three regular categories take the split of the
# phase_map lattice by the number of mixed branches an answer carries, as
# :func:`lattice_branch_split` measures it with the oracle's formulas: two
# 0.358, one 0.303, none 0.339 at seed 1.  Two branches map to the two-branch
# band, one to the attractive side (it has at most one root), none to no
# pairing.  The two edge slices have no such measure; each gets a stated 2 %,
# which is 400 points of every 20k.
LATTICE_SPLIT = (("two_branch", 0.36), ("attractive", 0.30), ("no_pairing", 0.34))
EDGE_SLICES = ("near_tangent", "limit_temperature")
EDGE_SHARE = 0.02
# (category, share); the shares sum to one.
POINT_MIX = (tuple((name, (1.0 - EDGE_SHARE * len(EDGE_SLICES)) * share)
                   for name, share in LATTICE_SPLIT)
             + tuple((name, EDGE_SHARE) for name in EDGE_SLICES))
# The extreme-scale slice holds the known huge-coupling wrong branch, so it is
# not timed: every run solves and checks these points once, as a known-defect
# audit, and reports their failures apart from the workload's.
AUDIT_CATEGORY = "extreme_scale"
AUDIT_POINTS = 400

MOMENTUM_BASE = {"lambda_b": 4.0, "lambda_m": 0.0, "mu": 1.0, "temp": 0.5}
TABULATED_LAMBDA_M = 0.3
TABULATED_WIDTH = 0.05   # Gaussian shell width around the Fermi radius
TABULATED_RANGE = 0.2    # non-separable factor exp(-(k - p)**2 / (2 * range**2))
THERMAL_EPSILON = 0.1
KAPPAS = tuple(float(k) for k in np.logspace(0.0, 4.0, 9))


@dataclass(frozen=True)
class Point:
    """One parameter point (lambda_b, lambda_m, mu, T) and its mix category."""

    category: str
    lambda_b: float
    lambda_m: float
    mu: float
    temperature: float

    def key(self) -> str:
        return (f"{self.category}:{self.lambda_b!r},{self.lambda_m!r},"
                f"{self.mu!r},{self.temperature!r}")


def _two_branch(rng) -> tuple[float, float, float, float]:
    # reduced coupling above 1 and mu strictly below the tangency curve
    lb_bar = rng.uniform(1.5, 20.0)
    mb = rng.uniform(0.05, 0.95) * reduced_tangency_mu(lb_bar)
    temp = rng.uniform(0.1, 2.0)
    lb, mu = 2.0 * temp * lb_bar, 2.0 * temp * mb
    return lb, rng.uniform(-0.5, 0.5) * mu, mu, temp


def _no_pairing(rng) -> tuple[float, float, float, float]:
    if rng.random() < 0.5:            # lambda_b <= mu
        mu = rng.uniform(0.5, 5.0)
        lb = rng.uniform(0.05, 1.0) * mu
        temp = rng.uniform(0.01, 2.0)
    else:                             # T >= lambda_b / 2
        lb = rng.uniform(0.5, 10.0)
        temp = rng.uniform(1.0, 3.0) * 0.5 * lb
        mu = rng.uniform(0.0, 2.0) * lb
    return lb, rng.uniform(-1.0, 1.0), mu, temp


def _attractive(rng) -> tuple[float, float, float, float]:
    mu = rng.uniform(0.2, 3.0)
    return (-rng.uniform(0.5, 6.0), -rng.uniform(0.0, 2.0) * mu, mu,
            rng.uniform(0.05, 3.0))


def _near_tangent(rng) -> tuple[float, float, float, float]:
    lb_bar = rng.uniform(1.5, 20.0)
    mb = reduced_tangency_mu(lb_bar) * (1.0 + rng.uniform(-1e-3, 1e-3))
    temp = rng.uniform(0.1, 2.0)
    mu = 2.0 * temp * mb
    return 2.0 * temp * lb_bar, rng.uniform(-0.3, 0.3) * mu, mu, temp


def _limit_temperature(rng) -> tuple[float, float, float, float]:
    lb = rng.uniform(0.5, 10.0) * (1.0 if rng.random() < 0.7 else -1.0)
    mu = rng.uniform(0.0, 4.0)
    lm = rng.uniform(-1.0, 1.0)
    return lb, lm, mu, (0.0 if rng.random() < 0.5 else math.inf)


def _extreme_scale(rng) -> tuple[float, float, float, float]:
    if rng.random() < 0.5:
        # the whole point scaled by c: only energy ratios matter
        base = (_two_branch, _no_pairing, _attractive)[int(rng.integers(3))](rng)
        c = 10.0 ** rng.uniform(-150.0, 150.0)
        return tuple(c * v for v in base)
    # a huge pairing coupling against O(1) mu and T
    return (10.0 ** rng.uniform(100.0, 150.0), 0.0, rng.uniform(0.5, 2.0),
            rng.uniform(0.5, 2.0))


_MAKERS = {
    "two_branch": _two_branch,
    "no_pairing": _no_pairing,
    "attractive": _attractive,
    "near_tangent": _near_tangent,
    "limit_temperature": _limit_temperature,
    "extreme_scale": _extreme_scale,
}


def point_mix(seed: int, count: int) -> list[Point]:
    """``count`` points in the exact shares of :data:`POINT_MIX`, shuffled by ``seed``.

    Fixed shares keep the mix, and so the latency distribution, the same
    from seed to seed; only the points within each category change.
    """
    rng = np.random.default_rng([seed, 1])
    picks = [name for name, share in POINT_MIX for _ in range(round(share * count))]
    rng.shuffle(picks)
    return [Point(name, *(float(v) for v in _MAKERS[name](rng))) for name in picks]


def audit_points(seed: int, count: int) -> list[Point]:
    """``count`` extreme-scale points for the known-defect audit."""
    rng = np.random.default_rng([seed, 4])
    return [Point(AUDIT_CATEGORY, *(float(v) for v in _extreme_scale(rng)))
            for _ in range(count)]


@dataclass(frozen=True)
class Lattice:
    """The phase-map scan: lambda_b x mu at fixed lambda_m and T."""

    lb_lo: float
    lb_hi: float
    mu_lo: float
    mu_hi: float
    steps: int
    lambda_m: float = 0.3
    temp: float = 0.3

    def argv(self, out: str) -> list[str]:
        return ["scan",
                "--range-lambda-b", f"{self.lb_lo!r}:{self.lb_hi!r}:{self.steps}",
                "--range-mu", f"{self.mu_lo!r}:{self.mu_hi!r}:{self.steps}",
                "--lambda-m", repr(self.lambda_m), "--temp", repr(self.temp),
                "--out", out]


def lattice(seed: int, steps: int) -> Lattice:
    """lambda_b in [0.5, 10] x mu in [0, 5], bounds jittered by under 1%."""
    rng = np.random.default_rng([seed, 2])
    return Lattice(0.5 * (1.0 + rng.uniform(-0.01, 0.01)),
                   10.0 * (1.0 + rng.uniform(-0.01, 0.01)),
                   rng.uniform(0.0, 0.02),
                   5.0 * (1.0 + rng.uniform(-0.01, 0.01)),
                   steps)


@dataclass(frozen=True)
class Momentum:
    """Model point of the momentum-resolved runs, inside the two-branch band."""

    lambda_b: float
    mu: float
    temp: float
    lambda_m: float = 0.0

    def model_argv(self) -> list[str]:
        return ["--lambda-b", repr(self.lambda_b), "--lambda-m", repr(self.lambda_m),
                "--mu", repr(self.mu), "--temp", repr(self.temp)]


def momentum(seed: int) -> Momentum:
    """lambda_b = 4 and T = 0.5, each perturbed by under 5%; mu = 1."""
    rng = np.random.default_rng([seed, 3])
    return Momentum(MOMENTUM_BASE["lambda_b"] * (1.0 + rng.uniform(-0.05, 0.05)),
                    MOMENTUM_BASE["mu"],
                    MOMENTUM_BASE["temp"] * (1.0 + rng.uniform(-0.05, 0.05)))


def tabulated_kernels(model: Momentum, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric Gaussian-shell pairing and mean-field kernels on n momenta.

    Both are g(k) g(p) exp(-(k - p)**2 / (2 r**2)) times their coupling, with
    g a unit-peak Gaussian of width :data:`TABULATED_WIDTH` at the Fermi
    radius divided by sqrt(int g**2), so that a gap of shape g sees the bare
    coupling.
    """
    momenta = np.linspace(0.0, 3.0, n + 1)[1:]
    k_f = math.sqrt(model.mu)
    width = TABULATED_WIDTH
    peak = np.exp(-0.5 * ((momenta - k_f) / width) ** 2)
    area = width * math.sqrt(math.pi)  # int g(p)**2 dp
    shape = np.outer(peak, peak) / area
    shape *= np.exp(-0.5 * ((momenta[:, None] - momenta[None, :]) / TABULATED_RANGE) ** 2)
    return momenta, model.lambda_b * shape, TABULATED_LAMBDA_M * shape


def lattice_branch_split(lat: Lattice) -> dict[int, float]:
    """Share of lattice points by number of mixed branches: 0, 1 or 2.

    A pairing root w gives a mixed branch when w > |mu + delta_m|, so that
    delta_b**2 = w**2 - (mu + delta_m)**2 is positive.
    """
    counts = {0: 0, 1: 0, 2: 0}
    for lb in np.linspace(lat.lb_lo, lat.lb_hi, lat.steps):
        for mu in np.linspace(lat.mu_lo, lat.mu_hi, lat.steps):
            lb, mu = float(lb), float(mu)
            eff = mu + lat.lambda_m * (lb - mu) / (lb + lat.lambda_m)
            counts[sum(w > abs(eff) for w in scalar_roots(lb, mu, lat.temp))] += 1
    return {n: c / lat.steps ** 2 for n, c in counts.items()}


def kernel_csv_text(momenta: np.ndarray, matrix: np.ndarray) -> str:
    lines = [",".join(repr(float(x)) for x in momenta)]
    lines.extend(",".join(repr(float(x)) for x in row) for row in matrix)
    return "\n".join(lines) + "\n"


def digest(*parts) -> str:
    """Short sha256 of the inputs' canonical text."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
