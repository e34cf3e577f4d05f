"""Thermal expectation values of Bogoliubov quasi-particle modes.

Each momentum mode carries a rotation angle ``phi`` mixing particles and
holes; the thermal state then fixes two numbers per mode, the occupation
``{p} = c**2 f + s**2 (1 - f)`` and the pairing amplitude
``[p] = c s tanh(beta (w_bar - mu) / 2)``, with ``f`` the Fermi factor at the
quasi-particle energy.  Under momentum reflection the occupation is even and
the pairing amplitude odd, ``{-p} = {p}``, ``[-p] = -[p]``; a
:class:`ModeTable` stores values on a half-axis grid and applies those parity
rules on lookup.

The quartic (four-operator) expectation reduces, mode by mode, to three Wick
contractions; :func:`quartic_expectation` evaluates them with Kronecker
deltas on the discrete grid.  :func:`smearing_scaling_check` demonstrates the
one-dimensional scaling limit in which the occupation-occupation cross terms
die like ``kappa**(-1/2)`` under Gaussian smearing while the diagonal pairing
combination survives unattenuated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from ._forked import run, usable_cpus
from .core_types import ModelParams, bogoliubov_from_gaps  # noqa: F401 - re-exported
from .errors import FitFailed, InvalidParameter, MomentumOffGrid


def _tanh_half(x: np.ndarray, beta: float) -> np.ndarray:
    """tanh(beta*x/2) elementwise, with its sign-function limit at beta = inf."""
    return np.sign(x) if math.isinf(beta) else np.tanh(0.5 * beta * x)


def _mode_terms(omega_eff, delta_b, params: ModelParams,
                jacobian: bool = False) -> tuple[np.ndarray, ...]:
    """Occupation and twice the pairing amplitude of every mode, elementwise.

    With ``e = omega_eff / w_bar`` and ``t = tanh(beta (w_bar - mu) / 2)``
    the occupation is {p} = c**2 f + s**2 (1 - f) = (1 - e t)/2 and twice the
    pairing amplitude is 2 [p] = 2 c s t = delta_b t / w_bar.  A mode with
    ``w_bar = 0`` is unrotated: e = 1 and no pairing.

    With ``jacobian`` four more arrays follow: the derivatives of the two
    terms with respect to omega_eff (equivalently delta_M) and delta_b,
    taking dt/dw_bar = beta (1 - t**2)/2, which is 0 at T = 0.
    """
    w = np.hypot(omega_eff, delta_b)
    t = _tanh_half(w - params.mu, params.beta)
    nonzero = w > 0.0
    safe_w = np.where(nonzero, w, 1.0)
    e = np.where(nonzero, omega_eff / safe_w, 1.0)
    brace = 0.5 * (1.0 - e * t)
    ratio = np.where(nonzero, delta_b / safe_w * t, 0.0)
    if not jacobian:
        return brace, ratio
    beta = params.beta
    dt = np.zeros_like(t) if math.isinf(beta) else 0.5 * beta * (1.0 - t * t)
    dt_over_w2 = np.where(nonzero, dt / (safe_w * safe_w), 0.0)
    t_over_w3 = np.where(nonzero, t / safe_w ** 3, 0.0)
    q = dt_over_w2 - t_over_w3
    cross = omega_eff * delta_b * q
    brace_dm = -0.5 * (delta_b * delta_b * t_over_w3 + omega_eff * omega_eff * dt_over_w2)
    ratio_db = np.where(nonzero, t / safe_w, 0.0) + delta_b * delta_b * q
    return brace, ratio, brace_dm, -0.5 * cross, cross, ratio_db


def _check_momenta(momenta: np.ndarray) -> None:
    """Refuse a non-empty 1-d grid unless finite, non-negative and strictly increasing.

    Each caller keeps its own rule on the number of points.
    """
    if not np.all(np.isfinite(momenta)):
        raise InvalidParameter("momenta must be finite")
    if momenta[0] < 0.0 or np.any(np.diff(momenta) <= 0.0):
        raise InvalidParameter("momenta must be non-negative and strictly increasing")


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Occupations and pairing amplitudes tabulated on a half-axis grid.

    Lookups accept signed momenta: occupations extend evenly, pairing
    amplitudes oddly.  The grid point at exactly ``p = 0``, when present,
    returns its raw stored pairing value — the odd extension would force it
    to zero, but the stored number is what the gap data actually produced
    there, and callers probing the parity convention should avoid the origin.
    """

    momenta: np.ndarray
    params: ModelParams
    occupations: np.ndarray
    pairings: np.ndarray

    @classmethod
    def build(cls, momenta: Sequence[float], omega_eff: Sequence[float],
              delta_b: Sequence[float], params: ModelParams) -> "ModeTable":
        """Tabulate modes from gap values sampled on ``momenta`` (p >= 0).

        A mode with ``omega_eff = delta_b = 0`` (e.g. the origin of a free
        dispersion with no pairing there) is unrotated rather than tripping
        :class:`ZeroEnergy`: nothing needs diagonalizing.  Momenta and gap
        values must be finite.
        """
        mom = np.asarray(momenta, dtype=float)
        oe = np.asarray(omega_eff, dtype=float)
        db = np.asarray(delta_b, dtype=float)
        if mom.ndim != 1 or mom.size == 0:
            raise InvalidParameter("momentum grid must be a non-empty 1-d array")
        _check_momenta(mom)
        if oe.shape != mom.shape or db.shape != mom.shape:
            raise InvalidParameter("gap arrays must match the momentum grid shape")
        if not (np.all(np.isfinite(oe)) and np.all(np.isfinite(db))):
            raise InvalidParameter("gap values omega_eff and delta_b must be finite")
        occ, ratio = _mode_terms(oe, db, params)
        return cls(momenta=mom, params=params, occupations=occ, pairings=0.5 * ratio)

    def index(self, p: float) -> int:
        """Grid index of |p|; MomentumOffGrid when |p| is not a grid point."""
        a = abs(float(p))
        i = int(np.searchsorted(self.momenta, a))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.momenta.size and math.isclose(
                    float(self.momenta[j]), a, rel_tol=1e-9, abs_tol=1e-12):
                return j
        raise MomentumOffGrid(f"momentum {p!r} is not on the half-axis grid")

    def occupation_at(self, p: float) -> float:
        return float(self.occupations[self.index(p)])

    def pairing_at(self, p: float) -> float:
        value = float(self.pairings[self.index(p)])
        if p == 0.0:
            return value  # raw, see class docstring
        return value if p > 0.0 else -value


@dataclass(frozen=True)
class QuarticTerms:
    """The three Wick contractions of a four-operator expectation.

    Fields hold the signed contributions as they enter the sum, so
    ``total = pairing + direct + exchange`` (``direct`` already carries its
    minus sign).
    """

    pairing: float
    direct: float
    exchange: float
    total: float


def _mode_key(table: ModeTable, p: float) -> tuple[int, int]:
    sign = 0 if p == 0.0 else (1 if p > 0.0 else -1)
    return table.index(p), sign


def quartic_expectation(table: ModeTable, q: float, q_prime: float,
                        p: float, p_prime: float) -> QuarticTerms:
    """Four-operator thermal expectation on the discrete momentum grid.

    With ``[.]`` the odd pairing amplitude and ``{.}`` the even occupation:

        [q][p] d(q,-q') d(p,-p')  -  {p}{p'} d(p,q) d(p',q')
                                  +  {p}{p'} d(p,q') d(p',q)

    where ``d`` is the Kronecker delta on (grid index, sign) keys — the
    origin, when present, matches either sign.  The structure is
    antisymmetric under q <-> q' away from the origin: the delta pair in the
    first term is symmetric while ``[q]`` flips sign on its support
    ``q' = -q``, and the last two terms swap.
    """
    kq, kqp = _mode_key(table, q), _mode_key(table, q_prime)
    kp, kpp = _mode_key(table, p), _mode_key(table, p_prime)

    def _neg(key: tuple[int, int]) -> tuple[int, int]:
        return key[0], -key[1]

    pairing = direct = exchange = 0.0
    if kqp == _neg(kq) and kpp == _neg(kp):
        pairing = table.pairing_at(q) * table.pairing_at(p)
    if kp == kq and kpp == kqp:
        direct = -table.occupation_at(p) * table.occupation_at(p_prime)
    if kp == kqp and kpp == kq:
        exchange = table.occupation_at(p) * table.occupation_at(p_prime)
    return QuarticTerms(pairing, direct, exchange,
                        pairing + direct + exchange)


def occupation_profile(table: ModeTable) -> Callable[[np.ndarray], np.ndarray]:
    """Continuous even interpolant of the tabulated occupations.

    Linear interpolation in |p|, clamped to the edge values outside the
    grid; accepts scalars or arrays.
    """
    mom, occ = table.momenta, table.occupations

    def profile(p):
        return np.interp(np.abs(np.asarray(p, dtype=float)), mom, occ)

    return profile


@dataclass(frozen=True, eq=False)
class SmearingScalingResult:
    """Fitted decay of the smeared cross term: log I vs log kappa slope."""

    slope: float
    kappas: np.ndarray
    intensities: np.ndarray


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.empty(x.shape)
    if x.size == 1:
        w[0] = 0.0
        return w
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w


# half-width of the p-grid of smearing_scaling_check; u = p + p' spans twice it
_SMEARING_EXTENT = 6.0
# the largest width for which 2 * kappa, and so the patch of _smearing_nodes, is finite
_MAX_SMEARING_WIDTH = sys.float_info.max / 2.0


def _smearing_halves(kap: np.ndarray) -> list[float]:
    """Each width's patch half-width, ``10/sqrt(2 kappa)`` within the full support."""
    return [min(10.0 / math.sqrt(2.0 * k), 2.0 * _SMEARING_EXTENT) for k in kap]


def _mirrored(half_axis: np.ndarray) -> np.ndarray:
    """``-half_axis[::-1]`` joined to ``half_axis``, which starts at 0: symmetric bit for bit."""
    return np.concatenate([-half_axis[:0:-1], half_axis])


def _smearing_nodes(kap: np.ndarray) -> np.ndarray:
    """The u-grid of :func:`smearing_scaling_check`: each u on its finest patch.

    The patches are the coarse full support ``|u| <= 2 * _SMEARING_EXTENT`` at 2401
    nodes and, for every width, 1201 nodes over ``|u| <= 10/sqrt(2 kappa)``,
    fine enough to resolve exp(-2 kappa u**2) on its own scale.  They are
    nested around u = 0, and the nodes of a coarser patch inside a finer one
    add no resolution, so each patch keeps only its nodes outside the ranges
    of all finer (smaller-step) patches; the finest keeps every node.  Each
    patch's u >= 0 half is built and the union mirrored, so the grid equals
    its own negative, reversed, bit for bit.
    """
    patches = [(2.0 * _SMEARING_EXTENT, 2401)]
    patches += [(half, 1201) for half in _smearing_halves(kap)]
    patches.sort(key=lambda patch: patch[0] / (patch[1] - 1))  # by step, stably
    kept, covered = [], -1.0  # nothing covered yet: the finest keeps u = 0 too
    for half, n in patches:
        nodes = np.linspace(0.0, half, n // 2 + 1)
        kept.append(nodes[nodes > covered])
        covered = max(covered, half)
    return _mirrored(np.unique(np.concatenate(kept)))


def smearing_scaling_check(profile: Callable, v: Callable,
                           kappas: Iterable[float]) -> SmearingScalingResult:
    """Decay exponent of I(kappa) = iint exp(-2 kappa (p+p')**2) G(p) G(p') dp dp'.

    ``G = v * profile``.  Substituting u = p + p' turns the double integral
    into ``int exp(-2 kappa u**2) H(u) du`` with H the correlation
    ``int G(p) G(u - p) dp``, computed once on the u-grid of
    :func:`_smearing_nodes`, where every u is covered by the finest patch
    that contains it; each width sums by the trapezoid rule over its own
    patch only, so the gap to a coarser node never weights its edge node.
    For a continuous H with ``H(0) != 0`` the large-kappa behaviour is
    ``H(0) sqrt(pi / (2 kappa))``, i.e. a log-log slope of -1/2 in this
    one-dimensional setting.

    ``v`` and ``profile`` must accept numpy arrays, and ``G`` must be even,
    as the occupation and a centred smearing are: then H is even too, so it
    is computed on u >= 0 only and mirrored, on p- and u-grids symmetric
    bit for bit.

    H is computed on every usable CPU: its u-rows go in 64-row chunks to
    :func:`gapforge._forked.run`, one share in process and the others in
    forked children, since ``v`` and ``profile`` are user callables that
    need not be thread-safe.  There is no knob and no floor.  On one usable
    CPU (``taskset -c 0``), or without ``os.sched_getaffinity``, it runs in
    process.  Every chunk is the same product on the same block either way,
    so the intensities and the slope are the same bit for bit; a share
    whose child fails is computed again in process, and an exception in any
    share is raised as by a serial run.

    Raises :class:`FitFailed` when a width is not finite, not positive or
    so large that ``2 * kappa`` overflows, a width is repeated, the kappa
    list spans less than two decades, ``G`` on the p-grid is not exactly
    even, or the computed intensities are not finite (a nan or inf in
    ``G``), not positive or fail to decrease; the last two are symptoms of
    an identically-vanishing profile or an under-resolved quadrature, from
    which no exponent should be quoted.
    """
    kap = np.sort(np.asarray(list(kappas), dtype=float))
    if not np.all(np.isfinite(kap)):
        raise FitFailed(
            f"smearing widths must be finite, got {kap[~np.isfinite(kap)].tolist()}")
    huge = kap[kap > _MAX_SMEARING_WIDTH]
    if huge.size:
        raise FitFailed(f"smearing widths above {_MAX_SMEARING_WIDTH!r} overflow 2*kappa, "
                        f"got {huge.tolist()}")
    if kap.size < 2 or np.any(kap <= 0.0):
        raise FitFailed("need at least two positive smearing widths")
    repeated = kap[1:][np.diff(kap) == 0.0]
    if repeated.size:
        raise FitFailed(f"repeated smearing widths: {np.unique(repeated).tolist()}")
    if kap[-1] / kap[0] < 100.0:
        raise FitFailed(
            f"kappa range [{kap[0]:g}, {kap[-1]:g}] spans < 2 decades"
        )

    p = _mirrored(np.linspace(0.0, _SMEARING_EXTENT, 1001))
    wp = _trapezoid_weights(p)
    g_p = np.asarray(v(p), dtype=float) * np.asarray(profile(p), dtype=float)
    if not np.array_equal(g_p, g_p[::-1], equal_nan=True):  # a nan is caught below
        raise FitFailed("v * profile must be even in p, and is not on the p-grid")

    u = _smearing_nodes(kap)
    u_half = u[u.size // 2:]  # u >= 0, from u = 0

    corr_half = _correlation(partial(_correlation_chunks, profile, v, u_half, p, wp * g_p),
                             range(0, u_half.size, _CORRELATION_CHUNK))
    corr = np.concatenate([corr_half[:0:-1], corr_half])  # H is even

    patches = [np.abs(u) <= half for half in _smearing_halves(kap)]
    intensities = np.array([np.exp(-2.0 * k * u[on] ** 2) @ (_trapezoid_weights(u[on]) * corr[on])
                            for k, on in zip(kap, patches)])
    if not np.all(np.isfinite(intensities)):
        raise FitFailed(f"smeared intensity is not finite: {intensities.tolist()}")
    if np.any(intensities <= 0.0):
        raise FitFailed("smeared intensity is not positive; nothing to fit")
    if np.any(np.diff(intensities) >= 0.0):
        raise FitFailed("smeared intensity is not decreasing in kappa")

    slope = float(np.polyfit(np.log(kap), np.log(intensities), 1)[0])
    return SmearingScalingResult(slope=slope, kappas=kap, intensities=intensities)


# 64-row chunks keep each temporary near 1 MB at 2001 points
_CORRELATION_CHUNK = 64


def _correlation_chunks(profile: Callable, v: Callable, u: np.ndarray, p: np.ndarray,
                        weighted: np.ndarray, starts: Sequence[int]) -> list[np.ndarray]:
    """``sum_p G(u - p) weighted(p)`` for the chunk of u-rows at each start."""
    chunks = []
    for lo in starts:
        shift = u[lo:lo + _CORRELATION_CHUNK, None] - p[None, :]
        chunks.append((np.asarray(v(shift), dtype=float)
                       * np.asarray(profile(shift), dtype=float)) @ weighted)
    return chunks


def _correlation(chunks: Callable[[Sequence[int]], list[np.ndarray]],
                 starts: range) -> np.ndarray:
    """The chunks at ``starts``, joined in order: chunk k in share k mod n of
    :func:`gapforge._forked.run`, n = min(usable CPUs, chunks).

    If any share raises, every chunk is computed again in order, so the
    exception is that of a serial run.
    """
    n = min(usable_cpus(), len(starts))
    if n < 2:
        return np.concatenate(chunks(starts))
    try:
        shares = run([partial(chunks, starts[share::n]) for share in range(n)])
    except Exception:  # computed in order, the first chunk that raises raises again
        return np.concatenate(chunks(starts))
    ordered: list = [None] * len(starts)
    for share in range(n):
        ordered[share::n] = shares[share]
    return np.concatenate(ordered)


def pairing_diagonal_term(table: ModeTable, v: Callable,
                          kappas: Iterable[float]) -> np.ndarray:
    """The surviving diagonal combination J(kappa) = int v(p) v(-p) [p][-p] dp.

    On the diagonal p' = -p the smeared momentum sum p + p' vanishes
    identically, so the Gaussian weight is exp(0) = 1 exactly for every
    kappa: the sum is formed once and returned for each kappa — that
    invariance is the point.  Quadrature runs on the table's own half-axis
    grid with the odd extension folded in ([p][-p] = -[p]**2 for p > 0).
    """
    mom = table.momenta
    wp = _trapezoid_weights(mom) if mom.size > 1 else np.ones(1)
    v_plus = np.asarray(v(mom), dtype=float)
    v_minus = np.asarray(v(-mom), dtype=float)
    pair = table.pairings
    # [p][-p]: -[p]**2 off the origin, the raw [0]**2 at it (ModeTable.pairing_at)
    product = np.where(mom == 0.0, pair * pair, -(pair * pair))
    fold = np.where(mom == 0.0, 1.0, 2.0)  # even integrand: fold the half axis
    total = float(np.sum(fold * wp * v_plus * v_minus * product))
    return np.full(len(np.asarray(list(kappas), dtype=float)), total)
