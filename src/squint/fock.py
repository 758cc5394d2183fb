"""Truncated Fock-basis oracle for the covariance pipeline.

Everything in the main engine reduces to 2x2 covariance algebra, so this
module recomputes the same observables by brute force in a truncated
number basis: amplitudes on a product of per-mode ladders, passive
unitaries applied sector by sector (a beam splitter conserves the total
excitation of its mode pair, so it block-diagonalises over pair totals,
and each block exponentiates a small tridiagonal generator; only the
sectors a state occupies are built and multiplied), and loss
realised as a beam splitter onto a vacuum ancilla that is never traced
out explicitly.  None of the covariance shortcuts are reused, which makes
the comparison meaningful.

Truncation is bounded and guarded.  A squeezed pair keeps its exact
geometric tail mass as `norm_deficit`, and cutoffs below the per-term bound
of 1e-14 are refused.  Each loss ancilla gets the levels `ancilla_cutoff`
derives from a tail bound: no mode ever holds more than the pair's 2n
photons, and a loss of angle a passes each to its ancilla with probability
sin^2 a, so K or more are lost with probability at most
(1 + t)(sin^2 a t/(1 - t))^K, t = tanh G.  The measurement checks that no
appreciable amplitude sits within two levels of any mode's ceiling (the
product observable reaches one level past twice the pair cutoff, hence
signal modes of 2 n_sup + 3 levels).
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .gaussian import BsSpec, loss_unitary
from .interferometer import InterferometerConfig, evaluate
from .moments import SignalStats

__all__ = [
    "CutoffError", "FockState", "tail_cutoff", "ancilla_cutoff", "tmsv_fock",
    "apply_unitary_fock", "fock_moments", "photon_number_expectation",
    "oracle_pipeline", "equivalence_grid", "GridCase", "GridReport",
]

_DEFICIT_CAP = 1e-12
_TAIL_TOL = 1e-14
_CEILING_TOL = 1e-9  # probability the top two levels of any mode may hold
_MAX_ELEMENTS = 40_000_000  # ~640 MB of complex128; refuse beyond this


class CutoffError(ValueError):
    """A Fock cutoff too small for the requested accuracy."""


@dataclass(frozen=True)
class FockState:
    """Pure state as a complex amplitude tensor over per-mode ladders.

    amplitudes[n1, n2, ...] is the coefficient of |n1, n2, ...>; the shape
    gives each mode's dimension.  norm_deficit records probability mass
    that the truncation provably discarded at construction time; it must
    stay below 1e-12 for the state to be meaningful at the oracle's
    accuracy target.
    """

    amplitudes: np.ndarray
    norm_deficit: float = 0.0

    def __post_init__(self):
        if not np.iscomplexobj(self.amplitudes):
            object.__setattr__(self, "amplitudes",
                               np.asarray(self.amplitudes, dtype=complex))
        if not 0.0 <= self.norm_deficit <= _DEFICIT_CAP:
            raise ValueError(
                f"norm deficit {self.norm_deficit} outside [0, {_DEFICIT_CAP}]")

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def dims(self) -> tuple:
        return self.amplitudes.shape

    def norm(self) -> float:
        return float(np.sqrt(np.sum(_probabilities(self.amplitudes))))


def tail_cutoff(G: float) -> int:
    """Smallest pair cutoff whose first omitted |n, n> weight is <= 1e-14.

    The squeezed pair state has weights tanh^{2n} G / cosh^2 G, so the first
    omitted term at cutoff n_max is tanh^{2(n_max+1)} G / cosh^2 G.
    """
    if not 0 <= G < math.inf:
        raise ValueError("gain G must be finite and non-negative")
    t2 = np.tanh(G) ** 2
    if t2 == 0.0:
        return 0
    c2 = np.cosh(G) ** 2
    n = 0
    while t2 ** (n + 1) / c2 > _TAIL_TOL:
        n += 1
    return n


def ancilla_cutoff(G: float, angle: float, n_sup: int) -> int:
    """Levels for the ancilla of a loss of `angle` on a pair of gain G.

    The least K whose tail bound (module docstring) is within 1e-14 while the
    top two levels stay under the measurement guard's 1e-9, capped at the
    2 n_sup + 3 levels of a signal mode: every photon of a pair cut off at
    n_sup, plus the guard's two-level pad.
    """
    if not 0 <= G < math.inf:
        raise ValueError("gain G must be finite and non-negative")
    if not 0 <= angle <= np.pi / 2:
        raise ValueError("loss angle must lie in [0, pi/2]")
    cap = 2 * n_sup + 3
    r = np.sin(angle) ** 2 * np.expm1(2 * G) / 2  # t / (1 - t) = (e^{2G} - 1) / 2
    if r >= 1.0:
        return cap
    scale = 1.0 + np.tanh(G)
    k = 2
    while k < cap and (scale * r ** k > _TAIL_TOL or scale * r ** (k - 2) >= _CEILING_TOL):
        k += 1
    return k


def tmsv_fock(G: float, xi: float = 0.0, n_max: int | None = None) -> FockState:
    """Squeezed pair state sum_n c_n |n, n> with c_n = (-i e^{i xi} tanh G)^n / cosh G.

    Args:
        G: squeezer gain.
        xi: pump phase.
        n_max: pair cutoff, by default tail_cutoff(G).  An explicit cutoff
            below tail_cutoff(G) raises CutoffError.

    The exact discarded mass tanh^{2(n_max+1)} G is stored as norm_deficit.
    """
    needed = tail_cutoff(G)
    if n_max is None:
        n_max = needed
    if n_max < needed:
        raise CutoffError(
            f"cutoff too small: n_max={n_max} leaves a tail term above {_TAIL_TOL:g} "
            f"at G={G:g} (need n_max >= {needed})")
    deficit = float(np.tanh(G) ** (2 * (n_max + 1)))
    if deficit > _DEFICIT_CAP:
        raise CutoffError(
            f"cutoff too small: n_max={n_max} discards {deficit:.3e} probability at G={G:g}")
    n = np.arange(n_max + 1)
    coeff = (-1j * np.exp(1j * xi) * np.tanh(G)) ** n / np.cosh(G)
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    amps[n, n] = coeff
    return FockState(amps, deficit)


def _hermitian_generator(u: np.ndarray) -> np.ndarray:
    """h with u = exp(-i h), from the eigendecomposition of the unitary."""
    lam, w = np.linalg.eig(u)
    h = w @ np.diag(1j * np.log(lam)) @ np.conj(w.T)
    return 0.5 * (h + np.conj(h.T))


@functools.lru_cache(maxsize=64)
def _pair_layout(di: int, dj: int):
    """Rows k * dj + c of a pair matrix in pair-total order (k ascending within
    each total n = k + c), the inverse permutation, and each total's first row."""
    k, c = np.divmod(np.arange(di * dj), dj)
    order = np.lexsort((k, k + c))
    starts = np.searchsorted((k + c)[order], np.arange(di + dj))
    return order, np.argsort(order), starts


# Generator and the sector blocks built so far, keyed by (u bytes, di, dj);
# a block is built the first time a state occupies its pair total.
_SECTOR_CACHE: dict = {}


def _sector_blocks(u: np.ndarray, di: int, dj: int):
    key = (u.tobytes(), di, dj)
    hit = _SECTOR_CACHE.get(key)
    if hit is None:
        if len(_SECTOR_CACHE) > 64:
            _SECTOR_CACHE.clear()
        hit = _SECTOR_CACHE[key] = (_hermitian_generator(u), {})
    return hit


def _sector_block(h: np.ndarray, n: int, di: int, dj: int) -> np.ndarray:
    """exp(-i H) on the pair total n, over the basis |k, n - k>, k ascending."""
    ks = np.arange(max(0, n - (dj - 1)), min(n, di - 1) + 1)
    size = len(ks)
    diag = h[0, 0].real * ks + h[1, 1].real * (n - ks)
    ham = np.diag(diag.astype(complex))
    if size > 1:
        kk = ks[:-1]  # hopping k -> k+1 via a_i^dag a_j
        off = h[0, 1] * np.sqrt((kk + 1.0) * (n - kk))
        ham[np.arange(1, size), np.arange(size - 1)] = off
        ham[np.arange(size - 1), np.arange(1, size)] = np.conj(off)
    lam, vec = np.linalg.eigh(ham)
    return (vec * np.exp(-1j * lam)) @ np.conj(vec.T)


def _apply_pair(amps: np.ndarray, mode_i: int, mode_j: int, u: np.ndarray) -> np.ndarray:
    """Pair unitary on two modes of the amplitude tensor, sector by sector.

    With the pair axes first the tensor is a (di dj) x (other modes) matrix
    whose rows are gathered into pair-total order; each sector block then
    multiplies only the columns of its rows that hold amplitude.  A block maps
    a zero slice to zero, so the skipped output is exactly 0.
    """
    dims = amps.shape
    di, dj = dims[mode_i], dims[mode_j]
    perm = [mode_i, mode_j] + [k for k in range(len(dims)) if k not in (mode_i, mode_j)]
    order, inverse, starts = _pair_layout(di, dj)
    st = np.transpose(amps, perm).reshape(di * dj, -1)[order]
    live = np.logical_or.reduceat(st != 0, starts[:-1], axis=0)
    h, blocks = _sector_blocks(u, di, dj)
    out = np.zeros_like(st)
    for n in np.flatnonzero(live.any(axis=1)):
        block = blocks.get(n)
        if block is None:
            block = blocks[n] = _sector_block(h, n, di, dj)
        rows = slice(starts[n], starts[n + 1])
        cols = np.flatnonzero(live[n])
        out[rows, cols] = block @ st[rows][:, cols]
    return np.transpose(out[inverse].reshape([dims[k] for k in perm]), np.argsort(perm))


def _check_modes(state: FockState, modes) -> tuple:
    """Mode indices as a tuple of ints in [0, n_modes); ValueError otherwise."""
    modes = tuple(modes) if np.iterable(modes) else (modes,)
    if not all(isinstance(m, numbers.Integral) and 0 <= m < state.n_modes for m in modes):
        raise ValueError(f"modes {modes} must be integers in [0, {state.n_modes})")
    return tuple(int(m) for m in modes)


def _apply_phase(amps: np.ndarray, mode: int, phi: float) -> np.ndarray:
    shape = [1] * amps.ndim
    shape[mode] = amps.shape[mode]
    return amps * np.exp(1j * phi * np.arange(amps.shape[mode])).reshape(shape)


def apply_unitary_fock(state: FockState, op, modes) -> FockState:
    """Apply a passive (photon-number-conserving) unitary to a FockState.

    Args:
        state: input state.
        op: a BsSpec (two-mode), a real phase angle (one mode, a -> e^{i phi} a),
            or an explicit complex 2x2 mode map, which must be unitary --
            active Bogoliubov maps have no 2x2 unitary form and are rejected.
        modes: the target mode indices, one for a phase, two (distinct) for
            a pair map.
    """
    modes = _check_modes(state, modes)
    if isinstance(op, BsSpec):
        op = op.unitary()
    if isinstance(op, numbers.Real):
        if len(modes) != 1:
            raise ValueError("a phase acts on exactly one mode")
        if not math.isfinite(op):
            raise ValueError(f"phase angle must be finite, got {op!r}")
        return FockState(_apply_phase(state.amplitudes, modes[0], float(op)),
                         state.norm_deficit)
    u = np.asarray(op, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("pair operations must be 2x2 mode maps")
    if not np.all(np.isfinite(u)):
        raise ValueError("mode map entries must be finite")
    if np.linalg.norm(np.conj(u.T) @ u - np.eye(2)) > 1e-12:
        raise ValueError("mode map is not unitary; only passive operations are supported")
    if len(modes) != 2 or modes[0] == modes[1]:
        raise ValueError("a pair map acts on two distinct modes")
    return FockState(_apply_pair(state.amplitudes, modes[0], modes[1], u),
                     state.norm_deficit)


def _axis(mode: int, index) -> tuple:
    """Index tuple that applies `index` along axis `mode`."""
    return (slice(None),) * mode + (index,)


def _x_apply(amps: np.ndarray, mode: int) -> np.ndarray:
    """(a + a^dag) along one axis; the result reaches one level further up."""
    lower, upper = _axis(mode, slice(None, -1)), _axis(mode, slice(1, None))
    root = np.sqrt(np.arange(1, amps.shape[mode])).reshape(
        (-1,) + (1,) * (amps.ndim - mode - 1))
    out = np.empty_like(amps)
    np.multiply(amps[upper], root, out=out[lower])
    out[_axis(mode, -1)] = 0.0
    out[upper] += amps[lower] * root
    return out


def _probabilities(amps: np.ndarray) -> np.ndarray:
    """|amplitudes|^2 as re^2 + im^2."""
    prob = np.square(amps.real)
    prob += np.square(amps.imag)
    return prob


def photon_number_expectation(state: FockState, modes=None) -> float:
    """Mean photon number summed over the given modes (all by default)."""
    modes = range(state.n_modes) if modes is None else _check_modes(state, modes)
    prob = _probabilities(state.amplitudes)
    total = 0.0
    for m in modes:
        occ = prob.sum(axis=tuple(k for k in range(prob.ndim) if k != m))
        total += float(occ @ np.arange(len(occ)))
    return total


def fock_moments(state: FockState, mode_a: int, mode_b: int):
    """First and second moments of X_a X_b, with truncation guards.

    Requires the top two ladder levels of every mode, loss ancillas included,
    to carry less than 1e-9 probability, so that neither a truncated ladder
    nor the one-level climb of each quadrature factor loses amplitude; the
    guard reads only those levels.  The first moment of the Hermitian product
    must come out real; an imaginary residue above 1e-12 (relative to the
    signal scale) indicates a broken state and raises.
    """
    mode_a, mode_b = _check_modes(state, (mode_a, mode_b))
    amps = state.amplitudes
    for m in range(amps.ndim):
        top = float(_probabilities(amps[_axis(m, slice(-2, None))]).sum())
        if top >= _CEILING_TOL:
            raise CutoffError(
                f"mode {m} holds {top:.3e} probability in its top two levels; "
                "enlarge the cutoff")
    xx = _x_apply(_x_apply(amps, mode_b), mode_a)
    m1c = np.vdot(amps, xx)
    m2 = float(np.real(np.vdot(xx, xx)))
    if abs(m1c.imag) > 1e-12 * max(1.0, np.sqrt(m2)):
        raise ArithmeticError(
            f"first moment has imaginary residue {m1c.imag:.3e}; state is inconsistent")
    return float(m1c.real), m2


def _lose(state: FockState, losses, first_ancilla: int) -> FockState:
    """Each (mode, angle) loss as `loss_unitary` onto the next vacuum ancilla."""
    for k, (mode, angle) in enumerate(losses):
        state = apply_unitary_fock(state, loss_unitary(angle), (mode, first_ancilla + k))
    return state


def _prepare(config: InterferometerConfig, n_max: int | None):
    """Squeezed pair cut off at n_max (default `tail_cutoff(G)`) after the
    preparation losses, and the arm losses still to apply.

    Each nonzero loss gets a vacuum ancilla, in pipeline order after the two
    signal modes, so the arm ancillas are the last modes.
    """
    losses = [(mode, angle) for mode, angle in ((0, config.alpha1), (1, config.beta1),
                                                (0, config.alpha2), (1, config.beta2))
              if angle != 0.0]
    n_prep = (config.alpha1 != 0.0) + (config.beta1 != 0.0)
    n_sup = tail_cutoff(config.G) if n_max is None else n_max
    dim = 2 * n_sup + 3
    dims = [dim, dim] + [ancilla_cutoff(config.G, angle, n_sup) for _, angle in losses]
    total = math.prod(dims)
    if total > _MAX_ELEMENTS:
        raise ValueError(
            f"state tensor would need {total} amplitudes; reduce gain or losses")
    seed = tmsv_fock(config.G, config.xi, n_max=n_sup)
    amps = np.zeros(dims, dtype=complex)
    idx = np.arange(n_sup + 1)
    amps[(idx, idx) + (0,) * len(losses)] = seed.amplitudes[idx, idx]
    return _lose(FockState(amps, seed.norm_deficit), losses[:n_prep], 2), losses[n_prep:]


def _measure(state: FockState) -> SignalStats:
    """Product-signal statistics and photon count of the two signal modes."""
    m1, m2 = fock_moments(state, 0, 1)
    return SignalStats(
        mean=m1, second_moment=m2, sigma=float(np.sqrt(max(m2 - m1 * m1, 0.0))),
        mean_photons=photon_number_expectation(state, (0, 1)))


def oracle_pipeline(config: InterferometerConfig, phi: float,
                    n_max: int | None = None) -> SignalStats:
    """Run the full interferometer in the Fock basis.

    Mirrors the covariance pipeline element by element: squeezed pair in,
    per-mode losses as beam splitters onto fresh vacuum ancillas, splitter,
    phase, arm losses, recombiner, then the product moments on the two
    signal modes (the photon count also covers only those, matching what a
    lossy channel leaves downstream).

    Signal modes get 2 n_max + 3 levels for a pair cut off at n_max (default
    `tail_cutoff(G)`), loss ancillas `ancilla_cutoff` levels; a state above
    40M amplitudes raises ValueError.
    """
    state, arm = _prepare(config, n_max)
    state = apply_unitary_fock(state, BsSpec("B1", config.delta1), (0, 1))
    state = apply_unitary_fock(state, phi, 0)
    state = _lose(state, arm, state.n_modes - len(arm))
    state = apply_unitary_fock(state, BsSpec("B2", config.delta2), (0, 1))
    return _measure(state)


@dataclass(frozen=True)
class GridCase:
    G: float
    prep_loss: float
    delta1: float
    phi: float
    delta2: float
    deviation: float


@dataclass(frozen=True)
class GridReport:
    tolerance: float
    n_cases: int
    max_deviation: float
    worst: GridCase | None
    failures: tuple
    cutoff_errors: tuple = ()

    @property
    def passed(self) -> bool:
        if self.cutoff_errors or self.worst is None:
            return False
        return self.max_deviation <= self.tolerance


def equivalence_grid(n_max: int | None = None, tolerance: float = 1e-8) -> GridReport:
    """Cross-check the covariance engine against the Fock oracle on a grid.

    The grid is every gain in (0.2, 0.5, 0.8), preparation loss in (0, 0.1)
    on both signal modes, phase in (0, pi/8, pi/4, pi/2, 1.3) and imbalance
    in (-0.1, 0, 0.1) at each splitter.  The grid runs
    the stages of `oracle_pipeline`, with the loops ordered so each prepared
    state is reused across splitter settings and each split state across
    phases; with the sector-unitary cache this keeps the full grid
    (270 cases) well under a minute.

    The deviation of a case is the largest absolute difference over the
    mean, second moment, sigma, and photon count.
    """
    imbalances = (-0.1, 0.0, 0.1)
    cases, cutoff_errors = [], []
    for G in (0.2, 0.5, 0.8):
        for loss in (0.0, 0.1):
            base = InterferometerConfig(G=G, alpha1=loss, beta1=loss)
            try:
                prep, _ = _prepare(base, n_max)
            except CutoffError as exc:
                cutoff_errors.append((float(G), str(exc)))
                break
            for d1 in imbalances:
                split = apply_unitary_fock(prep, BsSpec("B1", d1), (0, 1))
                for phi in (0.0, np.pi / 8, np.pi / 4, np.pi / 2, 1.3):
                    shifted = apply_unitary_fock(split, float(phi), 0)
                    for d2 in imbalances:
                        got = _measure(apply_unitary_fock(shifted, BsSpec("B2", d2), (0, 1)))
                        ref = evaluate(dataclasses.replace(base, delta1=d1, delta2=d2), phi)
                        dev = max(abs(a - b) for a, b in zip(
                            dataclasses.astuple(got), dataclasses.astuple(ref)))
                        cases.append(GridCase(G=G, prep_loss=loss, delta1=d1,
                                              phi=float(phi), delta2=d2, deviation=dev))
    worst = max(cases, key=lambda case: case.deviation, default=None)
    return GridReport(tolerance=tolerance, n_cases=len(cases),
                      max_deviation=worst.deviation if worst else math.nan,
                      worst=worst,
                      failures=tuple(case for case in cases if case.deviation > tolerance),
                      cutoff_errors=tuple(cutoff_errors))
