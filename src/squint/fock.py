"""Truncated Fock-basis oracle for the covariance pipeline.

Everything in the main engine reduces to 2x2 covariance algebra, so this
module recomputes the same observables by brute force in a truncated
number basis: amplitudes on a product of per-mode ladders, passive
unitaries applied sector by sector (a beam splitter conserves the total
excitation of its mode pair, so it block-diagonalises over pair totals; a
sector below both ladder ceilings holds the spin-n/2 representation of the
2x2 map, from one real eigenbasis per pair total n that every map shares,
and a sector cut by a ceiling, met only at loss ancillas, exponentiates its
truncated generator, the cut sectors of one size in one stacked eigh; only
the sectors a state occupies are built and multiplied), and loss realised as
a beam splitter onto a vacuum ancilla that is never traced out explicitly.
An ancilla joins the tensor as its last mode when its loss acts, so the
elements before it act on a smaller tensor and the ancillas keep pipeline
order.  None of the covariance shortcuts are reused, which makes the
comparison meaningful.

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

from .gaussian import (BsSpec, _check_finite, _check_integer, _check_loss_angle,
                       _check_non_negative, loss_unitary)
from .interferometer import InterferometerConfig, evaluate
from .moments import SignalStats, _sigma

__all__ = [
    "CutoffError", "FockState", "tail_cutoff", "ancilla_cutoff", "tmsv_fock",
    "apply_unitary_fock", "fock_moments", "photon_number_expectation",
    "oracle_pipeline", "equivalence_grid", "GridCase", "GridReport",
]

_DEFICIT_CAP = 1e-12
_TAIL_TOL = 1e-14
_CEILING_TOL = 1e-9  # probability the top two levels of any mode may hold
_MAX_ELEMENTS = 40_000_000  # ~640 MB of complex128; refuse beyond this
_PASS_TOL = 1e-8  # equivalence_grid's default bound on a case's deviation


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
    _check_non_negative("gain G", G)
    t2 = np.tanh(G) ** 2
    if t2 == 0.0:
        return 0
    c2 = np.cosh(G) ** 2
    # least n from logarithms, settled on the exact test; 1 / c2 <= 1e-14 if t2 == 1
    n = 0 if t2 == 1.0 else max(0, math.ceil(math.log(_TAIL_TOL * c2) / math.log(t2)) - 1)
    while n > 0 and t2 ** n / c2 <= _TAIL_TOL:
        n -= 1
    while t2 ** (n + 1) / c2 > _TAIL_TOL:
        n += 1
    return n


def ancilla_cutoff(G: float, angle: float, n_sup: int) -> int:
    """Levels for the ancilla of a loss of `angle` on a pair of gain G.

    The least K whose tail bound (module docstring) is within 1e-14 while the
    top two levels stay under the measurement guard's 1e-9, capped at the
    2 n_sup + 3 levels of a signal mode: every photon of a pair cut off at
    n_sup, plus the guard's two-level pad.  ValueError unless G is a finite
    number >= 0, angle a number in [0, pi/2] and n_sup an int >= 0.
    """
    _check_non_negative("gain G", G)
    _check_loss_angle("loss angle", angle)
    _check_integer("n_sup", n_sup)
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
            that is not an int >= 0 (or is a bool) raises ValueError; one
            below tail_cutoff(G) raises CutoffError.

    The exact discarded mass tanh^{2(n_max+1)} G is stored as norm_deficit.
    """
    _check_finite("pump phase xi", xi)
    needed = tail_cutoff(G)
    if n_max is None:
        n_max = needed
    _check_integer("n_max", n_max)
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


@functools.lru_cache(maxsize=64)
def _rotation_factors(u_bytes: bytes):
    """Phases (l0, l1), angle t = atan2(|u10|, |u00|) and phases (1, r1) with
    u = diag(l0, l1) R(t) diag(1, r1), R(t) = [[cos t, -sin t], [sin t, cos t]],
    for the 2x2 map u with bytes `u_bytes`; l0 is 1 if u00 = 0, l1 if u10 = 0."""
    a, b, c, d = np.frombuffer(u_bytes, dtype=complex).tolist()
    l0, l1 = (z / abs(z) if z else 1.0 for z in (a, c))
    r1 = d * l1.conjugate() - b * l0.conjugate()  # (cos t + sin t) r1, never 0
    return (l0, l1), math.atan2(abs(c), abs(a)), (1.0, r1 / abs(r1))


@functools.lru_cache(maxsize=None)  # one entry per pair total; a bound would thrash
def _spin_basis(n: int):
    """Eigenvalues and real orthonormal eigenvectors of the tridiagonal X_n with
    off-diagonal sqrt((k + 1)(n - k)), twice J_x of spin n/2: -n, -n + 2, ..., n."""
    off = np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0, -1))
    return np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))


@functools.lru_cache(maxsize=4096)
def _sector_block(u_bytes: bytes, n: int) -> np.ndarray:
    """Block of the 2x2 map u with bytes `u_bytes` on a full pair total n, one
    below both ladder ceilings, over |k, n - k>, k = 0..n; built the first time
    a state occupies the total.

    It holds the spin-n/2 representation of u (Schwinger's two-boson
    realisation of SU(2)), Gamma(D_L) P V exp(-i t L) V^T P^dag Gamma(D_R) for
    u = D_L R(t) D_R (`_rotation_factors`), Gamma(diag(p, q)) =
    diag(p^k q^(n - k)), P = diag((-i)^k) and (L, V) = `_spin_basis(n)`.
    """
    ks = np.arange(n + 1)
    (l0, l1), t, (_, r1) = _rotation_factors(u_bytes)
    lam, vec = _spin_basis(n)
    # Gamma(D_L) P = l1^n diag((-i l0/l1)^k), P^dag Gamma(D_R) = r1^n diag((i/r1)^k):
    # unit ratios raised to k keep the splitters' exact phases exact
    left = (l1 * r1) ** n * np.power(-1j * l0 * l1.conjugate(), ks)
    right = np.outer(np.exp(-1j * t * lam), np.power(1j * r1.conjugate(), ks))
    right *= vec.T
    # real V times the complex rest as one real product on its float view
    return left[:, None] * (vec @ right.view(float)).view(complex)


def _cut_blocks(u_bytes: bytes, totals, di: int, dj: int) -> dict:
    """Blocks of the 2x2 map u with bytes `u_bytes` on pair totals cut by a
    ladder ceiling (each n >= min(di, dj)), as {n: block} over |k, n - k>, k
    ascending.

    A cut sector holds exp(-i H) of the truncated generator, H built from
    the h with u = exp(-i h) that eig(u) gives, which is not a representation
    of u.  The totals of one block size share one stacked eigh and one
    stacked product; nothing is cached, since a ceiling is met only at a loss
    ancilla, whose map and dims a state meets once.
    """
    lam, w = np.linalg.eig(np.frombuffer(u_bytes, dtype=complex).reshape(2, 2))
    h = w @ np.diag(1j * np.log(lam)) @ np.conj(w.T)
    h = 0.5 * (h + np.conj(h.T))
    totals = np.asarray(totals)
    lows = np.maximum(0, totals - (dj - 1))
    sizes = np.minimum(totals, di - 1) - lows + 1
    blocks = {}
    for size in np.unique(sizes).tolist():
        pick = sizes == size
        n = totals[pick, None]
        ks = lows[pick, None] + np.arange(size)
        ham = np.zeros((len(n), size, size), dtype=complex)
        ham[:, range(size), range(size)] = h[0, 0].real * ks + h[1, 1].real * (n - ks)
        if size > 1:
            kk = ks[:, :-1]  # hopping k -> k+1 via a_i^dag a_j
            off = h[0, 1] * np.sqrt((kk + 1.0) * (n - kk))
            ham[:, range(1, size), range(size - 1)] = off
            ham[:, range(size - 1), range(1, size)] = np.conj(off)
        lam, vec = np.linalg.eigh(ham)
        stack = (vec * np.exp(-1j * lam)[:, None, :]) @ np.conj(vec.transpose(0, 2, 1))
        blocks.update(zip(totals[pick].tolist(), stack))
    return blocks


def _apply_pair(amps: np.ndarray, mode_i: int, mode_j: int, u: np.ndarray) -> np.ndarray:
    """Pair unitary on two modes of the amplitude tensor, sector by sector.

    With the pair axes first the tensor is a (di dj) x (other modes) matrix;
    the rows k dj + (n - k) of pair total n form a slice of stride dj - 1, so
    each sector block multiplies a strided view, restricted to the columns
    that hold amplitude, and writes the same slice of the output.  A block
    maps a zero slice to zero, so the skipped output is exactly 0.  The live
    totals are found first, so the ones cut by a ceiling are built together.
    """
    dims = amps.shape
    di, dj = dims[mode_i], dims[mode_j]
    perm = [mode_i, mode_j] + [k for k in range(len(dims)) if k not in (mode_i, mode_j)]
    st = np.transpose(amps, perm).reshape(di * dj, -1)
    nonzero = st != 0
    key = u.tobytes()
    live = []
    for n in range(di + dj - 1):
        first = n + max(0, n - (dj - 1)) * (dj - 1)
        rows = slice(first, n + min(n, di - 1) * (dj - 1) + 1, max(dj - 1, 1))
        cols = nonzero[rows].any(axis=0).nonzero()[0]
        if len(cols):
            live.append((n, rows, cols))
    full = min(di, dj)
    cut = [n for n, _, _ in live if n >= full]
    blocks = _cut_blocks(key, cut, di, dj) if cut else {}
    out = np.zeros_like(st)
    for n, rows, cols in live:
        block = blocks[n] if n >= full else _sector_block(key, n)
        out[rows, cols] = block @ st[rows][:, cols]
    return np.transpose(out.reshape([dims[k] for k in perm]), np.argsort(perm))


def _check_modes(state: FockState, modes) -> tuple:
    """Mode indices as a tuple of ints in [0, n_modes); ValueError otherwise."""
    modes = tuple(modes) if np.iterable(modes) else (modes,)
    for m in modes:
        _check_integer(f"each of modes {modes}", m, bound=state.n_modes)
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
        _check_finite("phase angle", op)
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


def _lose(state: FockState, losses) -> FockState:
    """Each (mode, angle, levels) loss as `loss_unitary` onto a vacuum ancilla
    of `levels` levels, appended as the last mode (its level 0 holding the
    state) when the loss acts."""
    for mode, angle, levels in losses:
        amps = np.zeros(state.dims + (levels,), dtype=complex)
        amps[..., 0] = state.amplitudes
        state = apply_unitary_fock(FockState(amps, state.norm_deficit), loss_unitary(angle),
                                   (mode, state.n_modes))
    return state


def _prepare(config: InterferometerConfig, n_max: int | None):
    """Squeezed pair cut off at n_max (default `tail_cutoff(G)`) after the
    preparation losses, and the arm losses still to apply, as `_lose` takes
    them.

    Each nonzero loss gets a vacuum ancilla of `ancilla_cutoff` levels,
    appended when its loss acts, so the ancillas follow the two signal modes
    in pipeline order and the arm ancillas are the last modes.  The tensor
    the last loss leaves is checked against the cap before anything is
    allocated.
    """
    n_sup = tail_cutoff(config.G) if n_max is None else n_max
    dim = 2 * n_sup + 3
    losses = [(mode, angle, ancilla_cutoff(config.G, angle, n_sup))
              for mode, angle in ((0, config.alpha1), (1, config.beta1),
                                  (0, config.alpha2), (1, config.beta2))
              if angle != 0.0]
    total = math.prod([dim, dim] + [levels for _, _, levels in losses])
    if total > _MAX_ELEMENTS:
        raise ValueError(
            f"state tensor would need {total} amplitudes; reduce gain or losses")
    n_prep = (config.alpha1 != 0.0) + (config.beta1 != 0.0)
    seed = tmsv_fock(config.G, config.xi, n_max=n_sup)
    amps = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(n_sup + 1)
    amps[idx, idx] = seed.amplitudes[idx, idx]
    return _lose(FockState(amps, seed.norm_deficit), losses[:n_prep]), losses[n_prep:]


def _measure(state: FockState) -> SignalStats:
    """Product-signal statistics and photon count of the two signal modes."""
    m1, m2 = fock_moments(state, 0, 1)
    return SignalStats(
        mean=m1, second_moment=m2, sigma=_sigma(m1, m2),
        mean_photons=photon_number_expectation(state, (0, 1)))


def oracle_pipeline(config: InterferometerConfig, phi: float) -> SignalStats:
    """Run the full interferometer in the Fock basis.

    Mirrors the covariance pipeline element by element: squeezed pair in,
    per-mode losses as beam splitters onto fresh vacuum ancillas, splitter,
    phase, arm losses, recombiner, then the product moments on the two
    signal modes (the photon count also covers only those, matching what a
    lossy channel leaves downstream).  Each ancilla is appended as the last
    mode when its loss acts, so the ancillas keep the order of the losses:
    preparation (alpha1, beta1), then arm (alpha2, beta2).

    Signal modes get 2 n + 3 levels for a pair cut off at n = `tail_cutoff(G)`,
    loss ancillas `ancilla_cutoff` levels; a final state above 40M amplitudes
    raises ValueError before anything is allocated.
    """
    state, arm = _prepare(config, None)
    state = apply_unitary_fock(state, BsSpec("B1", config.delta1), (0, 1))
    state = apply_unitary_fock(state, phi, 0)
    state = _lose(state, arm)
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


def equivalence_grid(n_max: int | None = None, tolerance: float = _PASS_TOL) -> GridReport:
    """Cross-check the covariance engine against the Fock oracle on a grid.

    The grid is every gain in (0.2, 0.5, 0.8), preparation loss in (0, 0.1)
    on both signal modes, phase in (0, pi/8, pi/4, pi/2, 1.3) and imbalance
    in (-0.1, 0, 0.1) at each splitter.  The grid runs
    the stages of `oracle_pipeline`, with the loops ordered so each prepared
    state is reused across splitter settings and each split state across
    phases; with the sector-unitary cache this keeps the full grid
    (270 cases) well under a minute.

    The deviation of a case is the largest absolute difference over the
    mean, second moment, sigma, and photon count.  An `n_max` other than None
    or an int >= 0 (not a bool), or a tolerance that is not finite and
    non-negative, raises ValueError before the grid runs.
    """
    if n_max is not None:
        _check_integer("n_max", n_max)
    try:
        _check_non_negative("tolerance", tolerance)
    except ValueError:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}") from None
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
