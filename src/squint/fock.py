"""Truncated Fock-basis oracle for the covariance pipeline.

Everything in the main engine reduces to 2x2 covariance algebra, so this
module recomputes the same observables by brute force in a truncated
number basis: amplitudes on a product of per-mode ladders, passive
unitaries applied sector by sector (a beam splitter conserves the total
excitation of its mode pair, so it block-diagonalises over pair totals, each
one the spin-n/2 representation of the 2x2 map, from one real eigenbasis per
pair total n that every map shares), and loss realised as the binomial split
of each level onto a vacuum ancilla that is never traced out explicitly.  An
ancilla joins the tensor as its last mode when its loss acts, so the
elements before it act on a smaller tensor and the ancillas keep pipeline
order.  None of the covariance shortcuts are reused, which makes the
comparison meaningful.

Truncation is bounded and guarded, and every cutoff is derived from the
gain.  A squeezed pair is cut off at n = `tail_cutoff(G)`, the first level
whose omitted term is within 1e-14, and keeps its exact geometric tail mass
as `norm_deficit`; a pair that discards more than 1e-12 is refused.  Each
loss ancilla gets the levels `ancilla_cutoff` derives from a tail bound: no
mode ever holds more than the pair's 2n photons, and a loss of angle a
passes each to its ancilla with probability sin^2 a, so K or more are lost
with probability at most (1 + t)(sin^2 a t/(1 - t))^K, t = tanh G.  These
are the only truncations: a pair map on a total that a ladder ceiling cuts
raises CutoffError, where it could only be approximated.  The measurement
checks that no appreciable amplitude sits within two levels of any mode's
ceiling (the product observable reaches one level past the 2n photons,
hence signal modes of 2n + 3 levels).
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .gaussian import BsSpec, _check_finite, _check_gain, _check_integer, _check_loss_angle
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
_PASS_TOL = 1e-8  # equivalence_grid's bound on a case's deviation


def _check_size(total: int) -> None:
    """ValueError if a tensor of `total` amplitudes would exceed the cap."""
    if total > _MAX_ELEMENTS:
        raise ValueError(
            f"state tensor would need {total} amplitudes, above the cap of {_MAX_ELEMENTS}")


class CutoffError(ValueError):
    """A truncation the oracle cannot bound: a state beyond its reach."""


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
        # a complex128 array passes through uncopied; lists and reals convert
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))
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
    _check_gain(G)
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


def _pair_ladder(G: float) -> tuple:
    """Pair cutoff n = tail_cutoff(G) and the 2n + 3 levels of a signal mode:
    the 2n + 1 photon numbers one mode can hold, plus the measurement guard's
    two-level pad."""
    n = tail_cutoff(G)
    return n, 2 * n + 3


def ancilla_cutoff(G: float, angle: float) -> int:
    """Levels for the ancilla of a loss of `angle` on a pair of gain G.

    The least K whose tail bound (module docstring) is within 1e-14 while the
    top two levels stay under the measurement guard's 1e-9, capped at the
    2n + 3 levels of a signal mode for the pair cutoff n = tail_cutoff(G).
    ValueError unless G is a number in [0, 177.17] and angle a number in
    [0, pi/2].
    """
    cap = _pair_ladder(G)[1]
    _check_loss_angle("loss angle", angle)
    r = np.sin(angle) ** 2 * np.expm1(2 * G) / 2  # t / (1 - t) = (e^{2G} - 1) / 2
    if r >= 1.0:
        return cap
    scale = 1.0 + np.tanh(G)
    k = 2
    while k < cap and (scale * r ** k > _TAIL_TOL or scale * r ** (k - 2) >= _CEILING_TOL):
        k += 1
    return k


def tmsv_fock(G: float, xi: float = 0.0) -> FockState:
    """Squeezed pair state sum_n c_n |n, n> with c_n = (-i e^{i xi} tanh G)^n / cosh G,
    cut off at n = tail_cutoff(G), on signal ladders of 2n + 3 levels each.

    The exact discarded mass tanh^{2(n+1)} G is stored as norm_deficit; above
    1e-12 it raises CutoffError before anything is allocated.  The deficit lies
    in [1e-14 sinh^2 G, 1e-14 cosh^2 G], so the oracle reaches every G up to
    acosh(10) ~ 2.993 and none above asinh(10) ~ 2.998; the largest pair it
    admits (n = 2775) holds 30.8M amplitudes, under a state tensor's 40M cap.
    """
    _check_finite("pump phase xi", xi)
    n_max, dim = _pair_ladder(G)
    deficit = float(np.tanh(G) ** (2 * (n_max + 1)))
    if deficit > _DEFICIT_CAP:
        raise CutoffError(
            f"G={G:g} is beyond the oracle's reach: its pair cutoff n_max={n_max} discards "
            f"{deficit:.3e} probability, above the 1e-12 cap; every gain up to about "
            "2.993 passes, and none above about 2.998")
    n = np.arange(n_max + 1)
    amps = np.zeros((dim, dim), dtype=complex)
    amps[n, n] = (-1j * np.exp(1j * xi) * np.tanh(G)) ** n / np.cosh(G)
    return FockState(amps, deficit)


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


def _apply_pair(amps: np.ndarray, mode_i: int, mode_j: int, u: np.ndarray) -> np.ndarray:
    """Pair unitary on two modes of the amplitude tensor, sector by sector.

    With the pair axes first the tensor is a (di dj) x (other modes) matrix;
    the rows k dj + (n - k) of pair total n form a slice of stride dj - 1, so
    each sector block multiplies a strided view, restricted to the columns
    that hold amplitude, and writes the same slice of the output.  A block
    maps a zero slice to zero, so the skipped output is exactly 0.  A ladder
    ceiling cuts every total from min(di, dj) on, where no block represents
    u, so amplitude there raises CutoffError before anything is multiplied.
    """
    dims = amps.shape
    di, dj = dims[mode_i], dims[mode_j]
    perm = [mode_i, mode_j] + [k for k in range(len(dims)) if k not in (mode_i, mode_j)]
    st = np.transpose(amps, perm).reshape(di * dj, -1)
    nonzero = st != 0
    totals = np.add.outer(np.arange(di), np.arange(dj)).ravel()
    cut = totals[(totals >= min(di, dj)) & nonzero.any(axis=1)]
    if len(cut):
        raise CutoffError(f"pair total {cut.min()} holds amplitude on ladders of {di} and {dj} "
                          "levels, where a ceiling cuts its sector: beyond the oracle's reach")
    key = u.tobytes()
    out = np.zeros_like(st)
    for n in range(min(di, dj)):
        rows = slice(n, n * dj + 1, max(dj - 1, 1))
        cols = nonzero[rows].any(axis=0).nonzero()[0]
        if len(cols):
            out[rows, cols] = _sector_block(key, n) @ st[rows][:, cols]
    return np.transpose(out.reshape([dims[k] for k in perm]), np.argsort(perm))


def _check_modes(state: FockState, modes) -> tuple:
    """Mode indices as a tuple of distinct ints in [0, n_modes); ValueError otherwise."""
    modes = tuple(modes) if np.iterable(modes) else (modes,)
    for m in modes:
        _check_integer(f"each of modes {modes}", m, bound=state.n_modes)
    modes = tuple(int(m) for m in modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes {modes} repeat a mode; each must be distinct")
    return modes


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

    A pair map on a pair total that a ladder ceiling cuts raises CutoffError.
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
    if len(modes) != 2:
        raise ValueError("a pair map acts on two distinct modes")
    return FockState(_apply_pair(state.amplitudes, modes[0], modes[1], u),
                     state.norm_deficit)


def _axis(mode: int, index) -> tuple:
    """Index tuple that applies `index` along axis `mode`."""
    return (slice(None),) * mode + (index,)


def _x_apply(amps: np.ndarray, mode: int) -> np.ndarray:
    """(a + a^dag) along one axis, on the same ladder: the component a^dag
    would raise above the ceiling is dropped (the measurement guard bounds it)."""
    lower, upper = _axis(mode, slice(None, -1)), _axis(mode, slice(1, None))
    root = np.sqrt(np.arange(1, amps.shape[mode])).reshape(
        (-1,) + (1,) * (amps.ndim - mode - 1))
    out = np.empty_like(amps)
    np.multiply(amps[upper], root, out=out[lower])
    out[_axis(mode, -1)] = 0.0
    out[upper] += amps[lower] * root
    return out


def _xx_apply(amps: np.ndarray, mode_a: int, mode_b: int) -> np.ndarray:
    """X_a X_b on two distinct axes, one mode-a level at a time.

    Row k of the result is sqrt(k + 1) y[k + 1] + sqrt(k) y[k - 1] with
    y = X_b psi, each y[k] formed from its own slice and dropped two rows
    later, so the only full-size array is the result.  The operations and
    their order per element are those of `_x_apply` applied twice, so the
    result is the same to the bit.
    """
    out = np.empty_like(amps)
    src = np.moveaxis(amps, (mode_a, mode_b), (0, 1))
    dst = np.moveaxis(out, (mode_a, mode_b), (0, 1))
    d = src.shape[0]
    root = np.sqrt(np.arange(1, d))
    below, here = None, _x_apply(src[0], 0)
    for k in range(d):
        above = _x_apply(src[k + 1], 0) if k + 1 < d else None
        if above is None:
            dst[k] = 0.0
        else:
            np.multiply(above, root[k], out=dst[k])
        if below is not None:
            dst[k] += below * root[k - 1]
        below, here = here, above
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
    """First and second moments of X_a X_b on two distinct modes, with
    truncation guards.

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
                f"mode {m} holds {top:.3e} probability in its top two levels: beyond "
                "the oracle's reach, whose own ladders keep that under 1e-9")
    xx = _xx_apply(amps, mode_a, mode_b)
    m1c = np.vdot(amps, xx)
    m2 = float(np.real(np.vdot(xx, xx)))
    if abs(m1c.imag) > 1e-12 * max(1.0, np.sqrt(m2)):
        raise ArithmeticError(
            f"first moment has imaginary residue {m1c.imag:.3e}; state is inconsistent")
    return float(m1c.real), m2


def _lose(state: FockState, losses) -> FockState:
    """Each (mode, angle, levels) loss as `loss_unitary` onto a vacuum ancilla
    of `levels` levels, appended as the last mode when the loss acts.

    The map splits level k of the mode binomially, to |k - j>|j> with
    amplitude sqrt(C(k, j)) cos^(k - j) a (-sin a)^j (Campos, Saleh & Teich,
    PRA 40, 1371 (1989)), each weight from the one of level j - 1, so none
    overflows.  It drops the levels j >= `levels` that `ancilla_cutoff` bounds.
    """
    amps = state.amplitudes
    for mode, angle, levels in losses:
        dim = amps.shape[mode]
        shape = (-1,) + (1,) * (amps.ndim - mode - 1)
        out = np.zeros(amps.shape + (levels,), dtype=complex)
        weight = math.cos(angle) ** np.arange(dim)  # j = 0: cos^k a
        for j in range(min(levels, dim)):
            out[_axis(mode, slice(dim - j)) + (..., j)] = (
                amps[_axis(mode, slice(j, None))] * weight.reshape(shape))
            weight = weight[:-1] * (-math.sin(angle) * np.sqrt(np.arange(j + 1, dim) / (j + 1)))
        amps = out
    return FockState(amps, state.norm_deficit)


def _prepare(config: InterferometerConfig):
    """`tmsv_fock` after the preparation losses, and the arm losses still to
    apply, as `_lose` takes them.

    Each nonzero loss gets a vacuum ancilla of `ancilla_cutoff` levels,
    appended when its loss acts, so the ancillas follow the two signal modes
    in pipeline order and the arm ancillas are the last modes.  The tensor
    the last loss leaves is checked against the cap before anything is
    allocated.
    """
    dim = _pair_ladder(config.G)[1]
    losses = [(mode, angle, ancilla_cutoff(config.G, angle))
              for mode, angle in ((0, config.alpha1), (1, config.beta1),
                                  (0, config.alpha2), (1, config.beta2))
              if angle != 0.0]
    _check_size(math.prod([dim, dim] + [levels for _, _, levels in losses]))
    n_prep = (config.alpha1 != 0.0) + (config.beta1 != 0.0)
    return _lose(tmsv_fock(config.G, config.xi), losses[:n_prep]), losses[n_prep:]


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
    state, arm = _prepare(config)
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
    worst: GridCase
    failures: tuple

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def equivalence_grid() -> GridReport:
    """Cross-check the covariance engine against the Fock oracle on a grid.

    The grid is every gain in (0.2, 0.5, 0.8), preparation loss in (0, 0.1)
    on both signal modes, phase in (0, pi/8, pi/4, pi/2, 1.3) and imbalance
    in (-0.1, 0, 0.1) at each splitter.  The grid runs
    the stages of `oracle_pipeline`, with the loops ordered so each prepared
    state is reused across splitter settings and each split state across
    phases; with the sector-unitary cache this keeps the full grid
    (270 cases) well under a minute.

    The deviation of a case is the largest absolute difference over the
    mean, second moment, sigma, and photon count; a case fails above 1e-8.
    """
    imbalances = (-0.1, 0.0, 0.1)
    cases = []
    for G in (0.2, 0.5, 0.8):
        for loss in (0.0, 0.1):
            base = InterferometerConfig(G=G, alpha1=loss, beta1=loss)
            prep, _ = _prepare(base)
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
    worst = max(cases, key=lambda case: case.deviation)
    return GridReport(tolerance=_PASS_TOL, n_cases=len(cases),
                      max_deviation=worst.deviation, worst=worst,
                      failures=tuple(case for case in cases if case.deviation > _PASS_TOL))
