"""Product-signal moments against an independent integration oracle."""
import numpy as np
import pytest

from squint import InterferometerConfig
from conftest import quadrature_product_moments, random_two_mode_state
from reference import (apply_symplectic, mean_photon_number, product_mean, product_second_moment,
                       product_sigma, reference_output_state, two_mode_squeezer, vacuum_state)


def test_moments_match_direct_integration(rng):
    # Factored fourth moment vs brute-force Gauss-Hermite quadrature.
    for _ in range(60):
        state = random_two_mode_state(rng)
        m1_ref, m2_ref = quadrature_product_moments(state)
        assert product_mean(state) == pytest.approx(m1_ref, abs=1e-8)
        assert product_second_moment(state) == pytest.approx(m2_ref, abs=1e-8)


def test_sigma_consistent_with_moments(rng):
    for _ in range(40):
        state = random_two_mode_state(rng)
        m1 = product_mean(state)
        m2 = product_second_moment(state)
        sig = product_sigma(state)
        assert sig * sig + m1 * m1 == pytest.approx(m2, abs=1e-12 * max(1.0, m2))


def test_vacuum_moments():
    vac = vacuum_state()
    assert product_mean(vac) == 0.0
    assert product_second_moment(vac) == pytest.approx(1.0, abs=1e-15)
    assert product_sigma(vac) == pytest.approx(1.0, abs=1e-15)
    assert mean_photon_number(vac) == 0.0


def test_squeezed_pair_moments_closed_form():
    # With N = 2 sinh^2 G: <X_a X_b> = sinh G cosh G * something phase-locked;
    # straight out of the squeezer (xi = 0) the correlation is -p-type, so
    # the x-x covariance and the product moments follow the N-formulas below.
    G = 1.0
    n = 2 * np.sinh(G) ** 2
    state = apply_symplectic(vacuum_state(), two_mode_squeezer(G, np.pi / 2))
    # xi = pi/2 aligns the correlation with the x quadratures
    assert product_mean(state) == pytest.approx(
        2 * np.sinh(G) * np.cosh(G), abs=1e-12)
    assert mean_photon_number(state) == pytest.approx(n, abs=1e-12)
    # second moment of the product: vaa*vbb + 2 vab^2 with vaa = vbb = cosh 2G
    vab = 2 * np.sinh(G) * np.cosh(G)
    expected = np.cosh(2 * G) ** 2 + 2 * vab ** 2
    assert product_second_moment(state) == pytest.approx(expected, abs=1e-10)


def test_product_second_moment_equals_squared_mean_plus_one_package():
    # Balanced ideal device at phi = 0: second moment is (N + 1)^2.
    from squint import InterferometerConfig, evaluate
    G = 1.0
    n = 2 * np.sinh(G) ** 2
    stats = evaluate(InterferometerConfig(G=G), 0.0)
    assert stats.second_moment == pytest.approx((n + 1) ** 2, abs=1e-10)
    assert stats.sigma == pytest.approx(n + 1, abs=1e-10)


def test_sigma_clamps_tiny_negative_variance():
    # A state with m2 == m1^2 exactly can dip negative by roundoff; the
    # clamp must return 0, not raise.
    cov = np.eye(4)
    cov[0, 2] = cov[2, 0] = 0.999999999
    cov[0, 0] = cov[2, 2] = 1.0
    assert product_sigma(cov) >= 0.0


def test_sigma_raises_on_inconsistent_state():
    # The factored variance vaa*vbb + vab^2 is non-negative for any real
    # covariance with vaa, vbb >= 0, so a negative-variance result can only
    # come from a corrupted state; a negative diagonal entry triggers it.
    cov = np.eye(4)
    cov[0, 0] = -5.0
    cov[0, 2] = cov[2, 0] = 2.0  # m2 = -5 + 8 = 3 < m1^2 = 4
    with pytest.raises(ArithmeticError):
        product_sigma(cov)


def test_mean_photon_number_additive():
    G = 0.8
    state = apply_symplectic(vacuum_state(), two_mode_squeezer(G, 0.3))
    per_mode = np.sinh(G) ** 2
    assert mean_photon_number(state) == pytest.approx(2 * per_mode, abs=1e-12)


def reference_readers(cov):
    """The readers as numpy expressions: np.trace, numpy-scalar products and
    np.sqrt, each converted to a float at the end."""
    vab = cov[0, 2]
    m2 = float(cov[0, 0] * cov[2, 2] + 2.0 * vab * vab)
    var = m2 - float(vab) * float(vab)
    return (float(vab), m2, float(np.sqrt(max(var, 0.0))),
            float((np.trace(cov) - cov.shape[0]) / 4.0))


def test_readers_match_numpy_reference_bit_for_bit(rng):
    states = [random_two_mode_state(rng) for _ in range(60)]
    lossy = InterferometerConfig(G=2.1, xi=0.4, alpha1=0.03, beta2=0.2, delta1=0.1,
                                 delta2=-0.2)
    states += [reference_output_state(cfg, phi)
               for cfg in (lossy, InterferometerConfig.with_symmetric_loss(1.3, 0.05, 0.1))
               for phi in (0.0, -0.0, 0.3, np.pi / 2, 2.9)]
    for cov in states:
        got = (product_mean(cov), product_second_moment(cov), product_sigma(cov),
               mean_photon_number(cov))
        assert all(type(v) is float for v in got)
        # float.hex tells -0.0 from 0.0
        assert [v.hex() for v in got] == [v.hex() for v in reference_readers(cov)]
