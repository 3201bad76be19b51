"""Cross-checks of the benchmark's full-basis oracle.

On the eta = 0 axis H = J^2 - zeta*cos^2 is a Mathieu operator. With
x = theta and q = zeta/4 the 2*pi-periodic spectrum is {a_m(q), b_m(q)} -
zeta/2. The parity under theta -> -theta maps q -> -q: the even (A1)
levels are a_{2k}(q) and b_{2k+1}(q), the odd (A2) levels b_{2k+2}(q) and
a_{2k+1}(q). scipy is used only here, as the reference.

Run: python3 -m pytest bench/test_oracle.py -q
"""

import math

import numpy as np
import pytest

import oracle

special = pytest.importorskip("scipy.special")


def _mathieu_sectors(zeta, count):
    q = zeta / 4.0
    even = sorted([special.mathieu_a(2 * k, q) for k in range(count)]
                  + [special.mathieu_b(2 * k + 1, q) for k in range(count)])
    odd = sorted([special.mathieu_b(2 * k + 2, q) for k in range(count)]
                 + [special.mathieu_a(2 * k + 1, q) for k in range(count)])
    return np.array(even) - zeta / 2.0, np.array(odd) - zeta / 2.0


@pytest.mark.parametrize("zeta", [4.0, 25.0, 100.0])
def test_mathieu_levels_and_parity(zeta):
    spec = oracle.solve(0.0, zeta, 64)
    even, odd = _mathieu_sectors(zeta, 6)
    np.testing.assert_allclose(oracle.sector_energies(spec, oracle.A1)[:8],
                               even[:8], rtol=0, atol=1e-11)
    np.testing.assert_allclose(oracle.sector_energies(spec, oracle.A2)[:8],
                               odd[:8], rtol=0, atol=1e-11)


def test_mathieu_deep_wells():
    # At q = 5e4 scipy's characteristic values are usable only for the
    # ground doublet (a_0, b_1); both members are even under theta -> -theta.
    zeta = 200000.0
    spec = oracle.solve(0.0, zeta, 256)
    q = zeta / 4.0
    ref = np.array([special.mathieu_a(0, q), special.mathieu_b(1, q)]) - zeta / 2
    np.testing.assert_allclose(spec.energies[:2], ref, rtol=1e-14, atol=0)
    assert spec.labels[:4] == (oracle.A1, oracle.A1, oracle.A2, oracle.A2)
    wider = oracle.solve(0.0, zeta, 320)
    np.testing.assert_allclose(wider.energies[:8], spec.energies[:8],
                               rtol=1e-14, atol=0)


def test_switch_on_energy_identity():
    # sum_n |<phi_n|j0>|^2 E_n = <j0|H|j0> = j0^2 - zeta/2 over the full basis
    spec = oracle.solve(-10.0, 25.0, 64)
    everything = np.arange(len(spec.energies))
    for j0 in (0, 1, 3):
        series = oracle.switch_on_series(spec, j0, everything, [0.0, 7.0])
        assert abs(series["energy"] - (j0 * j0 - 12.5)) < 1e-10
        assert abs(series["cos"][0]) < 1e-12
        assert abs(series["cos2"][0] - 0.5) < 1e-12


def test_constant_field_evolution_matches_eigenphases():
    spec = oracle.solve(-10.0, 25.0, 48)
    psi0 = spec.vectors[:, 0] + spec.vectors[:, 2]
    psi0 = psi0 / np.linalg.norm(psi0)

    def fields(_):
        return -10.0, 25.0

    exact = oracle.evolve(psi0, fields, 0.0, 3.0, 1, 48, constant=True)
    magnus = oracle.evolve(psi0, fields, 0.0, 3.0, 30, 48, constant=False)
    assert np.linalg.norm(exact - magnus) < 1e-10
    phase = np.exp(-1j * (spec.energies[2] - spec.energies[0]) * 3.0)
    ratio = (spec.vectors[:, 2] @ exact) / (spec.vectors[:, 0] @ exact)
    assert abs(ratio - phase) < 1e-10


def test_magnus_is_fourth_order():
    m_max = 32

    def fields(t):
        s = 0.5 * (1.0 - math.cos(math.pi * t / 0.5))
        return -10.0 * s, 25.0 * s

    psi0 = np.zeros(2 * m_max + 1, complex)
    psi0[m_max + 1] = 1.0
    finals = [oracle.evolve(psi0, fields, 0.0, 0.5, n, m_max, constant=False)
              for n in (10, 20, 40)]
    d1 = np.linalg.norm(finals[0] - finals[1])
    d2 = np.linalg.norm(finals[1] - finals[2])
    assert 12.0 < d1 / d2 < 20.0


def test_crossing_kinds_follow_kappa_parity():
    zeta = 25.0
    root = math.sqrt(zeta)
    for kappa, pair in ((1, (1, 2)), (2, (2, 3))):
        eta_c, gap, kind = oracle.locate_crossing(
            zeta, -(kappa + 0.4) * root, -(kappa - 0.4) * root, pair)
        assert kind == ("genuine" if kappa % 2 else "avoided")
        assert abs(abs(eta_c) / root - kappa) < 0.01
        if kind == "genuine":
            assert gap < 1e-10
