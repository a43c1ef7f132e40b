"""Grid and container invariants."""

import numpy as np
import pytest

from qcle import FreqGrid, SampledSignal, Spectrum, TimeGrid


def test_time_grid():
    g = TimeGrid(10.0, 101)
    assert g.dt == pytest.approx(0.1)
    t = g.times
    assert t[0] == 0.0 and t[-1] == 10.0
    assert np.all(np.diff(t) > 0)
    with pytest.raises(ValueError):
        TimeGrid(10.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)


def test_freq_grid_symmetry_and_zero():
    g = FreqGrid(5.0, 201)
    om = g.omegas
    assert om[g.zero_index] == 0.0
    assert np.array_equal(om, -om[::-1])  # exact negation symmetry
    assert om[-1] == pytest.approx(5.0)
    with pytest.raises(ValueError):
        FreqGrid(5.0, 200)  # even n has no zero node
    with pytest.raises(ValueError):
        FreqGrid(-1.0, 201)


def test_sampled_signal_validation():
    g = TimeGrid(1.0, 11)
    with pytest.raises(ValueError):
        SampledSignal(g, np.zeros(10))
    with pytest.raises(ValueError):
        SampledSignal(g, np.full(11, np.nan))
    assert SampledSignal(g, np.linspace(-2, 1, 11)).values[0] == -2.0


def test_spectrum_singular_bookkeeping():
    g = FreqGrid(4.0, 81)
    vals = np.zeros(81, dtype=complex)
    assert Spectrum(g, vals).dirac == 0j
    spec = Spectrum(g, vals, 1.0 + 2.0j)
    assert spec.dirac == 1.0 + 2.0j and type(spec.dirac) is complex
    # the Dirac weight is never sampled onto the regular grid
    assert np.array_equal(spec.values, vals)
    # a zero weight carries no sign
    zero = Spectrum(g, vals, complex(-0.0, -0.0)).dirac
    assert not np.signbit(zero.real) and not np.signbit(zero.imag)
    with pytest.raises(ValueError):
        Spectrum(g, np.full(81, np.inf, dtype=complex))


def test_spectrum_algebra_and_norm():
    g = FreqGrid(4.0, 81)
    a = Spectrum(g, np.full(81, 1.0 + 0.0j), 2.0)
    b = Spectrum(g, np.full(81, 0.0 + 1.0j), 1.0j)
    s = a + b
    assert s.values[0] == 1.0 + 1.0j
    assert s.dirac == 2.0 + 1.0j
    d = s - b
    assert np.array_equal(d.values, a.values)
    assert d.dirac == 2.0
    assert a.sup_norm() == 2.0
    assert b.sup_norm() == 1.0
    assert Spectrum(g, np.full(81, 3.0 + 0.0j), 1.0j).sup_norm() == 3.0
    g2 = FreqGrid(4.0, 161)
    with pytest.raises(ValueError):
        a + Spectrum(g2, np.zeros(161, dtype=complex))


def test_hermitian_projection():
    g = FreqGrid(4.0, 81)
    rng = np.random.default_rng(0)
    raw = Spectrum(g, rng.normal(size=81) + 1j * rng.normal(size=81),
                   1.0 + 1.0j)
    assert not raw.is_hermitian()
    sym = raw.hermitian_symmetrized()
    assert sym.is_hermitian()
    # the Dirac at omega = 0 is its own mirror: only its real part survives
    assert sym.dirac == 1.0
    assert not Spectrum(g, sym.values, 1.0 + 1.0j).is_hermitian()
    # projection is idempotent
    assert np.array_equal(sym.hermitian_symmetrized().values, sym.values)
