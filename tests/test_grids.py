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
    half = np.zeros(41, dtype=complex)
    assert Spectrum(g, half).dirac == 0.0
    spec = Spectrum(g, half, 2.0)
    assert spec.dirac == 2.0 and type(spec.dirac) is float
    # the Dirac weight is never sampled onto the regular grid
    assert np.array_equal(spec.half, half)
    # a real numpy or complex weight is stored as a float, and a zero weight
    # carries no sign
    assert type(Spectrum(g, half, np.complex128(3.0)).dirac) is float
    zero = Spectrum(g, half, complex(-0.0, -0.0)).dirac
    assert zero == 0.0 and not np.signbit(zero)


@pytest.mark.parametrize("half, dirac", [
    (np.zeros(81), 0.0),                       # the full grid, not its half
    (np.zeros(40), 0.0),
    (np.full(41, np.inf), 0.0),
    (np.r_[np.nan, np.zeros(40)], 0.0),
    (np.r_[1e-300j, np.zeros(40)], 0.0),       # not real at omega = 0
    (np.zeros(41), 1.0 + 1e-300j),             # a weight that is not real
    (np.zeros(41), np.complex128(1.0 - 1.0j)),
], ids=["full_grid", "short", "inf", "nan", "imag_at_zero", "complex_weight",
        "numpy_complex_weight"])
def test_spectrum_rejects_what_no_hermitian_half_is(half, dirac):
    with pytest.raises(ValueError):
        Spectrum(FreqGrid(4.0, 81), half, dirac)


def test_full_is_the_bitwise_mirror():
    g = FreqGrid(4.0, 81)
    rng = np.random.default_rng(0)
    half = rng.normal(size=41) + 1j * rng.normal(size=41)
    half[0] = half[0].real
    full = Spectrum(g, half).full()
    assert full.shape == (81,)
    assert full[40:].tobytes() == half.tobytes()
    assert full[:40].tobytes() == np.conj(half[:0:-1]).tobytes()


def test_spectrum_algebra_and_norm():
    g = FreqGrid(4.0, 81)
    a = Spectrum(g, np.full(41, 1.0 + 0.0j), 2.0)
    b = Spectrum(g, np.r_[0.0, np.full(40, 0.0 + 1.0j)], -1.0)
    s = a + b
    assert s.half[1] == 1.0 + 1.0j
    assert s.dirac == 1.0
    d = s - b
    assert np.array_equal(d.half, a.half)
    assert d.dirac == 2.0
    assert a.sup_norm() == 2.0
    assert b.sup_norm() == 1.0
    assert Spectrum(g, np.full(41, 3.0 + 0.0j), -1.0).sup_norm() == 3.0
    g2 = FreqGrid(4.0, 161)
    with pytest.raises(ValueError):
        a + Spectrum(g2, np.zeros(81, dtype=complex))
