"""Parameter containers and the harmonic preset."""

import pytest

from qcle import BathParams, PotentialParams
from qcle.params import parabolic


def test_potential_invariants():
    with pytest.raises(ValueError):
        PotentialParams(eta=1.0, alpha=-0.1)
    with pytest.raises(ValueError):
        PotentialParams(eta=-1.0, alpha=0.0)  # unbounded below
    with pytest.raises(ValueError):
        PotentialParams(eta=1.0, f0=0.0)
    PotentialParams(eta=-1.0, alpha=0.5)  # double well accepted


def test_presets_follow_sign_patterns():
    p = parabolic()
    assert (p.eta, p.alpha, p.epsilon) == (1.0, 0.0, 0.0)


def test_bath_invariants():
    for bad in [dict(gamma=0.0, temp=1.0, nu=1.0),
                dict(gamma=1.0, temp=0.0, nu=1.0),
                dict(gamma=1.0, temp=1.0, nu=0.0)]:
        with pytest.raises(ValueError):
            BathParams(**bad)

