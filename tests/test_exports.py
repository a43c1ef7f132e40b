"""The package's public names."""

import qcle

REMOVED = ("FunctionalProblem", "MomentSet", "asymmetric_bistable", "bistable",
           "max_error_remainder", "nondimensionalize", "solve_response_djm",
           "volterra_b", "volterra_f", "zero_noise")


def test_all_names_resolve_once():
    assert all(hasattr(qcle, name) for name in qcle.__all__)
    assert len(set(qcle.__all__)) == len(qcle.__all__)
    assert not set(REMOVED) & set(qcle.__all__)
