"""Package namespace: every exported name, the numpy-backed ones loaded
on first use."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import coupledwell

SUBMODULES = [
    importlib.import_module(f"coupledwell.{name}")
    for name in ("errors", "model", "secular", "metric", "oracle", "wavefunctions", "battery")
]


@pytest.mark.parametrize("name", coupledwell.__all__)
def test_exported_name_is_the_submodule_object(name):
    homes = [module for module in SUBMODULES if name in vars(module)]
    assert homes
    for module in homes:
        assert getattr(coupledwell, name) is vars(module)[name]


EXPORTED = """BranchClass ChannelState Check CouplingPair CriticalResult
GridSpec InvalidToleranceError LeftState LevelSolution MIN_ROOT_PRODUCT
MetricConstraintError MetricWeights ModelDomainError NormalizationSingularError
NumericalFailureError OperatorRep RepBasis RootLostError SpectrumResult biorthogonality_matrix
build_hamiltonian build_theta_metric classify_branch compare_spectrum
critical_coupling criticality_scan doublet_family eigenpairs evaluate
first_complex_bracket group_degenerate inverse_identity_defect inverse_theta_metric left_vector
matching_residual mode_hamiltonian mode_spin pair_interval parity_overlap perturbative_eps
phi_bilinear_product quasi_hermiticity_defect quasi_parity residual sine_product_integral
solve_coefficients solve_level spectrum spin_operator subspace_alignment
verify""".split()


def test_exported_names_are_pinned():
    # a name joins or leaves the public surface only by an edit of this list
    assert EXPORTED == sorted(EXPORTED) and len(EXPORTED) == 51
    assert coupledwell.__all__ == EXPORTED


def test_star_import_and_dir_cover_every_exported_name():
    namespace = {}
    exec("from coupledwell import *", namespace)
    assert set(coupledwell.__all__) <= set(namespace)
    assert set(coupledwell.__all__) <= set(dir(coupledwell))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coupledwell.no_such_name
    assert not hasattr(coupledwell, "no_such_name")


LAZY_SCRIPT = """
import json, sys, coupledwell
report = {"dir": sorted(set(coupledwell.__all__) - set(dir(coupledwell))),
          "loaded_before": "coupledwell.metric" in sys.modules}
served = coupledwell.build_theta_metric
report["loaded_after"] = "coupledwell.metric" in sys.modules
report["bound"] = vars(coupledwell)["build_theta_metric"] is served
report["submodule"] = coupledwell.oracle.__name__
print(json.dumps(report))
"""


def test_numpy_backed_names_load_on_first_lookup_and_stay_bound():
    # a fresh interpreter: in this one the test imports loaded everything
    root = pathlib.Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    result = subprocess.run(
        [sys.executable, "-c", LAZY_SCRIPT],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "dir": [],
        "loaded_before": False,
        "loaded_after": True,
        "bound": True,
        "submodule": "coupledwell.oracle",
    }
