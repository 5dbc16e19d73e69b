"""Package namespace: every exported name, the numpy-backed ones loaded
on first use."""

import ast
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
    for name in ("errors", "model", "secular", "critical", "metric", "oracle", "wavefunctions",
                 "battery")
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
build_hamiltonian build_theta_metric compare_spectrum
critical_coupling criticality_scan doublet_family eigenpairs evaluate
first_complex_bracket inverse_identity_defect inverse_theta_metric left_vector
matching_residual mode_hamiltonian mode_spin pair_interval parity_overlap perturbative_eps
phi_bilinear_product quasi_hermiticity_defect quasi_parity residual sine_product_integral
solve_coefficients solve_level spectrum subspace_alignment
verify""".split()


def test_exported_names_are_pinned():
    # a name joins or leaves the public surface only by an edit of this list
    assert EXPORTED == sorted(EXPORTED) and len(EXPORTED) == 48
    assert coupledwell.__all__ == EXPORTED


ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coupledwell"
# exported functions that no code outside the tests calls, each with its reason
WITHOUT_CALLER = {
    "residual": "it is the secular function g itself, whose roots are the levels",
    "solve_coefficients": "it builds the states of one level without solving the levels below it",
}


def _uses(tree, modules):
    # the names a file imports with `from ... import name`, and those it reads
    # as an attribute of cw, coupledwell or a submodule (oracle.x, coupledwell.metric.x)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                yield node.attr


def _defined(tree):
    # the names a module binds at its top level, by def or by assignment
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))


def test_every_exported_function_has_a_caller_outside_the_tests():
    # outside its own module, in the package (not its __init__), the demos or perfbench
    modules = {"cw", "coupledwell", *(path.stem for path in PACKAGE.glob("*.py"))}
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    files.remove(PACKAGE / "__init__.py")
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    used = {path: set(_uses(tree, modules)) for path, tree in trees.items()}
    homes = {name: path for path in files if path.parent == PACKAGE for name in _defined(trees[path])}
    functions = [name for name in EXPORTED if not isinstance(getattr(coupledwell, name), type)]
    callers = {name: [path for path in files if path != homes[name] and name in used[path]]
               for name in functions}
    assert sorted(name for name in functions if not callers[name]) == sorted(WITHOUT_CALLER)


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
