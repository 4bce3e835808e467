"""The package's public names resolve lazily to their submodules' objects."""

import importlib

import pytest

import intlegendre

# The public names, as the package exported them when it imported every submodule.
PUBLIC = {
    "exactpoly": ("NotDivisible", "Poly", "X"),
    "legendre": ("LegendreTable", "build_legendre", "legendre_special_values"),
    "qfamily": ("QTable", "RootCountMismatch", "build_q_table", "q_norm_sq", "q_roots",
                "weighted_inner_product"),
    "kernel": ("InadmissibleFunction", "KernelSection", "kernel_cd", "kernel_confluent",
               "kernel_sum", "reproducing_check"),
    "approx": ("ExpansionReport", "ExtremalSolution", "brute_force_minimizer", "expand",
               "fourier_coeff_moments", "fourier_coeff_quadrature", "minimize_constrained"),
    "moebius": ("DegenerateMap", "MoebiusMap", "RFamily", "TransformedSystem",
                "build_r_family", "build_transformed_system", "induced_endpoints",
                "induced_weight"),
    "quad": ("QuadratureRule", "gauss_legendre", "integrate"),
    "verdict": ("Verdict",),
    "verify": ("VerificationReport", "run_verification"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_public_names():
    assert len(intlegendre.__all__) == len(NAMES) == 39
    assert set(intlegendre.__all__) == {name for _, name in NAMES}


@pytest.mark.parametrize("module, name", NAMES, ids=[n for _, n in NAMES])
def test_name_is_its_submodules_object(module, name):
    submodule = importlib.import_module(f"intlegendre.{module}")
    assert getattr(intlegendre, name) is getattr(submodule, name)
    assert getattr(intlegendre, module) is submodule


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from intlegendre import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(intlegendre.__all__)
    assert all(namespace[name] is getattr(intlegendre, name) for name in intlegendre.__all__)


def test_dir_lists_the_public_names_and_submodules():
    listed = set(dir(intlegendre))
    assert set(intlegendre.__all__) <= listed
    assert set(PUBLIC) | {"cli"} <= listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        intlegendre.nope
    assert not hasattr(intlegendre, "nope")
