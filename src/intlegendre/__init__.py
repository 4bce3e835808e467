"""Exact-arithmetic toolkit for the integrated Legendre family.

Members of the family are the antiderivatives of Legendre polynomials pinned
to vanish at both endpoints; they are orthogonal under the weight 1/(1-x^2).
The package builds their exact tables, reproducing kernels, constrained
extremal solutions, Fourier expansions and Moebius-transformed orthogonal
systems, and ships a verification registry that confirms or corrects every
closed-form identity it relies on.

Each submodule executes on its first use. Importing the package registers
every submodule in ``sys.modules`` unexecuted (``importlib.util.LazyLoader``),
and the public names resolve through the module ``__getattr__`` (PEP 562), so
a fresh command-line process compiles only what its subcommand touches. On
Python 3.10 and 3.11 the lazy loader takes no lock: the first touch of a
submodule from two threads at once is unsupported.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "exactpoly": ("NotDivisible", "Poly", "X"),
    "legendre": ("build_legendre", "legendre_special_values"),
    "qfamily": ("RootCountMismatch", "build_q_table", "q_norm_sq", "q_roots",
                "weighted_inner_product"),
    "kernel": ("KernelSection", "kernel_sum"),
    "approx": ("ExpansionReport", "ExtremalSolution", "brute_force_minimizer", "expand",
               "fourier_coeff_moments", "minimize_constrained"),
    "moebius": ("DegenerateMap", "MoebiusMap", "TransformedSystem", "build_r_family",
                "build_transformed_system", "induced_endpoints", "induced_weight"),
    "quad": ("QuadratureRule", "gauss_legendre", "integrate"),
    "verdict": ("Verdict",),
    "verify": ("VerificationReport", "run_verification"),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def _register(name: str):
    spec = PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# runpy imports this package to find `python -m intlegendre.cli`, with sys.argv[0] "-m" until
# it has found the module, and warns if the module is in sys.modules by then
globals().update({name: _register(name) for name in _EXPORTS
                  if name != "cli" or sys.argv[:1] != ["-m"]})


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
