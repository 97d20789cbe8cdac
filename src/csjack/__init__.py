"""Exact symbolic Jack polynomials over Q(beta), with operator machinery.

The package builds Jack polynomials by repeated application of raising
operators assembled from Dunkl-type derivatives, cross-checks them against
independent constructions, and computes the quasi-particle spectrum of the
underlying trigonometric many-body model.

`import csjack` loads no layer: each name below imports its home module on
first access (PEP 562), so a command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# home module of every exported name
_EXPORTS = {
    "errors": ("AlgebraError",),
    "fieldring": ("BETA", "ONE", "ZERO", "FieldElement", "pochhammer"),
    "partitions": ("Partition", "dominates", "partitions_of"),
    "polyring": ("LaurentPoly", "VarContext", "divide_by_vardiff"),
    "symbases": (
        "BasisExpansion",
        "monomial_sym",
        "power_sum",
        "schur",
        "expand_in_basis",
        "scalar_product_p",
        "circle_inner_product",
    ),
    "operators": (
        "apply_dunkl",
        "apply_D",
        "apply_D_string",
        "apply_B_plus",
        "apply_N",
        "apply_H",
        "apply_L",
        "apply_hatD",
        "apply_hatH",
    ),
    "rodrigues": ("jack", "JackResult", "rodrigues_raw", "c_coefficient"),
    "oracle": (
        "eigenvalue_epsilon",
        "jack_by_triangular_H",
        "jack_by_gram_schmidt",
        "jack_by_symmetrization",
        "nonsym_eigenfunction",
        "nonsym_eigenvalues",
    ),
    "spectrum": (
        "ModelParams",
        "ground_energy",
        "quasi_momenta",
        "total_momentum",
        "total_energy",
        "spectrum_record",
        "wavefunction_descriptor",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
