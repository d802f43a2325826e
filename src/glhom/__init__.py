"""Exact counting of homomorphisms from a finite group A into GL_n(q).

Given the degree profile of A (order plus irreducible representation
degrees over a splitting field), this package computes the polynomial
|Hom(A, GL_n(q))| in q exactly, its top term at every n, and the stability
bound N from which that term is the paper's m_r * q^(n^2(1-1/a) - eps_r) --
with a built-in brute-force oracle over small finite matrix groups that
independently verifies the numbers.

Every public name, and each layer module, is imported on first use, so a
command loads only the layers it runs (and only ``verify`` loads numpy).
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each layer
_LAYERS = {
    "counting": "NEG_INFINITY IntPolynomial hom_count_poly",
    "errors": "GlhomError InvariantViolation ParseError RangeError ResourceLimit"
    " UnsupportedFamily ValidationError",
    "minimize": "LeadingTerm MinimalReport StabilityBound leading_term minimal_tuples"
    " stability_bound",
    "oracle": "Presentation builtin_presentation gl_count hom_count_bruteforce",
    "profiles": "DegreeProfile GroupSpec parse_group_spec profile_of splitting_field_check",
}
_MODULE_OF = {name: module for module, names in _LAYERS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
