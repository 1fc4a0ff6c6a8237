"""Nonconforming primal finite elements for H(d) ∩ H(δ) problems.

Layered package: exact exterior algebra on polynomial forms (``forms``),
exact simplex integration and quadrature (``simplices``), the local
element with its degrees of freedom (``element``), triangulations
(``mesh``), the constrained global space and its explicit basis
(``globalspace``), manufactured fields (``fields``),
assembly/solvers/error norms (``solver``), the verification suite
(``verify``), and a command line front end (``cli``).
"""

__version__ = "0.1.0"

__all__ = [
    "forms",
    "simplices",
    "element",
    "mesh",
    "globalspace",
    "fields",
    "solver",
    "verify",
    "cli",
]
