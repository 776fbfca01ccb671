"""Exact topological recursion on the Bessel curve.

Correlator coefficients by residue calculus and by the closed combinatorial
recursion, the partition function over the odd variables, and mechanical
verification of its integrability structure: Virasoro annihilation, the
cut-and-join flow, the KdV residual, string/dilaton, and the quantum-curve
differential equation for the wave function. All arithmetic is exact.

The package root exports what the README's worked example imports, and
`compute_omega`, which stays because the benchmark's self-test deletes it by
name; everything else is imported from its module (`bessel_tr.verify`, ...).
"""

from .correlators import CorrelatorTable
from .pseries import partition_function
from .spectral import compute_omega
from .wave import principal_specialize

__version__ = "0.1.0"

__all__ = ["CorrelatorTable", "compute_omega", "partition_function", "principal_specialize"]
