"""Retrieving density-matrix moments tr[rho^k] from noisy quantum states.

Synthesis of optimal retrieval protocols (conic programming and closed
forms), exact and finite-shot evaluation, and a Fermi-Hubbard ground-state
purity demonstration.
"""

__version__ = "0.1.0"
