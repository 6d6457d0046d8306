"""Simulation and verification laboratory for nonlinear filter stability.

Finite-state signals observed in white noise: Wonham filters, divergence
decay along filter pairs, backward-map variance diagnostics, and
conditional Poincare constants, with reproducible Monte Carlo ensembles.
The root holds only __version__; names are imported from their modules.
"""

__version__ = "1.0.0"
