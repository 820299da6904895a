"""Numerical laboratory for quantized Hamiltonian dynamics on the sphere.

Submodules:

- ``siegel``: pointwise geometry of compatible linear complex structures
- ``unitary_metric``: Finsler distances on U(N) and its universal cover
- ``sphere``: prequantized sphere, quadrature, Calabi invariant
- ``hamiltonians``: closed-form polynomial paths and their presets
- ``flow``: Hamiltonian flows and tangent maps (one RK4 loop), chart frames
- ``quantize``: holomorphic sections and quantized operators
- ``propagate``: Magnus propagation with a determinant-phase lift, product paths
- ``invariants``: disc-area quasimorphism, homomorphism defect
- ``harness`` / ``cli``: experiment sweeps, reports, command line

The package holds what its sweeps run.  Known-answer routes it no longer
runs (the finite-difference scalar curvature, pushforwards of complex
structures, the RK4 holomorphy probe) are test oracles in ``tests/oracles.py``.
"""

__version__ = "0.1.0"
