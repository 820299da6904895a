"""Numerical laboratory for quantized Hamiltonian dynamics on the sphere.

Submodules:

- ``siegel``: pointwise geometry of compatible linear complex structures
- ``unitary_metric``: Finsler distances on U(N) and its universal cover
- ``sphere``: prequantized sphere, quadrature, Calabi invariant
- ``hamiltonians``: closed-form polynomial paths and their presets
- ``flow``: Hamiltonian flows and tangent maps (one RK4 loop), chart frames
- ``quantize``: holomorphic sections and quantized operators
- ``propagate``: Magnus propagation with a determinant-phase lift, product paths
- ``invariants``: scalar curvature, disc-area quasimorphism, defect
- ``harness`` / ``cli``: experiment sweeps, reports, command line
"""

__version__ = "0.1.0"
