"""levylab: quantum dynamical semigroups driven by classical noise.

Construct increment laws, realize the noise-averaged dynamics by Monte
Carlo on a spectral lattice, verify the finite-dimensional structure theory
(complete positivity, jump expansion, gauge freedom, covariance), and probe
explosion through boundary classification of the abelian reduction.
"""

__version__ = "0.3.0"
