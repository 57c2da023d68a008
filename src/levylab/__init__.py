"""levylab: quantum dynamical semigroups driven by classical noise.

Construct increment laws, realize the noise-averaged dynamics by Monte
Carlo on a spectral lattice, verify the finite-dimensional structure theory
(complete positivity, jump expansion, gauge freedom, covariance), and probe
explosion through boundary classification of the abelian reduction.
"""

import os

# One BLAS/OpenMP thread unless the caller chose otherwise: the package's
# small products run slower on more threads, and its parallelism is
# ``--threads``.  This takes effect only if numpy is not yet loaded.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.3.0"
