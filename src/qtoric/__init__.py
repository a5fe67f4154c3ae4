"""Exact equivariant localization data and q-hypergeometric series for smooth
compact toric quotients.

A model is a K x N integer matrix presenting the manifold as a torus quotient
of C^N, plus a chamber point.  On top of that the library computes, entirely
in exact rational arithmetic:

* fixed points, degree pairings, Mori cone data, truncation boxes;
* minimal multiplicative relation sets and their fixed-point verification;
* localization sums: the K-theoretic trace, equivariant integrals, and
  integrals over spaces of degree-d spheres;
* q-hypergeometric series per fixed point (with bundle and super-bundle
  twists), the point-series q-exponential identity, and Adams operations;
* the q-difference system satisfied by the series, its Gamma-ratio
  reconstruction, and the degree-shift relations of the cohomological series;
* one-dimensional orbit data and the simple-pole residue recursion, with an
  independent Euler-class oracle.

Identities are machine-checked by exact evaluation at seeded random rational
parameter values; nothing is ever compared approximately.

Each name is imported from the module that defines it; the package itself
binds only ``__version__`` and ``resolve_model``.
"""

__version__ = "0.1.0"

from .models import resolve_model
