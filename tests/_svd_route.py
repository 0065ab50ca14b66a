"""The constraint-SVD route to the erasure, pure and annihilating spaces.

The package writes the complements of these spaces down in closed form from
the gram tensor.  This module keeps the older route as a second one: each
space is the nullspace of its (K^2, 4^n) condition system, the rows of
erasure._deviations, from one thin SVD with a relative rank cut.  Dimensions
come out of that rank cut here, not from the structure of the conditions.
"""

import numpy as np

from qerasure import OperatorSubspace
from qerasure.erasure import _deviations


def _nullspace(code, alpha):
    return OperatorSubspace.from_constraints(code.n, _deviations(code.grams, alpha).T)


def erasure_space_svd(code):
    return _nullspace(code, code.grams[:, 0, 0])


def pure_space_svd(code):
    trace = np.zeros(4**code.n)
    trace[0] = 1.0  # tr(sigma)/2^n: 1 at the identity, 0 elsewhere
    return _nullspace(code, trace)


def annihilating_space_svd(code):
    return _nullspace(code, 0)
