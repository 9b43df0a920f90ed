"""Closed-form references for the tests: the bundled two-level families
written out by hand, point by point, with their derivatives, and the
non-Hermitian Qi-Wu-Zhang model as a model file.

The bundled families are written once in ``src``, as ``.model`` files; the
forms here are the independent side they are checked against.
"""

import numpy as np

from ptqgt import HamiltonianFamily

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def spin_half(lam, mu=None):
    """H = l1 sx + l2 sy + l3 sz at one point, or its derivative along mu."""
    if mu is not None:
        return (SX, SY, SZ)[mu]
    return lam[0] * SX + lam[1] * SY + lam[2] * SZ


def pt_two_level(lam, mu=None, b=0.3):
    """H = s sx + i a sy + i b sz at one point lam = (a, s), or its
    derivative along mu."""
    if mu == 0:
        return np.array([[0, 1], [-1, 0]], dtype=complex)
    if mu == 1:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    a, s = lam
    return np.array([[1j * b, s + a], [s - a, -1j * b]], dtype=complex)


def family(reference, dim_param):
    """The 2x2 HamiltonianFamily of a closed form, called one point at a time."""
    return HamiltonianFamily(dim_hilbert=2, dim_param=dim_param, evaluate=reference,
                             derivative=reference)


# H = sin kx sx + sin ky sy + (m + cos kx + cos ky + i gamma) sz at m = 1,
# gamma = 0.3, over (kx, ky) = (l1, l2): Chern number -1 in the loop-phase
# sign, so that its curvature flux over the Brillouin zone is +2 pi
# (Shen, Zhen & Fu, PRL 120, 146402 (2018)).
QWZ_MODEL = """\
dim 2
params 2
H[1,1] = 1 + cos(l1) + cos(l2) + 0.3i
H[1,2] = sin(l1) - i*sin(l2)
H[2,1] = sin(l1) + i*sin(l2)
H[2,2] = -(1 + cos(l1) + cos(l2) + 0.3i)
"""


def qwz_derivative(lam, mu):
    """dH/dk_mu of QWZ_MODEL at one point."""
    k = lam[mu]
    if mu == 0:
        return np.cos(k) * SX - np.sin(k) * SZ
    return np.cos(k) * SY - np.sin(k) * SZ
