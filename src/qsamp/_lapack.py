"""Two LAPACK kernels that keep relative accuracy however far the values sit
below the matrix norm, called through the C entry points (LP64 ints) that
scipy.linalg.cython_lapack exports: dqds singular values of a bidiagonal
(dlasq1; Fernando & Parlett 1994) and the stationary qd Sturm count of an
LDL' factorization (dlarrc; Dhillon & Parlett 2004).  A scipy without
either entry point fails at import."""

import ctypes

import numpy as np
from scipy.linalg import cython_lapack

from .errors import NoConvergence

_api = ctypes.pythonapi
_api.PyCapsule_GetName.restype = ctypes.c_char_p
_api.PyCapsule_GetName.argtypes = [ctypes.py_object]
_api.PyCapsule_GetPointer.restype = ctypes.c_void_p
_api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]


def _routine(name):
    capsule = getattr(cython_lapack, "__pyx_capi__", {}).get(name)
    if capsule is None:
        raise ImportError(f"scipy.linalg.cython_lapack exports no {name}; qsamp needs it")
    address = _api.PyCapsule_GetPointer(capsule, _api.PyCapsule_GetName(capsule))
    return ctypes.CFUNCTYPE(None)(address)


_dlasq1, _dlarrc = _routine("dlasq1"), _routine("dlarrc")
_int, _double, _ref = ctypes.c_int, ctypes.c_double, ctypes.byref
_doubles = ctypes.POINTER(_double)


def singular_values(diag, off) -> np.ndarray:
    """Singular values, descending, of the upper bidiagonal matrix with the
    given diagonal and superdiagonal; NoConvergence if dqds reports none."""
    q, e, info = np.array(diag, dtype=float), np.array(off, dtype=float), _int()
    _dlasq1(_ref(_int(len(q))), q.ctypes, e.ctypes, np.empty(4 * len(q)).ctypes, _ref(info))
    if info.value:
        raise NoConvergence(f"dqds did not converge (dlasq1 info = {info.value})")
    return q


def negcount(D, L):
    """sigma -> the number of eigenvalues of L diag(D) L' at or below sigma,
    with L unit lower bidiagonal, L below its diagonal.  Arrays and scalars
    are prepared once, for every count."""
    D, L = np.array(D, dtype=float), np.array(L, dtype=float)
    n, sigma, counts = _int(len(D)), _double(), [_int() for _ in range(4)]
    args = (b"L", _ref(n), _ref(sigma), _ref(sigma), D.ctypes.data_as(_doubles),
            L.ctypes.data_as(_doubles), _ref(_double()), *map(_ref, counts))

    def count(s: float) -> int:
        sigma.value = s
        _dlarrc(*args)
        return counts[1].value

    return count
