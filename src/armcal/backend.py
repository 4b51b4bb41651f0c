"""Name of the numerical backend, as recorded in run fingerprints.

The integrator kernel is the numpy one in ``_kernel_py``; there is no other.
"""

from . import _kernel_py


def backend_name():
    return _kernel_py.BACKEND_NAME
