"""Kernel backend selection.

The hot inner loop (PD + friction substeps) exists twice: a Cython extension
built at install time and a numpy fallback. The compiled one is used when
importable; ``ARMCAL_BACKEND=python|compiled`` forces a choice at import.
Within one backend all results are bit-reproducible; across backends the two
tanh implementations may differ in the last ulp.
"""

import os

from . import _kernel_py

try:
    from . import _kernel_cy
except ImportError:
    _kernel_cy = None

_FORCED = os.environ.get("ARMCAL_BACKEND", "")
if _FORCED == "python":
    _active = _kernel_py
elif _FORCED == "compiled":
    if _kernel_cy is None:
        raise ImportError("ARMCAL_BACKEND=compiled but the extension is not built")
    _active = _kernel_cy
else:
    _active = _kernel_cy if _kernel_cy is not None else _kernel_py


def backend_name():
    return _active.BACKEND_NAME


def substep_batch(q, qd, target, f, p, d, inv_inertia, dt, n_sub, eps_v):
    _active.substep_batch(q, qd, target, f, p, d, inv_inertia, dt, n_sub, eps_v)

