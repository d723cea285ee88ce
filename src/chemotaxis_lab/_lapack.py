"""LAPACK dpttrf and dpttrs, without importing scipy.linalg.

The signal solve and the implicit diffusion need only these two routines
of SciPy's f2py extension scipy.linalg._flapack, which needs only NumPy.
Importing them from scipy.linalg.lapack first runs the scipy and
scipy.linalg packages: several hundred modules, about half the start-up of
a short simulate.  So the extension is loaded from its file, found under
the directory that importlib.util.find_spec reports for scipy (which runs
no SciPy code) with the first name in EXTENSION_SUFFIXES that exists.
That path is private to SciPy: when it is missing or fails to load, the
public import is used, and only the start-up time is lost.

The names are bound to the f2py routines themselves.  CPython keeps one
copy of a single-phase extension per process, so a later import of
scipy.linalg in the same process hands out these same objects.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os


def _load_flapack():
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "linalg", "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module.dpttrf, module.dpttrs
    raise ImportError(f"no scipy.linalg._flapack extension file under {scipy_dir}")


try:
    dpttrf, dpttrs = _load_flapack()
except Exception:  # SciPy absent, moved or unloadable: the public import decides
    from scipy.linalg.lapack import dpttrf, dpttrs
