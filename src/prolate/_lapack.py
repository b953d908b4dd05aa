"""The five LAPACK routines the package calls, loaded without scipy.linalg.

dstebz and dstein (bisection and inverse iteration in the spectrum), dtbtrs
and dgtsv (the coefficient profile) and dsterf (the Gauss rules) all live
in one compiled scipy extension, scipy/linalg/_flapack.  Importing it the
usual way first runs the scipy.linalg package __init__, which costs a fresh
process about 0.2 s and 20 MB of modules the package never uses.  So this
module loads the extension file by path with
importlib.machinery.ExtensionFileLoader and registers it in sys.modules
under its own name, where a later import of scipy.linalg finds it.

The risk: the file is private to scipy, and a scipy release may move or
rename it.  When it is not found in scipy/linalg/, the module falls back to
``from scipy.linalg import _flapack``, slower to import but still working.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _extension():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")   # locates scipy, runs none of it
    for root in scipy.submodule_search_locations if scipy else ():
        finder = importlib.machinery.FileFinder(
            os.path.join(root, "linalg"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(_NAME)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_NAME] = module
            spec.loader.exec_module(module)
            return module
    from scipy.linalg import _flapack
    return _flapack


_flapack = _extension()
dstebz, dstein, dtbtrs, dgtsv, dsterf = (
    _flapack.dstebz, _flapack.dstein, _flapack.dtbtrs, _flapack.dgtsv,
    _flapack.dsterf)
