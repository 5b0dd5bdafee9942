"""Session setup shared by every test module."""

import contextlib
import importlib
import warnings

# At a failing example, hypothesis's pytest plugin imports this module to
# write a patch. The libcst it loads warns on import, and under `pytest -W
# error` (which overrides the ini `filterwarnings`) that warning becomes an
# INTERNALERROR that ends the session. Imported once here with warnings
# silenced, it has nothing left to warn. Without libcst the plugin writes no
# patch, and this import is skipped too.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    importlib.import_module("hypothesis.extra._patching")
