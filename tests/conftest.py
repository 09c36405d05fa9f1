"""Session setup shared by all tests."""

import warnings

# When a property fails, Hypothesis imports hypothesis.extra._patching to
# write its failure patch.  That import pulls in libcst, whose
# mypy_extensions dependency raises a DeprecationWarning, and under
# ``filterwarnings = ["error"]`` the warning ends the session with an
# INTERNALERROR instead of reporting the test as FAILED.  Importing the
# module once here, with its own warnings ignored, leaves later imports
# cached; warnings from pdwg, numpy and scipy stay errors.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401
