"""Suite-wide settings.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` hypothesis profile: every
property test draws the same examples on every run and keeps no example
database, so a gate passes or fails on the code alone.  Local runs keep
the randomized default profile, and so does a blank
``HYPOTHESIS_PROFILE=`` (as a CI matrix or shell template can leave it).
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "default")
