"""Make the hypothesis tests repeatable.

Every run draws the same examples and nothing is read from or saved to an
example database, so tier-1 gives the same result on any checkout.  Each
test keeps its own ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("clawvol", derandomize=True, database=None)
settings.load_profile("clawvol")
