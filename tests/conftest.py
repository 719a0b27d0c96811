"""Shared test settings: hypothesis examples run without a per-example deadline.

Many property tests draw whole flows or blocks, whose first example pays
numpy's first-use costs, so a deadline would fail them on a slow or busy host.
"""

from hypothesis import settings

settings.register_profile("flowmark", deadline=None)
settings.load_profile("flowmark")
