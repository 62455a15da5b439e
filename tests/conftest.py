"""Shared test settings: property-based tests draw reproducibly."""
try:
    from hypothesis import settings
except ImportError:       # the property tests skip themselves without it
    pass
else:
    settings.register_profile("cavlab", derandomize=True, deadline=None)
    settings.load_profile("cavlab")
