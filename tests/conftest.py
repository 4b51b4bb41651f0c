"""One hypothesis profile for every property test: derandomized, so each
test runs a fixed set of examples and a failure reproduces, with no example
database and no deadline. A test that needs more or fewer examples than 40
overrides max_examples alone."""

from hypothesis import settings

settings.register_profile("armcal", derandomize=True, database=None,
                          deadline=None, max_examples=40)
settings.load_profile("armcal")
