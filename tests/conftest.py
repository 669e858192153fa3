"""Shared test settings: every hypothesis test draws the same examples on every run."""

from hypothesis import settings

# derandomize seeds each test's draws from the test itself (and implies no example
# database), so a tier-1 run is repeatable; example counts and deadlines stay per test
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
