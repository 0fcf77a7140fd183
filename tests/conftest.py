"""Suite-wide test settings.

Property tests run under one hypothesis profile: derandomized, so every
run of the suite tries the same examples, with no per-example deadline
and a bounded number of examples, so the suite stays fast.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("suite", derandomize=True, deadline=None, max_examples=25)
    settings.load_profile("suite")
