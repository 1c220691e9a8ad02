from hypothesis import settings

# Property tests draw the same examples on every run, and a slow example on
# a loaded host is not a failure.
settings.register_profile("dualnav", derandomize=True, deadline=None)
settings.load_profile("dualnav")
