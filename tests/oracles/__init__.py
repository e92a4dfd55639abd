"""Reference implementations the shipped code is tested against.

Each module keeps a slow, plainly correct version of a behaviour that
``src/repro`` implements once, fast: the seed packet event loop
(:mod:`oracles.engine`), the rescan-every-flow fluid simulator
(:mod:`oracles.flowsim_reference`), textbook max-min progressive filling
(:mod:`oracles.maxmin_reference`), the seed placement walk with
curve-based admission (:mod:`oracles.placement_reference`) and the
linear-scan shaper (:mod:`oracles.shaper_oracle`).  None of them ships
in the package; ``tests/test_lint_oracles.py`` keeps it that way.
"""
