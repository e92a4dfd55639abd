"""Lint: reference implementations live in ``tests/oracles/``, not in ``src/``.

Every behaviour of the package has one code path.  The slow, plainly
correct versions the tests compare it against (the seed event loop, the
rescan-every-flow fluid simulator, textbook max-min filling, the seed
placement walk) are oracles, so they belong with the tests.  The check
walks every module under ``src/repro`` and fails on an oracle module
(``flowsim/reference.py``, ``phynet/engine.py``), on any identifier
named ``*_reference`` or ``Reference*``, and on the ``fast_paths``
switch that used to select between the two placement paths.  Names
inside strings and comments are not identifiers and do not count, so
docstrings may still point at ``tests/oracles/``.
"""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Oracle modules that must not come back into the package.
_ORACLE_MODULES = ("flowsim/reference.py", "phynet/engine.py")


def _oracle_names(path: Path):
    """(line, name) pairs of oracle-style identifiers in one module."""
    hits = []
    source = path.read_text(encoding="utf-8")
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.NAME:
            continue
        name = tok.string
        if (name == "fast_paths" or name.endswith("_reference")
                or name.startswith("Reference")):
            hits.append((tok.start[0], name))
    return hits


def test_no_oracle_modules_in_src():
    present = [name for name in _ORACLE_MODULES if (SRC / name).exists()]
    assert not present, (
        f"oracle modules shipped in src/repro: {present}; "
        f"move them to tests/oracles/")


def test_no_oracle_names_in_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for line, name in _oracle_names(path):
            offenders.append(f"{path.relative_to(SRC.parent.parent)}:"
                             f"{line}: {name}")
    assert not offenders, (
        "oracle code in src/repro (move it to tests/oracles/):\n"
        + "\n".join(offenders))
