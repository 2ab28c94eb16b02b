"""Make tests/helpers.py importable from every test subpackage, and run
the whole suite with post-compile static verification enabled: every
``compile_program`` call anywhere in the tests doubles as a verifier
regression test (see src/repro/verify).  Tests that need an unverified
compile (e.g. ones that build deliberately broken programs) pass
``verify=False`` explicitly.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session", autouse=True)
def _verify_compiles():
    from repro.compiler.pipeline import set_default_verify

    set_default_verify(True)
    yield
    set_default_verify(False)
