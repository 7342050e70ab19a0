from __future__ import annotations

import sys

import pytest

from gwcount import ComplexEvalContext, RealEvalContext


@pytest.fixture(scope="session")
def engines() -> tuple[ComplexEvalContext, RealEvalContext]:
    """One warm engine pair shared by tests that only read pure values."""
    cctx = ComplexEvalContext()
    rctx = RealEvalContext(cctx)
    return cctx, rctx


@pytest.fixture
def digit_limit():
    """Python's default cap on int/str conversion (3.10.7+; None before), restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(saved)
