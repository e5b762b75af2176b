import numpy as np
import pytest

from ghcodes.errors import InputError
from ghcodes.gray import gray
from ghcodes.ring import RingParams, is_prime

from paper_steps import tau


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in known)


def test_params_validation():
    RingParams(3, 3)
    with pytest.raises(InputError):
        RingParams(4, 2)
    with pytest.raises(InputError):
        RingParams(3, 0)
    with pytest.raises(InputError):
        RingParams(2, 64)  # 2^64 does not fit a signed word


def test_dtype_is_smallest_sufficient():
    assert RingParams(2, 2).dtype() == np.uint8
    assert RingParams(3, 5).dtype() == np.uint8
    assert RingParams(3, 6).dtype() == np.uint16
    assert RingParams(2, 20).dtype() == np.uint32
    assert RingParams(2, 40).dtype() == np.uint64


def test_entries_read_only():
    # the rows are views of cached tables: a write would corrupt every later call
    params = RingParams(3, 2)
    for row in (gray(5, params), tau(5, params)):
        with pytest.raises(ValueError):
            row[0] = 1
    assert gray(5, params).tolist() == [1, 0, 2] and tau(5, params).tolist() == [1, 0, 2]
