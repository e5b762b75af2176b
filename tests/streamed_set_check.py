"""The streamed set-equality check, kept as the oracle of the library's witness check.

It maps every one of the p^(t+1) Gray words of the higher member by the
witness, locates each in the lower member with ``RegeneratedGray`` and
asks whether the located rows hit every lower word exactly once.  The
library checks the same claim on the order-p split with |T_hi| lookups
(``equivalence._maps_onto``); the two must agree on every pair.
"""

import numpy as np

from ghcodes.construction import AdditiveCode, RegeneratedGray, TypeSignature, _gray_blocks
from ghcodes.gray import Permutation

from sorted_key_code import same_multiset


def gray_chunks(code: AdditiveCode):
    """The code's Gray words in odometer order, one fresh block at a time, as (first row, words)."""
    return _gray_blocks(code.sig, code.basis)


def streamed_set_equal(lower: TypeSignature, higher: TypeSignature, witness: Permutation) -> bool:
    """Does ``witness`` map the Gray image of ``higher`` onto that of ``lower``?  Every word is looked up."""
    regen = RegeneratedGray(AdditiveCode.build(lower))
    hits = np.empty(higher.size, dtype=np.int64)
    for start, words in gray_chunks(AdditiveCode.build(higher)):
        hits[start : start + len(words)] = regen.locate(witness(words))
    return same_multiset(regen, hits)
