"""The streamed set-equality check, kept as the oracle of the library's witness check.

It maps every one of the p^(t+1) Gray words of the higher member by the
witness and locates each in the lower member as a whole Gray word: the
query's residues at the pinned coordinates decode its odometer row, and
it is a hit when it equals the Gray word rebuilt there from the digit
word of a ``RegeneratedDigits``, read back as residues.  It then asks
whether the located rows hit every lower word exactly once.  The
library's check (``equivalence._maps_onto``) locates words the same way
but tests the claim on the order-p split: it looks up only the |T_hi|
words of the higher member's transversal and checks that their indices
stay distinct modulo those of the mapped top rows, where the oracle looks
up all p^(t+1) words and checks a multiset.  The two must agree on every
pair.
"""

import numpy as np

from ghcodes.construction import AdditiveCode, RegeneratedDigits, TypeSignature, _decode_plan, _gray_blocks, _locate
from ghcodes.gray import Permutation, _block_residues, gray_matrix

from sorted_key_code import same_multiset


def gray_chunks(code: AdditiveCode):
    """The code's Gray words in odometer order, one fresh block at a time, as (first row, words)."""
    return _gray_blocks(code.sig, code.basis)


def streamed_set_equal(lower: TypeSignature, higher: TypeSignature, witness: Permutation) -> bool:
    """Does ``witness`` map the Gray image of ``higher`` onto that of ``lower``?  Every word is looked up."""
    regen = RegeneratedDigits(AdditiveCode.build(lower))
    digit = lower.p ** np.arange(lower.s)  # the place value of each digit
    gray_at = lambda idx: gray_matrix(lower.params, regen.rows(idx).reshape(len(idx), lower.n, lower.s) @ digit)
    plan = _decode_plan(lower)
    hits = np.empty(higher.size, dtype=np.int64)
    for start, words in gray_chunks(AdditiveCode.build(higher)):
        mapped = witness(words)
        hits[start : start + len(words)] = _locate(
            lower, plan, _block_residues, mapped, len(regen), gray_at, len(mapped), lower.gray_length
        )
    return same_multiset(regen, hits)
