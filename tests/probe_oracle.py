"""The structural kernel's membership filter applied one probe at a time, kept as the oracle of its rounds.

For each block of the span it sends one ``RegeneratedDigits.locate`` call
a probe, on the survivors of the probes before it.  The library's filter
(``invariants._survivors``) applies several probes in one call; given the
same lookup, span and negated probes, the two must leave the same
survivors, in the same order.
"""

import numpy as np

from ghcodes.construction import OdometerSpan, RegeneratedDigits, _digit_blocks, _mod_p_diff


def survivors_one_at_a_time(lookup: RegeneratedDigits, span: OdometerSpan, negs: np.ndarray) -> np.ndarray:
    """The indices of the words of ``span`` whose digit word less each neg ``lookup`` finds, one call a neg."""
    p = lookup.sig.p
    survivors = []
    for start, words in _digit_blocks(span, lookup.step):
        idx = np.arange(start, start + len(words))
        for neg in negs:
            if not len(idx):
                break
            inside = lookup.locate(_mod_p_diff(words.copy(), neg, p)) >= 0
            words, idx = words[inside], idx[inside]
        survivors.append(idx)
    return np.concatenate(survivors)
