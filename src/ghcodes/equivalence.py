"""Equivalence chains of generalized Hadamard codes across ring levels.

A type whose generator matrix has a second row of order p^(s+1-sigma)
sits at position sigma of a unique chain.  The chain's representative is
the member with t_1 >= 2 (lowest ring level); walking one level up sends
(t_1, ..., t_s) to (1, t_1 - 1, t_2, ..., t_{s-1}, t_s - 1), and the
corresponding Gray images differ by an explicit coordinate permutation
built from gamma and rho.  Composing those step permutations between two
positions of one chain yields a monomial-free equivalence witness that
maps one Gray image exactly onto the other.  Each step is folded into the
product as it is built, so the composition's peak, ``witness_bytes``, does
not grow with the chain.

That claim is checked in one streamed pass that holds neither Gray image.
The higher member is generated from its basis coefficients; block by block
its words are Gray-expanded and mapped by the witness (a column gather).
Each mapped word is decoded to a row of the lower member's odometer order
through its pinned coordinates, and the lower member's word at that row is
rebuilt from two span tables of its basis (``RegeneratedGray``) and
compared with it.  The located rows must hit every word of the lower
member exactly once.  No image, permuted copy or additive matrix of either
member is ever allocated whole; ``set_check_bytes`` counts what the pass
allocates, the witness included.  These two estimates are all the budget
is compared with.

Degenerate corner: types (1, 0, ..., 0, m) have sigma = s and their
representative collapses to the single-entry type (m + s - 1) over Z_p.
Such a representative is kept as pure type algebra — its own position-1
"code" lives at a shorter length and is never materialized — but all
members at positions >= 2 are genuine codes of one length, and exactly
these types make up the linear Gray images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator

import numpy as np

from .construction import (
    DEFAULT_BUDGET_BYTES,
    AdditiveCode,
    RegeneratedGray,
    TypeSignature,
    _check_budget,
    gray_chunk_bytes,
    gray_chunks,
    phi_bytes,
    validate_type,
)
from .errors import InputError, NoSecondRow
from .gray import Permutation, block_lift, gamma_extended, identity_permutation, rho


def sigma(sig: TypeSignature) -> int:
    """Ring level of the second generator row: its order is p^(s+1-sigma)."""
    if sig.ts[0] >= 2:
        return 1
    for i in range(1, sig.s):
        if sig.ts[i] > 0:
            return i + 1
    raise NoSecondRow(f"type {sig.ts} has a single generator row")


@dataclass(frozen=True)
class ChainPosition:
    representative: TypeSignature
    position: int


@dataclass(frozen=True)
class EquivalenceChain:
    representative: TypeSignature
    members: tuple[TypeSignature, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> TypeSignature:
        return self.members[i]


def chain_of(sig: TypeSignature) -> ChainPosition:
    """Locate a type inside its chain: (representative, 1-based position)."""
    s = sig.s
    sg = sigma(sig)
    if sg == 1:
        return ChainPosition(sig, 1)
    if sg < s:
        rep = (sig.ts[sg - 1] + 1, *sig.ts[sg : s - 1], sig.ts[s - 1] + sg - 1)
        return ChainPosition(validate_type(sig.p, rep), sg)
    # sigma == s: single-entry representative over Z_p
    return ChainPosition(validate_type(sig.p, (sig.ts[s - 1] + s - 1,)), s)


def chain_members(rep: TypeSignature) -> EquivalenceChain:
    """All members of the chain with the given representative, position order.

    Member i lives over Z_{p^(s+i-1)}; there are t_s + 1 members.
    """
    if rep.ts[0] < 2:
        raise InputError(f"{rep.ts} is not a chain representative (t_1 < 2)")
    s = rep.s
    tail = rep.ts[s - 1]
    members = [rep]
    for i in range(2, tail + 2):
        if s == 1:
            ts = (1, *([0] * (i - 2)), tail - i + 1)
        else:
            ts = (1, *([0] * (i - 2)), rep.ts[0] - 1, *rep.ts[1 : s - 1], tail - i + 1)
        members.append(validate_type(rep.p, ts))
    return EquivalenceChain(rep, tuple(members))


def step_permutation(p: int, s: int, n_prime: int) -> Permutation:
    """The permutation carrying Gray images one ring level down.

    For an additive code H over Z_{p^(s+1)} of length n_prime whose
    unmapping tau_tilde(H) has type one chain-position lower, the returned
    pi in S_{n_prime * p^s} satisfies pi(Phi(H)) = Phi(tau_tilde(H)):
    pi = (gamma_ext . rho_lift)^(-1), with gamma acting per phi-block and
    rho interleaving the n_prime coordinate blocks of width p^(s-1).
    """
    if s < 1:
        raise InputError("s must be >= 1")
    # one expression, so gamma and the lifted rho are freed before the inverse is made
    return gamma_extended(p, s + 1, n_prime).compose(block_lift(rho(p, n_prime), p ** (s - 1))).inverse()


def _chain_steps(rep: TypeSignature, lo: int, hi: int, t: int) -> Iterator[Permutation]:
    """Step permutations linking positions lo..hi of a chain (lo <= hi), built one at a time."""
    p = rep.p
    for j in range(lo, hi):
        s_j = rep.s + j - 1
        yield step_permutation(p, s_j, p ** (t - s_j))  # p^(t - s_j): length of the member at position j+1


def witness_bytes(length: int) -> int:
    """Bytes the composition of a witness of ``length`` coordinates holds at its peak.

    ``reduce`` folds in each step as it is built, so the peak does not grow
    with the number of steps: the product, the last step and the arrays of
    ``step_permutation`` make eight int64 arrays of the length under
    tracemalloc (p = 2, t = 17 and p = 3, t = 10), plus a few KiB of short
    ones.  That is more than the witness and its inverse image.
    """
    return 8 * 8 * length + 2**16


def set_check_bytes(lower: TypeSignature, higher: TypeSignature) -> int:
    """Bytes the streamed set-equality check of ``verify_equivalence`` allocates, all as held at once.

    The witness, composed and then with its inverse image; one block of the
    higher member's stream with its mapped copy (``gray_chunk_bytes``); the
    lower member's lookup (``RegeneratedGray.lookup_bytes``); the located
    index of every word; and the phi tables of both rings.
    """
    stream = gray_chunk_bytes(higher) + RegeneratedGray.lookup_bytes(lower) + 8 * lower.size
    return witness_bytes(lower.gray_length) + stream + phi_bytes(lower.params) + phi_bytes(higher.params)


@dataclass(frozen=True)
class EquivalenceReport:
    verdict: str  # "PASS" | "FAIL"
    representative: "tuple[int, ...] | None"
    positions: tuple[int, int]
    witness: "Permutation | None"
    mode: str  # "set-equality" | "algebra-only"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def verify_equivalence(
    sig_a: TypeSignature,
    sig_b: TypeSignature,
    check_sets: "bool | None" = None,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
    render_bytes: int = 0,
) -> EquivalenceReport:
    """Decide equivalence of two types and, when PASS, produce a witness.

    PASS means both types sit in the same chain; the witness permutation
    maps the Gray image of the higher-position member exactly onto the
    lower one's (identity when the positions coincide).  With
    check_sets=None the set equality is verified whenever the two codes
    fit the memory budget; True forces the check, False skips it.

    The witness is composed when ``witness_bytes`` fits the budget, and is
    None otherwise.  The check streams the higher member's words through
    the witness in blocks of at most 256 KiB and rebuilds each lower word
    it is compared with, so it holds neither Gray image (see the module
    docstring).  It runs when ``set_check_bytes`` fits the budget (with
    check_sets=True, CapacityError otherwise); that estimate includes the
    witness, so a checked verdict always has one.  ``render_bytes``, what
    the caller will hold beside the returned witness (the command line's
    JSON of it), is added to both estimates.
    """
    if sig_a.p != sig_b.p:
        raise InputError("types live over different primes")
    if sig_a.t != sig_b.t:
        raise InputError(f"Gray lengths differ: p^{sig_a.t} vs p^{sig_b.t}")
    ca, cb = chain_of(sig_a), chain_of(sig_b)
    positions = (ca.position, cb.position)
    if ca.representative.ts != cb.representative.ts:
        return EquivalenceReport(
            "FAIL",
            None,
            positions,
            None,
            "algebra-only",
            f"distinct representatives {ca.representative.ts} and {cb.representative.ts}",
        )

    rep = ca.representative
    t = sig_a.t
    lo, hi = min(positions), max(positions)
    lower_sig, higher_sig = (sig_a, sig_b) if ca.position <= cb.position else (sig_b, sig_a)

    cost = set_check_bytes(lower_sig, higher_sig) + render_bytes
    if check_sets is True:
        _check_budget("set-equality check", cost, budget_bytes)
    witness: Permutation | None = None
    length = sig_a.gray_length
    if witness_bytes(length) + render_bytes <= budget_bytes:
        witness = reduce(Permutation.compose, _chain_steps(rep, lo, hi, t), identity_permutation(length))

    if check_sets is not False and cost <= budget_bytes:  # the cost counts the witness, so it is there
        lower = RegeneratedGray(AdditiveCode.build(lower_sig))
        hits = np.empty(higher_sig.size, dtype=np.int64)
        for start, words in gray_chunks(AdditiveCode.build(higher_sig)):
            hits[start : start + len(words)] = lower.locate(witness(words))
        if not lower.same_multiset(hits):
            # the chain theory guarantees equality; reaching here means a bug
            return EquivalenceReport(
                "FAIL", rep.ts, positions, witness, "set-equality", "composed witness failed set equality"
            )
        return EquivalenceReport("PASS", rep.ts, positions, witness, "set-equality")
    return EquivalenceReport("PASS", rep.ts, positions, witness, "algebra-only")
