"""Integer-backed subset operations.

Subsets of a ground set {0, ..., n-1} are stored as Python ints with bit i
set when element i is a member.  Families of subsets are kept as sorted
tuples of masks; sorting masks numerically is exactly the colexicographic
order on subsets, which is the canonical order used everywhere in this
package.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple


def mask_of(elements: Iterable[int]) -> int:
    """Build a mask from element indices."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> List[int]:
    """List the element indices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def full_mask(n: int) -> int:
    return (1 << n) - 1


def complement(mask: int, n: int) -> int:
    return mask ^ full_mask(n)


def subsets_of_size(n: int, k: int) -> Iterator[int]:
    """All k-subsets of {0..n-1} as masks, in colex (numeric) order.

    Uses Gosper's hack to step to the next mask with the same popcount.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    limit = 1 << n
    mask = (1 << k) - 1
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


def canonical_family(masks: Iterable[int]) -> Tuple[int, ...]:
    """Deduplicate and sort a family of masks into canonical (colex) order."""
    return tuple(sorted(set(masks)))
