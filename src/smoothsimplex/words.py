"""Degeneracy-word algebra in Eilenberg-Zilber normal form.

A word is a tuple of strictly decreasing nonnegative integers
``(j1, ..., jr)`` standing for the composite degeneracy operator
``s_{j1} ∘ ... ∘ s_{jr}``.  Every simplex of a simplicial set is written
uniquely as such a word applied to a nondegenerate simplex; all operator
arithmetic below rewrites composites back into that normal form using the
simplicial identities

    s_i s_j = s_{j+1} s_i            (i <= j)
    d_i s_j = s_{j-1} d_i            (i < j)
    d_i s_j = id                     (i = j or i = j+1)
    d_i s_j = s_j d_{i-1}            (i > j+1)

A word is a ``tuple`` of ``int`` letters.  :func:`prepend_face`,
:func:`concat` and the range check of :func:`check_valid` are memoized
(``functools.cache``): the gluing stages apply the same few words
thousands of times.  :func:`prepend_degeneracy` runs only where
:func:`concat` misses and in ``degeneracy()``, and is not.  A cache takes
equal keys for one key, so once ``(False,)`` or ``(0.0,)`` had been
rewritten, ``(0,)`` would get the impostor's result, and a list is no key
at all; :func:`check_valid` rejects such words where words enter the
package, before an operator sees them, and the cached bodies of
:func:`prepend_face` and :func:`concat` reject them on a miss, so that a
word no one validated (a hand-built map's image) is never cached either.
The caches grow only with the distinct words a process applies.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterator, Optional

Word = tuple[int, ...]

EMPTY: Word = ()


def is_normal(word: Word) -> bool:
    return all(a > b for a, b in zip(word, word[1:])) and all(j >= 0 for j in word)


def check_valid(word: Word, base_dim: int) -> None:
    """Reject words that cannot act on a simplex of dimension ``base_dim``,
    and anything but a tuple of ``int`` letters (``bool`` is not one)."""
    _check_letters(word)
    _check_range(word, base_dim)


def _check_letters(*ws: Word) -> None:
    for word in ws:
        if type(word) is not tuple or not all(type(j) is int for j in word):
            raise ValueError(f"word {word!r:.60} is not a tuple of ints")


@cache
def _check_range(word: Word, base_dim: int) -> None:
    if not is_normal(word):
        raise ValueError(f"word {word} is not strictly decreasing")
    n = base_dim + len(word)
    if word and word[0] > n - 1:
        raise ValueError(f"word {word} out of range for base dimension {base_dim}")


def prepend_degeneracy(i: int, word: Word) -> Word:
    """Normal form of ``s_i ∘ s_word``.

    ``s_i`` bubbles past every outer letter ``j >= i`` (which becomes
    ``j + 1``) and settles in front of the first letter below it.
    """
    if i < 0:
        raise ValueError("degeneracy index must be nonnegative")
    shifted = []
    rest = ()
    for pos, j in enumerate(word):
        if i <= j:
            shifted.append(j + 1)
        else:
            rest = word[pos:]
            break
    return tuple(shifted) + (i,) + rest


@cache
def prepend_face(i: int, word: Word) -> tuple[Word, Optional[int]]:
    """Normal form of ``d_i ∘ s_word``.

    Returns ``(word', f)`` with ``d_i ∘ s_word = s_word' ∘ d_f``; ``f`` is
    ``None`` when the face is absorbed by a degeneracy.
    """
    if type(i) is not int:
        raise ValueError(f"face index {i!r:.60} is not an int")
    _check_letters(word)
    if i < 0:
        raise ValueError("face index must be nonnegative")
    out: list[int] = []
    for pos, j in enumerate(word):
        if i < j:
            out.append(j - 1)
        elif i == j or i == j + 1:
            return tuple(out) + word[pos + 1:], None
        else:
            out.append(j)
            i -= 1
    return tuple(out), i


@cache
def concat(outer: Word, inner: Word) -> Word:
    """Normal form of ``s_outer ∘ s_inner``."""
    _check_letters(outer, inner)
    acc = inner
    for j in reversed(outer):
        acc = prepend_degeneracy(j, acc)
    return acc


def words_of_length(r: int, result_dim: int) -> Iterator[Word]:
    """All normal words of length ``r`` whose result has dimension ``result_dim``.

    These are exactly the strictly decreasing ``r``-subsets of
    ``{0, ..., result_dim - 1}``.
    """
    if r == 0:
        yield ()
        return
    for subset in combinations(range(result_dim), r):
        yield tuple(reversed(subset))
