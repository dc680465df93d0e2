"""Deterministic random number generation.

Every stochastic element of the simulator draws from a
:class:`numpy.random.Generator` seeded from a single root seed, so that
identical configurations reproduce identical runs bit-for-bit.  Substreams
are derived with :func:`make_rng` using a stable string salt, which keeps
the traffic stream independent of, say, arbitration tie-breaking.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_left

import numpy as np

#: raw words read per block (32 KiB of uint64).
_BLOCK = 4096
_MASK32 = 0xFFFFFFFF
_ULP53 = 2.0**-53


def make_rng(seed: int, salt: str = "") -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``(seed, salt)``.

    The salt is hashed with CRC32 so that distinct component names yield
    statistically independent substreams while remaining reproducible
    across processes and Python versions (unlike built-in ``hash``).

    Parameters
    ----------
    seed:
        Root seed of the simulation run.
    salt:
        Stable component name, e.g. ``"traffic"`` or ``"arbiter"``.
    """
    mixed = (int(seed) & 0xFFFFFFFF, zlib.crc32(salt.encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(mixed))


class WordReader:
    """A generator's draws, replayed from blocks of its raw 64-bit words.

    For PCG64, ``Generator.random()`` is one word, ``(word >> 11) *
    2**-53``; ``Generator.integers(0, k)`` with ``k <= 2**32`` is 32-bit
    Lemire rejection on the words' halves, low half first, the high half
    kept for the next 32-bit draw (PCG64's ``has_uint32``, which a double
    leaves alone), and no draw at all for ``k == 1``.  This class repeats
    that arithmetic on the same words, so it returns what the generator
    would for the same calls, in the same order; it reads ahead, so the
    generator it was made from must not be drawn from again.

    :meth:`scan` answers ``random() < p`` for the next ``n`` words.  The
    hits of a whole block are found by one compare when it is read, so a
    scan that meets none only moves a cursor.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._bitgen = rng.bit_generator
        self._words = np.empty(0, dtype=np.uint64)
        self._size = 0
        #: next unread word of the block.
        self._pos = 0
        #: the high half of the last word split for a 32-bit draw.
        self._half: int | None = None
        #: the largest word that is a hit; -1 for none.
        self._top = -1
        #: block indices of the hits, and the index into it of _next_hit.
        self._hits: list[int] = []
        self._hit = 0
        #: block index of the first hit at or after the last scan's end.
        self._next_hit = 0

    def mark(self, p: float) -> None:
        """Set the probability ``0 <= p <= 1`` :meth:`scan` tests against."""
        # random() < p  <=>  (word >> 11) < ceil(p * 2**53)  (p * 2**53
        # is exact)  <=>  word < ceil(p * 2**53) << 11
        self._top = (math.ceil(p * 2.0**53) << 11) - 1
        self._mark()

    def _mark(self) -> None:
        hits = self._hits = (
            np.flatnonzero(self._words <= self._top).tolist()
            if self._top >= 0 else [])
        self._hit = i = bisect_left(hits, self._pos)
        self._next_hit = hits[i] if i < len(hits) else self._size

    def _refill(self, need: int) -> None:
        """Keep the unread words and append a fresh block after them."""
        fresh = self._bitgen.random_raw(max(_BLOCK, need))
        rest = self._words[self._pos:]
        self._words = np.concatenate((rest, fresh)) if rest.size else fresh
        self._size = self._words.size
        self._pos = 0
        self._mark()

    def scan(self, n: int) -> list[int] | tuple[()]:
        """Offsets ``i < n`` of the next ``n`` words that are hits, in
        order, as ``(generator.random(n) < p).nonzero()[0]``; consumes
        the ``n`` words."""
        end = self._pos + n
        if end <= self._next_hit:
            self._pos = end
            return ()
        if end > self._size:
            self._refill(n)
            end = n
        start = self._pos
        hits = self._hits
        i = bisect_left(hits, start, self._hit)
        j = self._hit = bisect_left(hits, end, i)
        self._pos = end
        self._next_hit = hits[j] if j < len(hits) else self._size
        return [h - start for h in hits[i:j]]

    def _word(self) -> int:
        pos = self._pos
        if pos == self._size:
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        return self._words.item(pos)

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._word() >> 11) * _ULP53

    def integers(self, k: int) -> int:
        """``Generator.integers(0, k)`` for ``1 <= k <= 2**32``."""
        if k == 1:
            return 0
        m = self._uint32() * k
        leftover = m & _MASK32
        if leftover < k:
            threshold = (1 << 32) % k
            while leftover < threshold:
                m = self._uint32() * k
                leftover = m & _MASK32
        return m >> 32
