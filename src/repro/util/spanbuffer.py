"""A FIFO byte buffer over :class:`~repro.util.bytespan.ByteSpan` pieces.

Used by the TCP send/receive paths: append spans at the tail, read or
discard from the head, and take zero-copy slices at arbitrary offsets (for
retransmission).

The length is a running count, so ``len`` is O(1).  ``append`` coalesces
a span into the tail piece when the two are contiguous pieces of one
pattern (:func:`~repro.util.bytespan.join_contiguous`), so the buffer
holds one piece per maximal run of such spans: a synthetic stream
written or received one MSS at a time stays a single piece, and reads
and slices of it touch that one piece.  Real bytes are never merged.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Union

from repro.util.bytespan import EMPTY, ByteSpan, CatBytes, as_span, join_contiguous


class SpanBuffer:
    """FIFO of byte spans with an absolute head offset.

    ``head_offset`` tracks how many bytes have ever been popped, so callers
    can address content by absolute stream position (TCP sequence space is
    mapped onto this after subtracting the ISN).
    """

    __slots__ = ("_pieces", "_length", "head_offset")

    def __init__(self) -> None:
        self._pieces: Deque[ByteSpan] = deque()
        self._length = 0
        self.head_offset = 0

    def __len__(self) -> int:
        return self._length

    @property
    def tail_offset(self) -> int:
        """Absolute offset one past the last byte in the buffer."""
        return self.head_offset + self._length

    def append(self, data: Union[ByteSpan, bytes]) -> None:
        span = as_span(data)
        length = len(span)
        if not length:
            return
        pieces = self._pieces
        joined = join_contiguous(pieces[-1], span) if pieces else None
        if joined is None:
            pieces.append(span)
        else:
            pieces[-1] = joined
        self._length += length

    def pop_front(self, count: int) -> ByteSpan:
        """Remove and return the first ``count`` bytes (clamped to length)."""
        count = min(count, self._length)
        if count <= 0:
            return EMPTY
        taken = []
        remaining = count
        while remaining > 0:
            piece = self._pieces[0]
            piece_len = len(piece)
            if piece_len <= remaining:
                taken.append(self._pieces.popleft())
                remaining -= piece_len
            else:
                taken.append(piece.slice(0, remaining))
                self._pieces[0] = piece.slice(remaining, piece_len)
                remaining = 0
        self._length -= count
        self.head_offset += count
        return taken[0] if len(taken) == 1 else CatBytes(taken)

    def discard_front(self, count: int) -> None:
        """Drop the first ``count`` bytes without materialising them."""
        count = min(count, self._length)
        remaining = count
        while remaining > 0:
            piece = self._pieces[0]
            piece_len = len(piece)
            if piece_len <= remaining:
                self._pieces.popleft()
                remaining -= piece_len
            else:
                self._pieces[0] = piece.slice(remaining, piece_len)
                remaining = 0
        self._length -= count
        self.head_offset += count

    def peek_absolute(self, start: int, stop: int) -> ByteSpan:
        """Zero-copy slice by *absolute* offsets (within the buffer range)."""
        if start < self.head_offset or stop > self.tail_offset or start > stop:
            raise IndexError(
                f"[{start}, {stop}) outside buffered range "
                f"[{self.head_offset}, {self.tail_offset})"
            )
        if start == stop:
            return EMPTY
        rel_start = start - self.head_offset
        rel_stop = stop - self.head_offset
        picked = []
        position = 0
        for piece in self._pieces:
            piece_len = len(piece)
            if position + piece_len <= rel_start:
                position += piece_len
                continue
            if position >= rel_stop:
                break
            lo = max(0, rel_start - position)
            hi = min(piece_len, rel_stop - position)
            picked.append(piece.slice(lo, hi))
            position += piece_len
        return picked[0] if len(picked) == 1 else CatBytes(picked)

    def peek_front(self, count: int) -> ByteSpan:
        """Zero-copy view of the first ``count`` bytes (clamped)."""
        count = min(count, self._length)
        return self.peek_absolute(self.head_offset, self.head_offset + count)

    def clear(self) -> None:
        self._pieces.clear()
        self.head_offset += self._length
        self._length = 0

    def seek(self, offset: int) -> None:
        """Jump an *empty* buffer's head to ``offset``.

        Lets a stream adopt a position it never carried bytes through
        (ST-TCP snapshot handoff: a fresh backup joins mid-connection at
        the primary's current offsets).  Rewinding is refused — absolute
        offsets already handed out would alias.
        """
        if self._length != 0:
            raise ValueError(f"seek on non-empty buffer ({self._length} bytes held)")
        if offset < self.head_offset:
            raise ValueError(
                f"seek backwards from {self.head_offset} to {offset}"
            )
        self.head_offset = offset
