"""Tests and property checks for the FIFO span buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bytespan import PatternBytes, RealBytes
from repro.util.spanbuffer import SpanBuffer


def test_empty_buffer():
    buffer = SpanBuffer()
    assert len(buffer) == 0
    assert buffer.head_offset == 0
    assert buffer.tail_offset == 0
    assert buffer.pop_front(10).to_bytes() == b""


def test_append_and_pop_roundtrip():
    buffer = SpanBuffer()
    buffer.append(b"hello ")
    buffer.append(b"world")
    assert len(buffer) == 11
    assert buffer.pop_front(11).to_bytes() == b"hello world"
    assert buffer.head_offset == 11


def test_pop_crosses_piece_boundaries():
    buffer = SpanBuffer()
    buffer.append(b"abc")
    buffer.append(b"def")
    assert buffer.pop_front(4).to_bytes() == b"abcd"
    assert buffer.pop_front(10).to_bytes() == b"ef"


def test_pop_clamps_to_length():
    buffer = SpanBuffer()
    buffer.append(b"xy")
    assert buffer.pop_front(100).to_bytes() == b"xy"


def test_discard_front():
    buffer = SpanBuffer()
    buffer.append(b"abcdef")
    buffer.discard_front(4)
    assert buffer.head_offset == 4
    assert buffer.pop_front(2).to_bytes() == b"ef"


def test_peek_absolute_window():
    buffer = SpanBuffer()
    buffer.append(b"0123456789")
    buffer.discard_front(3)  # head now at 3
    assert buffer.peek_absolute(4, 8).to_bytes() == b"4567"
    assert buffer.peek_absolute(3, 3).to_bytes() == b""


def test_peek_absolute_out_of_range():
    buffer = SpanBuffer()
    buffer.append(b"abcd")
    buffer.discard_front(2)
    with pytest.raises(IndexError):
        buffer.peek_absolute(0, 3)  # below head
    with pytest.raises(IndexError):
        buffer.peek_absolute(2, 5)  # beyond tail


def test_peek_front():
    buffer = SpanBuffer()
    buffer.append(b"abcdef")
    assert buffer.peek_front(3).to_bytes() == b"abc"
    assert len(buffer) == 6  # peek does not consume


def test_offsets_survive_pattern_spans():
    buffer = SpanBuffer()
    buffer.append(PatternBytes(1000, offset=0, pattern_id=2))
    buffer.discard_front(400)
    view = buffer.peek_absolute(400, 500)
    assert view.to_bytes() == PatternBytes(100, offset=400, pattern_id=2).to_bytes()


def test_clear_advances_head():
    buffer = SpanBuffer()
    buffer.append(b"abcdef")
    buffer.clear()
    assert len(buffer) == 0
    assert buffer.head_offset == 6


def test_empty_append_ignored():
    buffer = SpanBuffer()
    buffer.append(b"")
    assert len(buffer) == 0


def test_peek_absolute_straddles_piece_boundaries():
    buffer = SpanBuffer()
    buffer.append(b"abc")
    buffer.append(b"defg")
    buffer.append(b"hi")
    # One slice spanning all three pieces, offset into the first and last.
    assert buffer.peek_absolute(2, 8).to_bytes() == b"cdefgh"
    buffer.pop_front(4)  # head now at 4, first remaining piece is "efg"
    assert buffer.peek_absolute(5, 8).to_bytes() == b"fgh"
    assert len(buffer) == 5  # peek does not consume


def test_peek_absolute_empty_range_at_tail():
    buffer = SpanBuffer()
    buffer.append(b"abcd")
    buffer.discard_front(1)
    tail = buffer.tail_offset
    assert buffer.peek_absolute(tail, tail).to_bytes() == b""
    assert buffer.peek_absolute(buffer.head_offset, buffer.head_offset).to_bytes() == b""
    with pytest.raises(IndexError):
        buffer.peek_absolute(tail, tail + 1)
    with pytest.raises(IndexError):
        buffer.peek_absolute(tail, tail - 1)  # start > stop


def test_clear_then_reappend_keeps_absolute_addressing():
    buffer = SpanBuffer()
    buffer.append(b"abcdef")
    buffer.pop_front(2)
    buffer.clear()
    assert buffer.head_offset == 6
    buffer.append(b"XY")
    buffer.append(b"Z")
    assert buffer.tail_offset == 9
    assert buffer.peek_absolute(6, 9).to_bytes() == b"XYZ"
    with pytest.raises(IndexError):
        buffer.peek_absolute(5, 7)  # pre-clear offsets are gone
    assert buffer.pop_front(3).to_bytes() == b"XYZ"
    assert buffer.head_offset == 9


def test_pop_front_exactly_at_piece_boundary():
    buffer = SpanBuffer()
    buffer.append(b"abc")
    buffer.append(b"def")
    assert buffer.pop_front(3).to_bytes() == b"abc"
    assert buffer.head_offset == 3
    assert buffer.peek_absolute(3, 6).to_bytes() == b"def"
    assert buffer.pop_front(0).to_bytes() == b""
    assert buffer.head_offset == 3


@given(st.lists(st.binary(min_size=1, max_size=20), max_size=20), st.data())
def test_prop_buffer_behaves_like_bytestring(pieces, data):
    """The buffer must behave exactly like a byte string with a moving
    head: pops return prefixes, offsets track total consumption."""
    buffer = SpanBuffer()
    reference = b""
    consumed = 0
    for piece in pieces:
        buffer.append(RealBytes(piece))
        reference += piece
        if data.draw(st.booleans()):
            count = data.draw(st.integers(0, len(reference) + 2))
            popped = buffer.pop_front(count).to_bytes()
            expected = reference[:count]
            assert popped == expected
            reference = reference[len(expected):]
            consumed += len(expected)
        assert len(buffer) == len(reference)
        assert buffer.head_offset == consumed
        assert buffer.tail_offset == consumed + len(reference)


@given(
    st.lists(st.binary(min_size=1, max_size=30), min_size=1, max_size=10),
    st.integers(0, 100),
    st.integers(0, 100),
)
def test_prop_peek_absolute_matches_reference(pieces, a, b):
    buffer = SpanBuffer()
    reference = b"".join(pieces)
    for piece in pieces:
        buffer.append(piece)
    lo, hi = sorted((min(a, len(reference)), min(b, len(reference))))
    assert buffer.peek_absolute(lo, hi).to_bytes() == reference[lo:hi]


# An appended span: ("real", bytes) or ("pattern", length, pattern_id, offset
# or None to continue the previous piece of that pattern contiguously).
_append_op = st.one_of(
    st.tuples(st.just("real"), st.binary(min_size=1, max_size=12)),
    st.tuples(
        st.just("pattern"),
        st.integers(1, 40),
        st.sampled_from([1, 2]),
        st.one_of(st.none(), st.integers(0, 600)),
    ),
)
_buffer_op = st.one_of(
    _append_op,
    st.tuples(st.sampled_from(["pop", "discard"]), st.integers(0, 60)),
    st.tuples(st.just("peek"), st.integers(0, 100), st.integers(0, 100)),
)


def _expected_runs(model):
    """Maximal runs of contiguous same-pattern spans in the model, where
    each real span is a run of its own."""
    runs = 0
    previous = None
    for entry in model:
        if not (
            previous is not None
            and entry[0] == "pattern"
            and previous[0] == "pattern"
            and previous[1] == entry[1]
            and previous[2] + previous[3] == entry[2]
        ):
            runs += 1
        previous = entry
    return runs


@settings(max_examples=200)
@given(st.lists(_buffer_op, max_size=40))
def test_prop_coalescing_buffer_matches_reference(ops):
    """Mixed real/pattern appends (some contiguous, some not, some of
    another pattern) then pops, discards and peeks: content and length
    follow a plain byte string, and the buffer holds exactly one piece
    per maximal contiguous same-pattern run -- real bytes never merge."""
    buffer = SpanBuffer()
    reference = b""
    head = 0
    model = []  # live appended spans as (kind, pattern_id, offset, length)
    next_offset = {}
    for op in ops:
        kind = op[0]
        if kind == "real":
            buffer.append(RealBytes(op[1]))
            reference += op[1]
            model.append(("real", None, 0, len(op[1])))
        elif kind == "pattern":
            _, length, pattern_id, offset = op
            if offset is None:
                offset = next_offset.get(pattern_id, 0)
            span = PatternBytes(length, offset, pattern_id)
            next_offset[pattern_id] = offset + length
            buffer.append(span)
            reference += span.to_bytes()
            model.append(("pattern", pattern_id, offset, length))
        elif kind == "peek":
            lo, hi = sorted((min(op[1], len(reference)), min(op[2], len(reference))))
            view = buffer.peek_absolute(head + lo, head + hi)
            assert view.to_bytes() == reference[lo:hi]
        else:
            count = min(op[1], len(reference))
            if kind == "pop":
                assert buffer.pop_front(op[1]).to_bytes() == reference[:count]
            else:
                buffer.discard_front(op[1])
            reference = reference[count:]
            head += count
            while count:
                entry_kind, pattern_id, offset, length = model[0]
                step = min(count, length)
                if step == length:
                    model.pop(0)
                else:
                    model[0] = (entry_kind, pattern_id, offset + step, length - step)
                count -= step
        assert len(buffer) == len(reference)
        assert buffer.head_offset == head
        assert buffer.peek_absolute(head, head + len(reference)).to_bytes() == reference
        pieces = list(buffer._pieces)
        assert len(pieces) == _expected_runs(model)
        assert sum(isinstance(p, RealBytes) for p in pieces) == sum(
            entry[0] == "real" for entry in model
        )
