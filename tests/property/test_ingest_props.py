"""Property tests: the batch wire format survives what networks do to it.

Three properties carry the ingest subsystem's correctness story:

* **Round-trip identity** — ``decode_batch(encode_batch(r)) == r`` for
  any record list, so nothing the codec does is lossy.
* **Clean prefix under truncation** — cut an encoded frame at *any* byte
  and the lenient reader yields only complete, verified records (never a
  partial one), which is exactly what lets a torn upload be retried from
  the tail.
* **Single-bit-flip detection** — flip any one bit anywhere in the frame
  and the strict decoder rejects it; crc32 per record guarantees this
  for payload damage, and the length/framing fields catch the rest.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IngestError
from repro.yprov.ingest import decode_batch, encode_batch, iter_batch_prefix

# doc ids exercise the allowed shapes; texts exercise unicode + newlines
_DOC_IDS = st.text(
    st.characters(codec="utf-8", exclude_characters="\x00"),
    min_size=1, max_size=24,
)
_TEXTS = st.text(max_size=200)
_RECORDS = st.lists(st.tuples(_DOC_IDS, _TEXTS), min_size=1, max_size=12)


class TestRoundTrip:
    @given(records=_RECORDS)
    @settings(max_examples=80, deadline=None)
    def test_encode_decode_is_identity(self, records):
        assert decode_batch(encode_batch(records)) == records

    @given(records=_RECORDS)
    @settings(max_examples=40, deadline=None)
    def test_lenient_reader_agrees_on_intact_frames(self, records):
        got, issue = iter_batch_prefix(encode_batch(records))
        assert issue is None
        assert got == records

    @given(records=_RECORDS)
    @settings(max_examples=40, deadline=None)
    def test_encoding_is_deterministic(self, records):
        assert encode_batch(records) == encode_batch(records)


class TestTruncation:
    @given(records=_RECORDS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_truncation_yields_clean_prefix(self, records, data):
        frame = encode_batch(records)
        cut = data.draw(st.integers(0, len(frame) - 1), label="cut")
        got, issue = iter_batch_prefix(frame[:cut])
        # every surfaced record is complete and identical to its original
        assert got == records[:len(got)]
        # a strictly shortened frame can never read as intact
        assert issue is not None

    @given(records=_RECORDS, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_strict_decoder_rejects_any_truncation(self, records, data):
        frame = encode_batch(records)
        cut = data.draw(st.integers(0, len(frame) - 1), label="cut")
        with pytest.raises(IngestError):
            decode_batch(frame[:cut])


class TestBitFlips:
    @given(records=_RECORDS, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_single_bit_flip_is_detected(self, records, data):
        frame = bytearray(encode_batch(records))
        pos = data.draw(st.integers(0, len(frame) - 1), label="byte")
        bit = data.draw(st.integers(0, 7), label="bit")
        frame[pos] ^= 1 << bit
        with pytest.raises(IngestError):
            decode_batch(bytes(frame))


class TestEdgeCases:
    def test_empty_batch_refused_at_encode(self):
        with pytest.raises(IngestError):
            encode_batch([])

    def test_empty_frame_refused_at_decode(self):
        with pytest.raises(IngestError):
            decode_batch(b"")
        got, issue = iter_batch_prefix(b"")
        assert got == [] and issue is not None

    def test_header_count_mismatch_detected(self):
        # drop the last record but keep the header's promise of two
        frame = encode_batch([("a", "x"), ("b", "y")])
        last_line_start = frame.rindex(b"\n", 0, len(frame) - 1) + 1
        with pytest.raises(IngestError, match="promises"):
            decode_batch(frame[:last_line_start])

    def test_frame_without_header_rejected(self):
        from repro.wal import encode_record

        frame = encode_record({"k": "doc", "id": "a", "text": "x"})
        with pytest.raises(IngestError, match="expected 'batch'"):
            decode_batch(frame)
