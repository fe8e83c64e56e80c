"""Property tests for the write-ahead log primitive (:mod:`repro.wal`).

Four invariants every journal built on it inherits:

* **prefix recovery** — truncating the file at any byte yields exactly
  the records whose bytes survive, plus one bad record for a torn tail;
* **one flip, one record** — any single bit flip anywhere in the file
  loses exactly the record holding that bit;
* **append after a tear** — reopening a truncated log and appending
  loses none of the appended records;
* **snapshot + tail** — ``rewrite`` then ``append`` replays as the
  snapshot followed by the appended tail.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wal import WriteAheadLog, decode_record, encode_record, scan

_RECORD = st.fixed_dictionaries(
    {"k": st.sampled_from(("put", "metric", "enqueue", "snapshot"))},
    optional={
        "id": st.text(max_size=12),
        "v": st.one_of(st.integers(-2**53, 2**53),
                       st.floats(allow_nan=False), st.booleans(), st.none()),
        "text": st.text(max_size=40),
    },
)
_RECORDS = st.lists(_RECORD, min_size=1, max_size=8)


def _write(path, records):
    wal = WriteAheadLog(path, fsync=False)
    spans = [wal.append(record) for record in records]
    wal.close()
    return spans


def _intact_prefix(records, spans, cut):
    """Records whose bytes survive a cut at *cut* (the newline may go)."""
    return [r for r, (off, length) in zip(records, spans)
            if off + length - 1 <= cut]


def _torn(spans, cut):
    """Whether the cut lands strictly inside a record."""
    return any(off < cut < off + length - 1 for off, length in spans)


class TestPrefixRecovery:
    @given(records=_RECORDS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_truncation_at_any_byte_yields_the_intact_prefix(
            self, tmp_path_factory, records, data):
        path = tmp_path_factory.mktemp("wal") / "x.wal"
        spans = _write(path, records)
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        path.write_bytes(blob[:cut])
        result = scan(path)
        assert result.records == _intact_prefix(records, spans, cut)
        assert result.bad_records == int(_torn(spans, cut))


class TestBitFlips:
    @given(records=_RECORDS, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_single_bit_flip_loses_exactly_one_record(
            self, tmp_path_factory, records, data):
        path = tmp_path_factory.mktemp("wal") / "x.wal"
        spans = _write(path, records)
        blob = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(blob) - 1), label="byte")
        bit = data.draw(st.integers(0, 7), label="bit")
        blob[pos] ^= 1 << bit
        path.write_bytes(bytes(blob))
        hit = next(i for i, (off, length) in enumerate(spans)
                   if off <= pos < off + length)
        result = scan(path)
        assert result.records == records[:hit] + records[hit + 1:]
        assert result.bad_records >= 1


class TestAppendAfterTear:
    @given(records=_RECORDS, tail=_RECORDS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_record_appended_after_a_tear_scans_back(
            self, tmp_path_factory, records, tail, data):
        path = tmp_path_factory.mktemp("wal") / "x.wal"
        spans = _write(path, records)
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        path.write_bytes(blob[:cut])
        _write(path, tail)
        result = scan(path)
        assert result.records == _intact_prefix(records, spans, cut) + tail
        assert result.bad_records == int(_torn(spans, cut))


class TestRewrite:
    @given(history=_RECORDS, snapshot=st.lists(_RECORD, max_size=5),
           tail=_RECORDS)
    @settings(max_examples=60, deadline=None)
    def test_rewrite_then_append_replays_snapshot_plus_tail(
            self, tmp_path_factory, history, snapshot, tail):
        path = tmp_path_factory.mktemp("wal") / "x.wal"
        wal = WriteAheadLog(path, fsync=False)
        for record in history:
            wal.append(record)
        wal.rewrite(snapshot)
        for record in tail:
            wal.append(record)
        wal.close()
        result = scan(path)
        assert result.records == snapshot + tail and result.is_clean


class TestWireFormatProps:
    @given(payload=st.dictionaries(
        st.sampled_from(("k", "n", "v", "t", "s")),
        st.one_of(st.text(max_size=20),
                  st.floats(allow_nan=False),
                  st.integers(-2**31, 2**31),
                  st.none()),
        min_size=1,
    ))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_roundtrip(self, payload):
        payload["k"] = "metric"  # records must carry a kind
        assert decode_record(encode_record(payload)) == payload

    @given(value=st.floats())
    @settings(max_examples=40, deadline=None)
    def test_all_floats_roundtrip(self, value):
        rec = decode_record(encode_record({"k": "m", "v": value}))
        if math.isnan(value):
            assert math.isnan(rec["v"])
        else:
            assert rec["v"] == value
