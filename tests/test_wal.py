"""Tests for the write-ahead log primitive (codec, golden bytes, appends)."""

import json
import zlib

import pytest

from repro.errors import JournalError
from repro.wal import WriteAheadLog, decode_record, encode_record, scan

#: Records covering the value shapes the consumers journal.
GOLDEN_RECORDS = [
    {"k": "start_run", "run_id": "r0", "t": 1.5},
    {"k": "metric", "n": "loss", "v": 0.125, "s": 3, "c": "training"},
    {"k": "param", "n": "note", "v": 'café ✓ "q" \\ \n'},
    {"k": "enqueue", "doc": "d1", "shard": "s-2"},
    {"k": "put", "seq": 7, "id": "doc/a", "text": '{"entity": {}}'},
    {"k": "snapshot", "job": "j1", "nested": {"a": [1, None, True, -2.5e-300]},
     "big": 2**53 + 1, "inf": float("inf")},
]

#: The bytes the previous, per-module encoders wrote for GOLDEN_RECORDS.
GOLDEN_BYTES = (
    b'00000027 614573ce {"k":"start_run","run_id":"r0","t":1.5}\n'
    b'00000038 bce3fe0c {"k":"metric","n":"loss","v":0.125,"s":3,"c":"training"}\n'
    b'0000003b 5ddf6fb9 {"k":"param","n":"note","v":"caf\\u00e9 \\u2713 \\"q\\" \\\\ \\n"}\n'
    b'00000028 feeb64a8 {"k":"enqueue","doc":"d1","shard":"s-2"}\n'
    b'0000003a a0e9dd3d {"k":"put","seq":7,"id":"doc/a","text":"{\\"entity\\": {}}"}\n'
    b'00000068 34494aa0 {"k":"snapshot","job":"j1","nested":{"a":[1,null,true,-2.5e-300]},'
    b'"big":9007199254740993,"inf":Infinity}\n'
)


class TestGoldenBytes:
    def test_encoder_writes_the_golden_bytes(self, tmp_path):
        assert b"".join(map(encode_record, GOLDEN_RECORDS)) == GOLDEN_BYTES
        wal = WriteAheadLog(tmp_path / "a.wal", fsync=False)
        for record in GOLDEN_RECORDS:
            wal.append(record)
        wal.close()
        assert (tmp_path / "a.wal").read_bytes() == GOLDEN_BYTES

    def test_golden_file_scans_record_for_record(self, tmp_path):
        path = tmp_path / "g.wal"
        path.write_bytes(GOLDEN_BYTES)
        result = scan(path)
        assert result.records == GOLDEN_RECORDS and result.is_clean
        lines = GOLDEN_BYTES.splitlines(keepends=True)
        offsets = [sum(map(len, lines[:i])) for i in range(len(lines))]
        assert result.spans == [(o, len(line)) for o, line in zip(offsets, lines)]

    def test_damaged_golden_file_scans_like_before(self, tmp_path):
        """A flipped payload byte in record 2 plus a 5-byte torn tail: the
        previous readers kept start_run, param, enqueue and put."""
        data = bytearray(GOLDEN_BYTES)
        data[83] ^= 0x40
        path = tmp_path / "g.wal"
        path.write_bytes(bytes(data[:-5]))
        result = scan(path)
        assert [r["k"] for r in result.records] == [
            "start_run", "param", "enqueue", "put"]
        assert result.bad_records == 2


class TestCodec:
    def test_roundtrip(self):
        payload = {"k": "metric", "n": "loss", "v": 0.5, "t": 123.0}
        assert decode_record(encode_record(payload)) == payload

    def test_length_prefix_matches_payload(self):
        line = encode_record({"k": "x"})
        length = int(line[:8], 16)
        # "llllllll cccccccc payload\n"
        assert len(line) == 8 + 1 + 8 + 1 + length + 1

    def test_nan_survives(self):
        rec = decode_record(encode_record({"k": "metric", "v": float("nan")}))
        assert rec["v"] != rec["v"]

    def test_corrupt_crc_rejected(self):
        line = bytearray(encode_record({"k": "param", "n": "lr"}))
        line[-2] ^= 0xFF  # flip a payload byte; crc now mismatches
        with pytest.raises(JournalError):
            decode_record(bytes(line))

    def test_uppercase_hex_prefix_rejected(self):
        """Flipping bit 5 of a hex letter changes its case, not its value:
        the prefix must still fail, or that flip would go unnoticed."""
        line = encode_record({"k": "param", "n": "lr"})
        upper = line[:18].upper() + line[18:]
        assert upper != line
        with pytest.raises(JournalError):
            decode_record(upper)

    def test_truncated_line_rejected(self):
        line = encode_record({"k": "param", "n": "lr"})
        with pytest.raises(JournalError):
            decode_record(line[: len(line) // 2])

    def test_missing_kind_rejected(self):
        raw = json.dumps({"n": "lr"}).encode()
        line = b"%08x %08x " % (len(raw), zlib.crc32(raw)) + raw + b"\n"
        with pytest.raises(JournalError):
            decode_record(line)

    def test_unserializable_payload_rejected(self):
        with pytest.raises(JournalError):
            encode_record({"k": "x", "v": object()})


class TestWriteAheadLog:
    def test_append_returns_offsets(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "x.wal", fsync=False)
        first = wal.append({"k": "a"})
        second = wal.append({"k": "b", "v": 1})
        wal.close()
        assert first == (0, len(encode_record({"k": "a"})))
        assert second[0] == first[1]
        assert scan(tmp_path / "x.wal").spans == [first, second]

    def test_unsynced_appends_are_pending_until_sync(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "x.wal", fsync=False)
        wal.append({"k": "a"}, sync=False)
        wal.append({"k": "b"}, sync=False)
        assert wal.pending == 2
        wal.sync()
        assert wal.pending == 0
        assert len(scan(tmp_path / "x.wal").records) == 2
        wal.close()

    def test_reopen_continues_offsets(self, tmp_path):
        path = tmp_path / "x.wal"
        WriteAheadLog(path, fsync=False).append({"k": "a"})
        wal = WriteAheadLog(path, fsync=False)
        offset, _ = wal.append({"k": "b"})
        wal.close()
        assert offset == len(encode_record({"k": "a"}))

    def test_rewrite_replaces_contents_and_stays_open(self, tmp_path):
        path = tmp_path / "x.wal"
        wal = WriteAheadLog(path, fsync=False)
        for i in range(5):
            wal.append({"k": "e", "i": i})
        wal.rewrite([{"k": "snap", "n": 5}])
        wal.append({"k": "e", "i": 5})
        wal.close()
        assert [r["k"] for r in scan(path).records] == ["snap", "e"]

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "x.wal")
        wal.close()
        wal.close()  # idempotent
        assert wal.closed
        with pytest.raises(JournalError):
            wal.append({"k": "a"})

    def test_missing_file_scans_empty(self, tmp_path):
        result = scan(tmp_path / "absent.wal")
        assert result.records == [] and result.is_clean

    def test_flipped_newline_costs_one_record(self, tmp_path):
        """A damaged terminator must not take the next record with it."""
        lines = [encode_record({"k": "e", "i": i}) for i in range(3)]
        data = bytearray(b"".join(lines))
        data[len(lines[0]) - 1] ^= 0x01
        path = tmp_path / "x.wal"
        path.write_bytes(bytes(data))
        result = scan(path)
        assert [r["i"] for r in result.records] == [1, 2]
        assert result.bad_records == 1
