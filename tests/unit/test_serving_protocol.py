"""The serving wire protocol: address parsing, version gate, arrays."""

import json
import math

import numpy as np
import pytest

from repro.serving.protocol import (DEFAULT_FIT_PORT, DEFAULT_HOST,
                                    PROTOCOL_VERSION, check_protocol,
                                    decode_array, encode_array, error_doc,
                                    format_addr, parse_addr)


class TestParseAddr:
    def test_host_and_port(self):
        assert parse_addr("example.org:9000") == ("example.org", 9000)

    def test_host_only_gets_default_port(self):
        assert parse_addr("example.org", 4242) == ("example.org", 4242)

    def test_port_only_gets_default_host(self):
        assert parse_addr(":9000") == (DEFAULT_HOST, 9000)

    def test_none_and_empty_fall_back_entirely(self):
        assert parse_addr(None) == (DEFAULT_HOST, DEFAULT_FIT_PORT)
        assert parse_addr("") == (DEFAULT_HOST, DEFAULT_FIT_PORT)

    def test_whitespace_is_stripped(self):
        assert parse_addr("  10.0.0.1:80 ") == ("10.0.0.1", 80)

    @pytest.mark.parametrize("bad", ["host:http", "host:", "host:70000",
                                     "host:-1"])
    def test_malformed_port_raises_at_parse_time(self, bad):
        with pytest.raises(ValueError, match="malformed serving address"):
            parse_addr(bad)

    def test_format_addr_roundtrips(self):
        host, port = parse_addr(format_addr("node7", 8173))
        assert (host, port) == ("node7", 8173)


class TestProtocolGate:
    def test_matching_version_accepted(self):
        assert check_protocol({"protocol": PROTOCOL_VERSION}) is None

    def test_missing_field_accepted(self):
        assert check_protocol({}) is None

    def test_different_version_refused_with_reason(self):
        reason = check_protocol({"protocol": PROTOCOL_VERSION + 1})
        assert reason is not None
        assert str(PROTOCOL_VERSION + 1) in reason

    def test_error_doc_envelope(self):
        doc = error_doc("busy", "try later", hint=7)
        assert doc["ok"] is False
        assert doc["error"] == "busy"
        assert doc["message"] == "try later"
        assert doc["protocol"] == PROTOCOL_VERSION
        assert doc["hint"] == 7


def _with_specials(arr):
    """``arr`` with a NaN carrying a payload, -0.0, +-inf and the
    smallest subnormal in its first values (floats only)."""
    if arr.dtype.kind != "f":
        return arr
    info = np.finfo(arr.dtype)
    bits = np.dtype(f"u{arr.dtype.itemsize}")
    # Quiet NaN (top mantissa bit set) with a payload in the low bits.
    quiet = 1 << (info.nmant - 1)
    nan_bits = ((1 << info.nexp) - 1) << info.nmant | quiet | 0x123
    nan = np.array([nan_bits], dtype=bits).view(arr.dtype)[0]
    flat = arr.reshape(-1)
    flat[:6] = [nan, -0.0, np.inf, -np.inf, info.smallest_subnormal,
                -info.smallest_subnormal]
    return arr


class TestArrayDocuments:
    @pytest.mark.parametrize("dtype", ["float64", "float32", "int64",
                                       "int32", "uint8", "bool"])
    def test_roundtrip_is_lossless(self, dtype, rng):
        raw = rng.normal(size=(3, 4, 2)) * 100
        arr = _with_specials((raw > 0 if dtype == "bool" else
                              np.abs(raw) if dtype == "uint8" else
                              raw).astype(dtype))
        doc = encode_array(arr)
        # One base64 string, never a list of number texts.
        assert len(doc["data"]) == 4 * math.ceil(arr.nbytes / 3)
        back = decode_array(json.loads(json.dumps(doc)))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))
        assert back.flags.writeable and back.flags.owndata

    @pytest.mark.parametrize("make", [
        lambda a: a.astype(">f8"),
        lambda a: a.T,
        lambda a: a[::2, 1::3],
        lambda a: a.astype(">i4")[:, ::-1],
    ], ids=["big-endian", "transposed", "strided", "big-endian-reversed"])
    def test_foreign_layouts_decode_native(self, make, rng):
        arr = make(np.round(rng.normal(size=(4, 6)) * 100))
        back = decode_array(encode_array(arr))
        assert back.dtype.isnative
        assert back.dtype == arr.dtype.newbyteorder("=")
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_scalar_and_empty_shapes(self):
        for arr in (np.float64(3.5), np.zeros((0, 4)),
                    np.zeros((2, 0, 3), dtype=bool), np.array(7, np.int32)):
            back = decode_array(encode_array(arr))
            assert back.shape == np.asarray(arr).shape
            assert np.array_equal(back, np.asarray(arr))
            assert back.flags.writeable and back.flags.owndata

    def test_shape_data_mismatch_raises(self):
        doc = encode_array(np.arange(6.0))
        doc["shape"] = [7]
        with pytest.raises(ValueError, match="7"):
            decode_array(doc)

    def test_missing_field_raises(self):
        for doc in ({"shape": [1], "data": [0.0]}, None, [1, 2], "AAAA"):
            with pytest.raises(ValueError, match="malformed array document"):
                decode_array(doc)

    @pytest.mark.parametrize("field, value, match", [
        ("data", "AAAA!AAAAAAA", "base64"),
        ("data", "AAAAAAAAAAA", "base64"),
        ("data", "AAAAAAAAAAAAAAAA", "carries 12 bytes"),
        ("data", [0.0, 1.0], "base64 string"),
        ("shape", [-1, 2], "non-negative"),
        ("shape", [2.0], "non-negative"),
        ("shape", ["2"], "non-negative"),
        ("shape", 2, "non-negative"),
        ("dtype", "object", "dtype"),
        ("dtype", "<U32", "dtype"),
        ("dtype", "complex128", "dtype"),
        ("dtype", "f8,f8", "dtype"),
        ("dtype", "i4,(2", "dtype"),
        ("dtype", "no-such-type", "dtype"),
        ("dtype", ["float64"], "dtype"),
    ])
    def test_hostile_documents_raise(self, field, value, match):
        doc = encode_array(np.zeros(2, dtype=np.float32))
        doc[field] = value
        with pytest.raises(ValueError, match=match):
            decode_array(doc)
