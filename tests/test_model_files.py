"""The CNN model file, the block codec's one kind of file.

Every mutated file must either load or raise an XmreidError; the specific
defects (truncation, non-finite values, trailing data) must raise the
specific errors, and every field must survive a round trip bit for bit.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmreid import textcnn
from xmreid.errors import MalformedHeader, NonFiniteValue, XmreidError
from xmreid.rng import stream

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)


def make_cnn():
    config = textcnn.TextCnnConfig(num_classes=3, embed_dim=4, kernel_count=2,
                                   kernel_width=2, hidden_dim=3, max_len=6, dropout=0.25)
    return textcnn.init_model(config, stream(63, 1))


KINDS = {"cnn": (textcnn.save_model, textcnn.load_model, make_cnn)}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """kind -> (path to write mutated copies to, bytes of the saved model)."""
    root = tmp_path_factory.mktemp("models")
    out = {}
    for kind, (save, _, make) in KINDS.items():
        path = root / f"model.{kind}"
        save(make(), path)
        out[kind] = (root / f"mutated.{kind}", path.read_bytes())
    return out


def load_bytes(kind, saved, data):
    path, _ = saved[kind]
    path.write_bytes(data)
    return KINDS[kind][1](path)


def reals(*values):
    return np.array(values, dtype="<f8").tobytes()


def value_offsets(data):
    """Byte offset of every stored real: each block header line is followed
    by the product of its dimensions in 8-byte values."""
    offsets, at = [], data.index(b"\n") + 1
    while at < len(data):
        end = data.index(b"\n", at)
        count = math.prod(int(d) for d in data[at:end].split(b" ")[1:])
        offsets += range(end + 1, end + 1 + 8 * count, 8)
        at = end + 1 + 8 * count
    return offsets


def replace_value(data, offset, raw):
    return data[:offset] + raw + data[offset + 8:]


def assert_same(a, b):
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, name


@pytest.mark.parametrize("kind", KINDS)
class TestModelDefects:
    def test_roundtrip_keeps_every_field(self, kind, tmp_path):
        save, load, make = KINDS[kind]
        model = make()
        save(model, tmp_path / "a")
        loaded = load(tmp_path / "a")
        assert_same(loaded, model)
        save(loaded, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_truncated(self, kind, saved):
        _, data = saved[kind]
        with pytest.raises(MalformedHeader):
            load_bytes(kind, saved, data[: len(data) // 2])

    def test_garbled_real(self, kind, saved):
        _, data = saved[kind]  # text in place of the last raw value
        with pytest.raises(MalformedHeader):
            load_bytes(kind, saved, replace_value(data, value_offsets(data)[-1], b"0.5e"))

    def test_trailing_data(self, kind, saved):
        _, data = saved[kind]
        with pytest.raises(MalformedHeader):
            load_bytes(kind, saved, data + b"1 2\n")

    def test_nan(self, kind, saved):
        _, data = saved[kind]
        with pytest.raises(NonFiniteValue):
            load_bytes(kind, saved, replace_value(data, value_offsets(data)[-1], reals(np.nan)))

    def test_value_offsets_cover_the_file(self, kind, saved):
        # the fuzz cases below reach every stored value: the scalar blocks
        # max_len and dropout, conv_w 2x4x2, conv_b 2, fc1 3x2 + 3, fc2 3x3 + 3
        _, data = saved[kind]
        offsets = value_offsets(data)
        assert len(offsets) == 41
        assert offsets[-1] + 8 == len(data)

    @FUZZ
    @given(data=st.data())
    def test_any_truncation_is_malformed(self, kind, saved, data):
        _, raw = saved[kind]
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(MalformedHeader):
            load_bytes(kind, saved, raw[:cut])

    @FUZZ
    @given(data=st.data())
    def test_any_byte_flip_loads_or_raises_package_error(self, kind, saved, data):
        path, raw = saved[kind]
        flipped = bytearray(raw)
        where = data.draw(st.integers(0, len(raw) - 1))
        flipped[where] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[where]))
        path.write_bytes(bytes(flipped))
        try:
            KINDS[kind][1](path)
        except XmreidError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_any_non_finite_value_is_rejected(self, kind, saved, data):
        _, raw = saved[kind]
        at = data.draw(st.sampled_from(value_offsets(raw)))
        # any NaN or infinity: all-ones exponent, any sign and mantissa
        sign, mantissa = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2**52 - 1))
        bits = struct.pack("<Q", sign << 63 | 0x7FF << 52 | mantissa)
        with pytest.raises(NonFiniteValue):
            load_bytes(kind, saved, replace_value(raw, at, bits))


class TestKindSpecific:
    def test_cnn_nan_dropout(self, saved):
        _, data = saved["cnn"]
        with pytest.raises(NonFiniteValue):
            load_bytes("cnn", saved, data.replace(b"dropout\n" + reals(0.25), b"dropout\n" + reals(np.nan)))

    def test_cnn_non_numeric_header(self, saved):
        _, data = saved["cnn"]
        with pytest.raises(MalformedHeader):
            load_bytes("cnn", saved, data.replace(b"conv_w 2 4 2", b"conv_w 2 four 2"))

    def test_cnn_fractional_max_len(self, saved):
        _, data = saved["cnn"]
        with pytest.raises(MalformedHeader):
            load_bytes("cnn", saved, data.replace(b"max_len\n" + reals(6), b"max_len\n" + reals(6.5)))

    def test_cnn_config_is_validated(self, saved):
        _, data = saved["cnn"]
        with pytest.raises(XmreidError):
            load_bytes("cnn", saved, data.replace(b"dropout\n" + reals(0.25), b"dropout\n" + reals(1)))
