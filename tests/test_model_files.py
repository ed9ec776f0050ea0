"""Model files of all three kinds (CCA, XQDA, CNN) through the block codec.

Every mutated file must either load or raise an XmreidError; the specific
defects (truncation, garbled or non-finite reals, trailing data) must raise
the specific errors, and every field must survive a round trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmreid import cca, textcnn, xqda
from xmreid.errors import MalformedHeader, NonFiniteValue, XmreidError
from xmreid.rng import stream

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)


def make_cca():
    rng = stream(61, 1)
    return cca.CcaModel(w_x=rng.standard_normal((4, 2)), w_y=rng.standard_normal((3, 2)),
                        correlations=np.array([0.875, 0.25]), mean_x=rng.standard_normal(4),
                        mean_y=rng.standard_normal(3), ridge=3e-4)


def make_xqda():
    rng = stream(62, 1)
    m = rng.standard_normal((2, 2))
    return xqda.XqdaModel(w=rng.standard_normal((4, 2)), m=m + m.T, fallback=True)


def make_cnn():
    config = textcnn.TextCnnConfig(num_classes=3, embed_dim=4, kernel_count=2,
                                   kernel_width=2, hidden_dim=3, max_len=6, dropout=0.25)
    return textcnn.init_model(config, stream(63, 1))


KINDS = {
    "cca": (cca.save_model, cca.load_model, make_cca),
    "xqda": (xqda.save_model, xqda.load_model, make_xqda),
    "cnn": (textcnn.save_model, textcnn.load_model, make_cnn),
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """kind -> (path to write mutated copies to, text of the saved model)."""
    root = tmp_path_factory.mktemp("models")
    out = {}
    for kind, (save, _, make) in KINDS.items():
        path = root / f"model.{kind}"
        save(make(), path)
        out[kind] = (root / f"mutated.{kind}", path.read_text(encoding="utf-8"))
    return out


def load_text(kind, saved, text):
    path, _ = saved[kind]
    path.write_text(text, encoding="utf-8", newline="\n")
    return KINDS[kind][1](path)


def _is_real(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def value_slots(text):
    """(line, token) positions of every stored real; block headers start with a name."""
    lines = text.split("\n")
    return [(i, j) for i, line in enumerate(lines[1:-1], start=1) if _is_real(line.split(" ")[0])
            for j in range(len(line.split(" ")))]


def replace_value(text, slot, value):
    lines = text.split("\n")
    tokens = lines[slot[0]].split(" ")
    tokens[slot[1]] = value
    lines[slot[0]] = " ".join(tokens)
    return "\n".join(lines)


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
        _, text = saved[kind]
        with pytest.raises(MalformedHeader):
            load_text(kind, saved, text[: len(text) // 2])

    def test_garbled_real(self, kind, saved):
        _, text = saved[kind]
        slot = value_slots(text)[-1]
        with pytest.raises(MalformedHeader):
            load_text(kind, saved, replace_value(text, slot, "0.5e"))

    def test_trailing_data(self, kind, saved):
        _, text = saved[kind]
        with pytest.raises(MalformedHeader):
            load_text(kind, saved, text + "1 2\n")

    def test_nan(self, kind, saved):
        _, text = saved[kind]
        slot = value_slots(text)[-1]
        with pytest.raises(NonFiniteValue):
            load_text(kind, saved, replace_value(text, slot, "nan"))

    @FUZZ
    @given(data=st.data())
    def test_any_truncation_is_malformed(self, kind, saved, data):
        _, text = saved[kind]
        cut = data.draw(st.integers(0, len(text) - 1))
        with pytest.raises(MalformedHeader):
            load_text(kind, saved, text[:cut])

    @FUZZ
    @given(data=st.data())
    def test_any_byte_flip_loads_or_raises_package_error(self, kind, saved, data):
        path, text = saved[kind]
        raw = bytearray(text.encode("utf-8"))
        where = data.draw(st.integers(0, len(raw) - 1))
        raw[where] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[where]))
        path.write_bytes(bytes(raw))
        try:
            KINDS[kind][1](path)
        except XmreidError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_any_non_finite_value_is_rejected(self, kind, saved, data):
        _, text = saved[kind]
        slot = data.draw(st.sampled_from(value_slots(text)))
        value = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "1e999"]))
        with pytest.raises(NonFiniteValue):
            load_text(kind, saved, replace_value(text, slot, value))


class TestKindSpecific:
    def test_xqda_fallback_flag_must_be_boolean(self, saved):
        _, text = saved["xqda"]
        with pytest.raises(MalformedHeader):
            load_text("xqda", saved, text.replace("fallback\n1\n", "fallback\n0.5\n"))

    def test_cnn_nan_dropout(self, saved):
        _, text = saved["cnn"]
        with pytest.raises(NonFiniteValue):
            load_text("cnn", saved, text.replace("dropout\n0.25\n", "dropout\nnan\n"))

    def test_cnn_non_numeric_header(self, saved):
        _, text = saved["cnn"]
        with pytest.raises(MalformedHeader):
            load_text("cnn", saved, text.replace("conv_w 2 4 2", "conv_w 2 four 2"))

    def test_cnn_fractional_max_len(self, saved):
        _, text = saved["cnn"]
        with pytest.raises(MalformedHeader):
            load_text("cnn", saved, text.replace("max_len\n6\n", "max_len\n6.5\n"))

    def test_cnn_config_is_validated(self, saved):
        _, text = saved["cnn"]
        with pytest.raises(XmreidError):
            load_text("cnn", saved, text.replace("dropout\n0.25\n", "dropout\n1\n"))
