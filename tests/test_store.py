import struct

import numpy as np
import pytest

from voxuq.calibration import CalibrationParams
from voxuq.gda import fit_gda, FeatureBank
from voxuq.head import HeadConfig, ResidualMlpHead
from voxuq.store import (StoreError, load_gda, load_head, read_artifact, save_calibration,
                         save_gda, save_head, write_artifact)

from oracles import load_calibration


def make_head():
    head = ResidualMlpHead(HeadConfig(input_dim=6, hidden_width=6, num_layers=3,
                                      num_classes=4), seed=3)
    head.round_weights_to_f32()  # the on-disk format stores weights as float32
    return head


def make_gda():
    rng = np.random.default_rng(0)
    bank = FeatureBank(num_classes=3, cap_per_class=100)
    for c in range(3):
        pts = rng.standard_normal((40, 5)) + 3 * c
        bank.vectors[c] = list(pts)
        bank.seen_counts[c] = 40
    return fit_gda(bank)


def test_head_round_trip_bit_exact(tmp_path):
    head = make_head()
    path = tmp_path / "head.ocuq"
    save_head(head, path)
    back = load_head(path)
    assert back.config == head.config
    for name, p in head.parameters().items():
        assert np.array_equal(back.parameters()[name], p), name
    for a, b in zip(head.layers, back.layers):
        assert np.array_equal(a.sn_state.u, b.sn_state.u)
        assert np.array_equal(a.sn_state.v, b.sn_state.v)


def test_head_round_trip_same_predictions(tmp_path):
    head = make_head()
    x = np.random.default_rng(1).standard_normal((10, 6))
    path = tmp_path / "head.ocuq"
    save_head(head, path)
    back = load_head(path)
    assert np.array_equal(head.forward(x).logits, back.forward(x).logits)


def test_gda_round_trip_bit_exact(tmp_path):
    model = make_gda()
    path = tmp_path / "gda.ocuq"
    save_gda(model, path)
    back = load_gda(path)
    assert np.array_equal(back.means, model.means)
    assert np.array_equal(back.chols, model.chols)
    assert np.array_equal(back.log_dets, model.log_dets)
    assert np.array_equal(back.log_priors, model.log_priors)
    assert np.array_equal(back.counts, model.counts)
    assert back.eps_used == model.eps_used
    z = np.random.default_rng(2).standard_normal((5, 5))
    assert np.array_equal(model.log_density(z), back.log_density(z))


def test_calibration_round_trip(tmp_path):
    params = CalibrationParams(t_train=1.37, lam=0.05, u_bar_train=12.5,
                               t_min=0.1, t_max=15.0)
    path = tmp_path / "calib.ocuq"
    save_calibration(params, path)
    assert load_calibration(path) == params
    assert read_artifact(path)[1]["mode"] == "additive"


@pytest.mark.parametrize("mode", ["multiplicative", "per-class", None])
def test_calibration_with_other_mode_rejected(tmp_path, mode):
    metadata = {"t_train": 1.0, "lambda": 0.1, "u_bar_train": 0.0,
                "t_min": 0.05, "t_max": 20.0}
    if mode is not None:
        metadata["mode"] = mode
    path = tmp_path / "calib.ocuq"
    write_artifact(path, "calib", metadata, {})
    with pytest.raises(StoreError, match="mode"):
        load_calibration(path)


def test_save_is_byte_deterministic(tmp_path):
    head = make_head()
    save_head(head, tmp_path / "a.ocuq")
    save_head(head, tmp_path / "b.ocuq")
    assert (tmp_path / "a.ocuq").read_bytes() == (tmp_path / "b.ocuq").read_bytes()


# -- error handling ---------------------------------------------------------

def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ocuq"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(StoreError):
        read_artifact(path)


def test_truncated_file_rejected(tmp_path):
    head = make_head()
    path = tmp_path / "head.ocuq"
    save_head(head, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(StoreError):
        load_head(path)


def test_kind_mismatch_rejected(tmp_path):
    params = CalibrationParams()
    path = tmp_path / "calib.ocuq"
    save_calibration(params, path)
    with pytest.raises(StoreError):
        load_head(path)


def test_future_version_rejected(tmp_path):
    import struct
    head = make_head()
    path = tmp_path / "head.ocuq"
    save_head(head, path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(StoreError):
        read_artifact(path)


def test_unknown_kind_rejected_on_write(tmp_path):
    with pytest.raises(ValueError):
        write_artifact(tmp_path / "x.ocuq", "mystery", {}, {})


def test_low_level_round_trip_preserves_dtypes(tmp_path):
    tensors = {
        "f64": np.arange(6, dtype=np.float64).reshape(2, 3),
        "f32": np.arange(4, dtype=np.float32),
        "i64": np.array([1, 2, 3], dtype=np.int64),
    }
    path = tmp_path / "raw.ocuq"
    write_artifact(path, "gda", {"note": "x"}, tensors)
    kind, metadata, back = read_artifact(path)
    assert kind == "gda"
    assert metadata == {"note": "x"}
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype.newbyteorder("<")
        assert np.array_equal(back[name], arr)


def rewrite(path, change):
    """Rewrite the artifact at `path` after `change(metadata, tensors)`, or,
    for a change (old, new) of bytes, replace the first `old` in the file."""
    if isinstance(change, tuple):
        raw = path.read_bytes()
        assert change[0] in raw
        path.write_bytes(raw.replace(*change, 1))
        return
    kind, metadata, tensors = read_artifact(path)
    change(metadata, tensors)
    write_artifact(path, kind, metadata, tensors)


HEAD_DAMAGE = {
    "no tensor": lambda m, t: t.pop("classifier.bias"),
    "no sn vector": lambda m, t: t.pop("layer1.sn_v"),
    "unknown metadata key": lambda m, t: m.update(dropout=0.5),
    "invalid metadata value": lambda m, t: m.update(num_layers=1),
    "float width that matches the tensors": lambda m, t: m.update(hidden_width=6.0),
    # checked before a head is built: its second layer alone would take 8 TB
    "huge declared width": lambda m, t: m.update(input_dim=2, hidden_width=10 ** 6),
    "wrongly shaped weight": lambda m, t: t.update({"layer0.weight": t["layer0.weight"][:, :5]}),
    "wrongly shaped bias": lambda m, t: t.update({"classifier.bias": t["classifier.bias"][None]}),
    "metadata not UTF-8": (b'"skip": true', b'"skip": tru\xff'),
    "metadata not JSON": (b'"skip": true', b'"skip": trux'),
    "unknown dtype": (b"<f4", b"<z4"),
    "non-numeric dtype": (b"<f4", b"<U1"),
    "tensor name not UTF-8": (b"classifier.bias", b"classifier.bia\xff"),
    "huge tensor shape": (b"classifier.bias\x03\x00<f4\x01" + struct.pack("<Q", 4),
                          b"classifier.bias\x03\x00<f4\x01" + struct.pack("<Q", 2 ** 50)),
    "tensor size past 2^64": (b"layer0.weight\x03\x00<f4\x02" + struct.pack("<QQ", 6, 6),
                              b"layer0.weight\x03\x00<f4\x02"
                              + struct.pack("<QQ", 2 ** 32, 2 ** 32)),
}


@pytest.mark.parametrize("damage", list(HEAD_DAMAGE))
def test_malformed_head_artifact_raises_store_error(tmp_path, damage):
    path = tmp_path / "head.ocuq"
    save_head(make_head(), path)
    rewrite(path, HEAD_DAMAGE[damage])
    with pytest.raises(StoreError):
        load_head(path)


def test_head_metadata_error_names_the_field(tmp_path):
    """A float width that matches the tensors is HeadConfig's error, named."""
    path = tmp_path / "head.ocuq"
    save_head(make_head(), path)
    rewrite(path, HEAD_DAMAGE["float width that matches the tensors"])
    with pytest.raises(StoreError, match="hidden_width must be an integer, got 6.0"):
        load_head(path)


GDA_DAMAGE = {
    "no tensor": lambda m, t: t.pop("counts"),
    "no metadata key": lambda m, t: m.pop("eps_used"),
    "wrongly shaped means": lambda m, t: t.update(means=t["means"].T.copy()),
    "wrongly shaped chols": lambda m, t: t.update(chols=t["chols"][:2]),
    "metadata not UTF-8": (b'"num_classes"', b'"num_classe\xff"'),
    "metadata not JSON": (b'"num_classes":', b'"num_classes";'),
    "unknown dtype": (b"<i8", b"<x8"),
}


@pytest.mark.parametrize("damage", list(GDA_DAMAGE))
def test_malformed_gda_artifact_raises_store_error(tmp_path, damage):
    path = tmp_path / "gda.ocuq"
    save_gda(make_gda(), path)
    rewrite(path, GDA_DAMAGE[damage])
    with pytest.raises(StoreError):
        load_gda(path)


CALIB_DAMAGE = {
    "no metadata key": lambda m, t: m.pop("t_max"),
    "no lambda": lambda m, t: m.pop("lambda"),
    "string value": lambda m, t: m.update(t_train="1.37"),
    "null value": lambda m, t: m.update({"lambda": None}),
    "boolean value": lambda m, t: m.update(u_bar_train=True),
    "non-finite value": lambda m, t: m.update(t_train=float("nan")),
    "t_min above t_max": lambda m, t: m.update(t_min=m["t_max"] * 2),
    "metadata not JSON": (b'"mode":', b'"mode";'),
}


@pytest.mark.parametrize("damage", list(CALIB_DAMAGE))
def test_malformed_calibration_artifact_raises_store_error(tmp_path, damage):
    path = tmp_path / "calib.ocuq"
    save_calibration(CalibrationParams(t_train=1.37, lam=0.05, u_bar_train=12.5), path)
    rewrite(path, CALIB_DAMAGE[damage])
    with pytest.raises(StoreError):
        load_calibration(path)


@pytest.mark.parametrize("metadata", [[1, 2], "head", 3.5, None])
def test_metadata_that_is_not_a_json_object_raises_store_error(tmp_path, metadata):
    path = tmp_path / "x.ocuq"
    write_artifact(path, "head", metadata, {})
    with pytest.raises(StoreError, match="not a JSON object"):
        read_artifact(path)
