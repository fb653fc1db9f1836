"""LF5D container and tensor convention tests."""

import struct

import numpy as np
import pytest

from codedlf import autodiff, calib, coding, cs_dct, cs_dict, multitask, scenegen, tensor


def test_header_example_round_trip(tmp_path):
    path = tmp_path / "t.lf5d"
    t = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2, 1)
    tensor.write_lf5d(t, path)
    raw = path.read_bytes()
    assert raw[:4] == b"LF5D"
    version, u, v, s, tt, c = struct.unpack_from("<H5I", raw, 4)
    assert (version, u, v, s, tt, c) == (1, 1, 1, 2, 2, 1)
    assert np.array_equal(tensor.read_lf5d(path), t)


def test_minimal_file_size(tmp_path):
    path = tmp_path / "z.lf5d"
    tensor.write_lf5d(np.zeros((1, 1, 1, 1, 1), dtype=np.float32), path)
    assert path.stat().st_size == 26 + 4


def test_round_trip_preserves_bits(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.normal(size=(2, 3, 4, 5, 6)).astype(np.float32)
    path = tmp_path / "r.lf5d"
    tensor.write_lf5d(t, path)
    back = tensor.read_lf5d(path)
    assert back.shape == t.shape
    assert np.array_equal(back.view(np.uint32), t.view(np.uint32))


def test_read_values_are_aligned(tmp_path):
    # The LF5D payload starts at byte 26; a view there would be misaligned
    # for float32, which slows every numpy operation on it.
    path = tmp_path / "a.lf5d"
    tensor.write_lf5d(np.ones((1, 1, 3, 3, 2), dtype=np.float32), path)
    assert tensor.read_lf5d(path).flags.aligned


def test_overwrite_succeeds(tmp_path):
    path = tmp_path / "o.lf5d"
    tensor.write_lf5d(np.ones((1, 1, 2, 2, 1), dtype=np.float32), path)
    t2 = np.full((1, 1, 1, 1, 2), 3.0, dtype=np.float32)
    tensor.write_lf5d(t2, path)
    assert np.array_equal(tensor.read_lf5d(path), t2)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.lf5d"
    path.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(tensor.BadMagicError):
        tensor.read_lf5d(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.lf5d"
    good = tmp_path / "good.lf5d"
    tensor.write_lf5d(np.zeros((1, 1, 2, 2, 1), dtype=np.float32), good)
    path.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(tensor.TruncatedError):
        tensor.read_lf5d(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "hdr.lf5d"
    path.write_bytes(b"LF5D\x01\x00")
    with pytest.raises(tensor.TruncatedError):
        tensor.read_lf5d(path)


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "nan.lf5d"
    header = struct.pack("<4sH5I", b"LF5D", 1, 1, 1, 1, 1, 1)
    path.write_bytes(header + struct.pack("<f", float("nan")))
    with pytest.raises(tensor.NonFiniteError):
        tensor.read_lf5d(path)
    with pytest.raises(tensor.NonFiniteError):
        tensor.write_lf5d(np.full((1, 1, 1, 1, 1), np.inf), tmp_path / "w.lf5d")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.lf5d"
    good = tmp_path / "g.lf5d"
    tensor.write_lf5d(np.zeros((1, 1, 1, 1, 1), dtype=np.float32), good)
    path.write_bytes(good.read_bytes() + b"xx")
    with pytest.raises(tensor.LF5DError):
        tensor.read_lf5d(path)


def test_index_linearization_bijection():
    dims = (2, 3, 4, 5, 6)
    t = np.arange(np.prod(dims), dtype=np.float32).reshape(dims)
    n_u, n_v, n_s, n_t, n_c = dims
    for idx in np.ndindex(dims):
        u, v, s, tt, c = idx
        offset = ((((u * n_v + v) * n_s + s) * n_t + tt) * n_c) + c
        assert t.ravel()[offset] == t[idx]
        # inverse
        rem, c2 = divmod(offset, n_c)
        rem, t2 = divmod(rem, n_t)
        rem, s2 = divmod(rem, n_s)
        u2, v2 = divmod(rem, n_v)
        assert (u2, v2, s2, t2, c2) == idx


def test_cv_disp_wrappers():
    cv = np.zeros((3, 4, 2), dtype=np.float32)
    assert tensor.cv_to_tensor5(cv).shape == (1, 1, 3, 4, 2)
    d = np.zeros((3, 4), dtype=np.float32)
    assert tensor.disp_to_tensor5(d).shape == (1, 1, 3, 4, 1)
    assert tensor.tensor5_to_disp(tensor.disp_to_tensor5(d)).shape == (3, 4)


@pytest.mark.parametrize("rule, args, message", [
    (tensor.require_count, ("n", 0, 1), "n must be an integer >= 1, got 0"),
    (tensor.require_count, ("n", 2.0, 1), "n must be an integer >= 1, got 2.0"),
    (tensor.require_count, ("n", np.True_, 0), "n must be an integer >= 0, got np.True_"),
    (tensor.require_count, ("n", 1.5, None), "n must be an integer, got 1.5"),
    (tensor.require_real, ("x", float("nan")), "x must be finite, got nan"),
    (tensor.require_real, ("x", "1"), "x must be finite, got '1'"),
    (tensor.require_real, ("x", -0.5, 0), "x must be finite and >= 0, got -0.5"),
    (tensor.require_real, ("x", 0.0, 0, True), "x must be finite and > 0, got 0.0"),
    (tensor.require_real, ("x", False, 0), "x must be finite and >= 0, got False"),
], ids=["count-below", "count-float", "count-numpy-bool", "count-unbounded-float", "real-nan",
        "real-str", "real-below", "real-strict-at-bound", "real-bool"])
def test_knob_rules_reject_with_the_knob_and_bound(rule, args, message):
    with pytest.raises(ValueError) as info:
        rule(*args)
    assert str(info.value) == message


def test_knob_rules_accept_integers_and_finite_reals_at_the_bound():
    tensor.require_count("n", np.int64(1), 1)
    tensor.require_count("n", -(2**70), None)
    tensor.require_real("x", 0, 0)
    tensor.require_real("x", np.float32(1e-30), 0, strict=True)
    tensor.require_real("x", -1e300)


def _saturation_mask(line_reach):
    mu = np.full((3, 3, 1, 1), 0.5)
    series = calib.ExposureSeries(mu=mu, times=np.array([0.1]), bayer=np.zeros((3, 3), int))
    return calib.saturation_mask(series, line_reach=line_reach)


# Library inputs that each module once judged by its own rule: every one of
# them was accepted, or failed inside numpy with a TypeError.
@pytest.mark.parametrize("make, knob", [
    (lambda: cs_dct.OwlqnOptions(lam=0.1, max_iters=True), "max_iters"),
    (lambda: cs_dct.OwlqnOptions(lam=0.1, memory=True), "memory"),
    (lambda: multitask.TrainConfig(epochs=True), "epochs"),
    (lambda: multitask.TrainConfig(lr=True), "lr"),
    (lambda: calib.check_mask_knobs(0.985, 2.5, "row"), "line reach"),
    (lambda: calib.check_mask_knobs(0.985, True, "row"), "line reach"),
    (lambda: _saturation_mask(2.5), "line reach"),
    (lambda: autodiff.ToyNet(dims=(1, 1, 2, 2, 1), hidden=2.5), "hidden"),
    # Integer inputs that were truncated: seed 1.5 trained as seed 1, dims
    # 4.5 rendered as 4, k = True trained as k = 1, a negative scene count
    # gave an empty data set and mask seed 1.5 drew seed 1's mask.
    (lambda: multitask.TrainConfig(seed=1.5), "seed"),
    (lambda: scenegen.SceneSpec(dims=(1, 1, 4.5, 4, 2)), "each dim"),
    (lambda: cs_dict.check_training_knobs(32, True, 0.1, 0.1, 16, 10, 1), "k"),
    (lambda: multitask.make_toy_dataset(-1, (1, 1, 4, 4, 2), 0), "scene count"),
    (lambda: coding.random_mask(4, 4, 3, 1.5), "seed"),
    # Mask dims 4.5 failed inside numpy with a TypeError; True drew a 1-row mask.
    (lambda: coding.random_mask(4.5, 4, 3, 0), "each mask dim"),
    (lambda: coding.random_mask(4, 4, True, 0), "each mask dim"),
], ids=["owlqn-max-iters-bool", "owlqn-memory-bool", "train-epochs-bool", "train-lr-bool",
        "mask-reach-float", "mask-reach-bool", "saturation-mask-reach-float",
        "toynet-hidden-float", "train-seed-float", "scene-dims-float", "dict-k-bool",
        "toy-dataset-negative", "mask-seed-float", "mask-dim-float", "mask-dim-bool"])
def test_library_knobs_pass_the_shared_rules(make, knob):
    with pytest.raises(ValueError, match=f"^{knob} must be "):
        make()
