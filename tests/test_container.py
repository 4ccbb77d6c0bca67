import dataclasses
import json

import numpy as np
import pytest

from reachgen import dataset as ds
from reachgen import model as md
from reachgen import rollout as ro
from reachgen.body import desk_skeleton, rest_pose
from reachgen.cli import PRESETS
from reachgen.container import PREFIX_BYTES, read_container, write_container
from reachgen.errors import CorruptFileError, VersionMismatchError
from reachgen.intention import GoalSpec


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small .mot and .ckpt, each with the loader that reads it."""
    skel = desk_skeleton()
    model = md.fresh_model(skel, latent_dim=4, hidden_dim=8, n_layers=2, seed=1)
    goal = GoalSpec(np.array([0.5, 0.5, 1.0]), 5)
    rec = ro.generate(rest_pose(skel), ro.GoalSchedule.single(goal), 3, model,
                      np.random.default_rng(0))
    d = tmp_path_factory.mktemp("files")
    ds.save_motion(rec.sequence, d / "m.mot")
    md.save_checkpoint(model, d / "m.ckpt")
    return d, {"m.mot": lambda p: ds.load_motion(p, skel),
               "m.ckpt": md.load_checkpoint}


@pytest.mark.parametrize("name", ["m.mot", "m.ckpt"])
def test_every_truncation_is_corrupt(files, name):
    d, loaders = files
    raw = (d / name).read_bytes()
    loaders[name](d / name)
    header_end = PREFIX_BYTES + int.from_bytes(raw[6:PREFIX_BYTES], "little")
    cut = d / f"cut_{name}"
    for n in [*range(header_end + 1), (header_end + len(raw)) // 2, len(raw) - 1]:
        cut.write_bytes(raw[:n])
        with pytest.raises(CorruptFileError):
            loaders[name](cut)


def craft(path, header, payload=b"", version=1):
    blob = json.dumps(header).encode()
    path.write_bytes(b"TEST" + version.to_bytes(2, "little")
                     + len(blob).to_bytes(8, "little") + blob + payload)


def test_roundtrip_keeps_dtypes_and_bits(tmp_path):
    # the container holds float64 arrays only; the reader's rejection of
    # any other dtype is a case of test_reader_rejects_bad_structure
    arrays = {"f": np.array([[0.1, -np.inf], [np.nan, 5e-324]]),
              "empty": np.zeros((0, 3))}
    write_container(tmp_path / "a", b"TEST", 1, {"k": [1, "x"]}, arrays)
    header, back = read_container(tmp_path / "a", b"TEST", 1)
    assert header == {"k": [1, "x"]} and list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype
        assert back[name].tobytes() == arr.tobytes()
    with pytest.raises(VersionMismatchError):
        read_container(tmp_path / "a", b"TEST", 2)
    for other in (np.array([None]), np.array([2**64 - 1], dtype=np.uint64),
                  np.array([-1], dtype=np.int64)):
        with pytest.raises(ValueError):
            write_container(tmp_path / "b", b"TEST", 1, {}, {"o": other})
        assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("header,payload", [
    ([], b""),
    ({"arrays": None}, b""),
    ({"arrays": [{"name": "a", "dtype": "|O", "shape": [1]}]}, b"\0" * 8),
    ({"arrays": [{"name": "a", "dtype": "<f8", "shape": [-1]}]}, b""),
    ({"arrays": [{"name": "a", "dtype": "<f8", "shape": [1]}] * 2}, b"\0" * 16),
    ({"arrays": [{"name": "a", "dtype": "<f8", "shape": [1]}]}, b"\0" * 9),
    ({"arrays": [{"name": "a", "dtype": "<u8", "shape": [1]}]}, b"\0" * 8),
])
def test_reader_rejects_bad_structure(tmp_path, header, payload):
    craft(tmp_path / "bad", header, payload)
    with pytest.raises(CorruptFileError):
        read_container(tmp_path / "bad", b"TEST", 1)


def raw_header(path) -> dict:
    """The JSON header exactly as a file holds it, `arrays` manifest included."""
    raw = path.read_bytes()
    return json.loads(raw[PREFIX_BYTES:PREFIX_BYTES
                          + int.from_bytes(raw[6:PREFIX_BYTES], "little")])


def test_file_contracts(tmp_path, files):
    """A .mot v3 header holds no frame rate and its label no joint; a .ckpt
    v5 header holds no skeleton hash, and its model settings are a preset's
    model section, not the spec built from them. A file written at the
    version before is not read."""
    d, loaders = files
    seq = ds.load_motion(d / "m.mot", desk_skeleton())
    seq = dataclasses.replace(seq, label=GoalSpec(np.array([0.5, 0.5, 1.0]), 2))
    ds.save_motion(seq, tmp_path / "l.mot")
    header = raw_header(tmp_path / "l.mot")
    assert set(header) == {"arrays", "ident", "label", "provenance", "skeleton_hash"}
    assert set(header["label"]) == {"position", "target_frame"}
    header = raw_header(d / "m.ckpt")
    assert set(header) == {"arrays", "meta", "model", "skeleton_text"}
    assert set(header["model"]) == set(PRESETS["desk"]["model"])
    for path, magic, version, load in (
            (tmp_path / "l.mot", ds.MOTION_MAGIC, 3, loaders["m.mot"]),
            (d / "m.ckpt", md.CHECKPOINT_MAGIC, 5, loaders["m.ckpt"])):
        old = tmp_path / f"old{path.suffix}"
        write_container(old, magic, version - 1, *read_container(path, magic, version))
        with pytest.raises(VersionMismatchError,
                           match=f"format version {version - 1}, expected {version}"):
            load(old)
