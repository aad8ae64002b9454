"""Corruption and compatibility of the one on-disk container.

Every kind of file the project persists — checkpoint, a checkpoint that
carries its model's propagation, training state, the training state of a
build that stored tables as row blocks, dataset artifact — goes through
:mod:`repro.utils.artifact`, so every way a file can be wrong has one
outcome: :class:`ArtifactError` naming the file, never a partial load and
never zipfile's / numpy's own exception. Files
written before the container existed (``np.savez_compressed`` +
``__checkpoint_meta__``, manifest-less dataset zips) load through the
same reader, and row blocks are merged back into one table as they do.
"""

import functools
import io
import json
import struct
import zipfile

import numpy as np
import pytest
from helpers.shards import split_state

from repro.data import load_dataset_npz, save_dataset_npz, taobao_like
from repro.nn import MLP, Module, Parameter
from repro.train.resume import load_training_state, save_training_state
from repro.utils import (
    array_sha256,
    load_checkpoint,
    peek_checkpoint,
    save_checkpoint,
)
from repro.utils import artifact as artifact_module
from repro.utils.artifact import (
    ArtifactError,
    read_artifact,
    read_meta,
    write_artifact,
)

LEGACY_META = "__checkpoint_meta__"


# ----------------------------------------------------------------------
# The four kinds: write(path, seed) -> path, load(path) -> {name: array}
# ----------------------------------------------------------------------

def _model(seed):
    return MLP([4, 6, 2], rng=np.random.default_rng(seed))


def _write_checkpoint(path, seed=0):
    return save_checkpoint(_model(seed), path, metadata={"epoch": 3})


def _load_checkpoint(path):
    model = _model(99)
    load_checkpoint(model, path)
    return model.state_dict()


@functools.cache
def _gnmr_data():
    return taobao_like(num_users=6, num_items=8, seed=0)


def _gnmr(seed):
    from repro.core import GNMR, GNMRConfig

    return GNMR(_gnmr_data(), GNMRConfig(
        embedding_dim=4, memory_dims=2, num_heads=2, num_layers=1,
        pretrain=False, seed=seed))


def _write_gnmr_checkpoint(path, seed=0):
    return save_checkpoint(_gnmr(seed), path, metadata={"epoch": 3})


def _load_gnmr_checkpoint(path):
    """The loaded parameters and the tables the model then serves."""
    model = _gnmr(99)
    load_checkpoint(model, path)
    user, item = model.serving_embeddings()
    return {**model.state_dict(), "serving::user": user, "serving::item": item}


EMB_ROWS = 7  # three blocks of it are uneven: 3, 2, 2


def _train_state_parts(seed):
    rng = np.random.default_rng(seed)
    model_state = {"emb": rng.standard_normal((EMB_ROWS, 3)),
                   "bias": rng.standard_normal(EMB_ROWS),
                   "dense.weight": rng.standard_normal((3, 3))}
    optimizer_states = {
        name: {"m": rng.standard_normal(value.shape),
               "v": rng.standard_normal(value.shape) ** 2,
               "row_steps": rng.integers(0, 9, size=value.shape[0]),
               "param_t": 9}
        for name, value in model_state.items() if name != "dense.weight"}
    meta = {"epoch": 1, "step_in_epoch": 2, "global_step": 6, "config": {}}
    return model_state, optimizer_states, meta


def _write_train_state(path, seed=0):
    return save_training_state(path, *_train_state_parts(seed))


def _sharded_parts(seed, count=3, strategy="hash"):
    """The same state as an earlier build stored it: ``emb`` and ``bias``
    (and their Adam slots) as ``count`` row blocks each."""
    model_state, optimizer_states, meta = _train_state_parts(seed)
    model_state, optimizer_states = split_state(
        model_state, optimizer_states, ("emb", "bias"), count, strategy)
    return model_state, optimizer_states, dict(
        meta, shards=count, shard_strategy=strategy)


def _write_sharded(path, seed=0):
    return save_training_state(path, *_sharded_parts(seed))


def _load_train_state(path):
    state = load_training_state(path)
    arrays = dict(state.model_state)
    for name, slots in state.optimizer_states.items():
        arrays.update({f"{name}::{slot}": value
                       for slot, value in slots.items()
                       if isinstance(value, np.ndarray)})
    return arrays


def _write_dataset(path, seed=0):
    return save_dataset_npz(
        taobao_like(num_users=12, num_items=20, seed=seed), path)


def _load_dataset(path):
    dataset, _ = load_dataset_npz(path)
    return {f"{behavior}/{label}": column
            for behavior in dataset.behavior_names
            for label, column in zip(("users", "items", "timestamps"),
                                     dataset.arrays(behavior))}


KINDS = {
    "checkpoint": (_write_checkpoint, _load_checkpoint),
    "gnmr-checkpoint": (_write_gnmr_checkpoint, _load_gnmr_checkpoint),
    "train-state": (_write_train_state, _load_train_state),
    "sharded-train-state": (_write_sharded, _load_train_state),
    "dataset": (_write_dataset, _load_dataset),
}


@pytest.fixture(params=list(KINDS))
def kind(request, tmp_path):
    """``(path of a freshly written artifact, its writer, its loader)``."""
    write, load = KINDS[request.param]
    return write(tmp_path / "artifact.npz"), write, load


# ----------------------------------------------------------------------
# Ways to damage a file
# ----------------------------------------------------------------------

def _payload_span(path, member):
    """``(start, size)`` of a stored member's payload inside the file."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    raw = path.read_bytes()
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    return info.header_offset + 30 + name_len + extra_len, info.file_size


def _first_array_member(path):
    with zipfile.ZipFile(path) as archive:
        return next(n for n in archive.namelist() if n.endswith(".npy"))


def _flip_byte(path, member):
    start, size = _payload_span(path, member)
    raw = bytearray(path.read_bytes())
    raw[start + size // 2] ^= 0x40
    path.write_bytes(bytes(raw))


def _rezip(path, edit):
    """Rewrite the zip after ``edit(members)`` changed the ``name → bytes``
    mapping — a *well-formed* zip (fresh CRCs), unlike a byte flip."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    edit(members)
    with zipfile.ZipFile(path, "w") as archive:
        for name, payload in members.items():
            archive.writestr(name, payload)


def _npy(array, allow_pickle=False):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


def _edit_meta(**changes):
    def edit(members):
        meta = json.loads(members["meta.json"])
        for key, value in changes.items():
            if value is None:
                meta.pop(key)
            else:
                meta[key] = value
        members["meta.json"] = json.dumps(meta).encode()
    return edit


def _remove_member(path):
    _rezip(path, lambda members: members.pop(_first_array_member(path)))


def _edit_array_keep_manifest(path):
    def edit(members):
        name = _first_array_member(path)
        array = np.lib.format.read_array(io.BytesIO(members[name])).copy()
        array.flat[0] += 1
        members[name] = _npy(array)
    _rezip(path, edit)


def _object_member(path):
    def edit(members):
        members[_first_array_member(path)] = _npy(
            np.array([{"pickled": True}], dtype=object), allow_pickle=True)
    _rezip(path, edit)


HOSTILE = {
    "not-a-zip": lambda path: path.write_bytes(bytes(range(256)) + b"\0" * 44),
    "empty": lambda path: path.write_bytes(b""),
    "truncated-in-header": lambda path: path.write_bytes(path.read_bytes()[:20]),
    "truncated-mid-member": lambda path: path.write_bytes(
        path.read_bytes()[:path.stat().st_size // 2]),
    "truncated-in-central-directory": lambda path: path.write_bytes(
        path.read_bytes()[:-40]),
    "byte-flipped-in-array": lambda path: _flip_byte(
        path, _first_array_member(path)),
    "byte-flipped-in-meta": lambda path: _flip_byte(path, "meta.json"),
    "member-removed": _remove_member,
    "member-unlisted": lambda path: _rezip(
        path, lambda members: members.update({"extra.npy": _npy(np.ones(2))})),
    "member-not-npy": lambda path: _rezip(
        path, lambda members: members.update({"notes.txt": b"hello"})),
    "array-edited-stale-manifest": _edit_array_keep_manifest,
    "bytes-after-the-array": lambda path: _rezip(
        path, lambda members: members.update(
            {_first_array_member(path):
             members[_first_array_member(path)] + b"tail"})),
    "object-dtype-member": _object_member,
    "meta-not-an-object": lambda path: _rezip(
        path, lambda members: members.update({"meta.json": b"[1, 2]"})),
    "meta-not-json": lambda path: _rezip(
        path, lambda members: members.update({"meta.json": b"{oops"})),
    "manifest-not-an-object": lambda path: _rezip(
        path, _edit_meta(array_sha256=["a"])),
    "format-tag-wrong": lambda path: _rezip(
        path, _edit_meta(format="somebody-elses-format")),
    "format-tag-absent": lambda path: _rezip(path, _edit_meta(format=None)),
    "no-meta-member": lambda path: _rezip(
        path, lambda members: members.pop("meta.json")),
}


#: ``edit(model_state, optimizer_states, meta)`` of a 3-block hash state →
#: what the refusal says. Such a file hashes clean; only merging it exactly
#: is impossible.
UNMERGEABLE = {
    "strategy-unrecorded": (
        lambda model, optim, meta: meta.pop("shard_strategy"),
        "shard_strategy is None"),
    "strategy-unknown": (
        lambda model, optim, meta: meta.update(shard_strategy="modulo"),
        "shard_strategy is 'modulo'"),
    "row-slot-on-some-blocks": (
        lambda model, optim, meta: optim["emb.shards.1"].pop("row_steps"),
        "'emb'.*slot 'row_steps' is on some blocks only"),
    "optimizer-entry-on-some-blocks": (
        lambda model, optim, meta: optim.pop("bias.shards.2"),
        "'bias'.*slot 'm' is on some blocks only"),
    "param-t-differs": (
        lambda model, optim, meta: optim["emb.shards.2"].update(param_t=8),
        r"'emb'.*slot 'param_t' differs by block: \[9, 9, 8\]"),
    "indices-not-dense": (
        lambda model, optim, meta: model.update(
            {"emb.shards.4": model.pop("emb.shards.2")}),
        r"'emb'.*block indices \[0, 1, 4\] are not dense"),
    "block-sizes-do-not-fit": (
        lambda model, optim, meta: model.update(
            {"emb.shards.1": model["emb.shards.1"][:-1]}),
        r"'emb'.*weight blocks .* are not 6 rows split \[2, 2, 2\]"),
    "slot-sizes-do-not-fit-the-table": (
        lambda model, optim, meta: optim["bias.shards.0"].update(
            m=optim["bias.shards.0"]["m"][:-1]),
        r"'bias'.*slot 'm' blocks .* are not 7 rows split \[3, 2, 2\]"),
    "row-shapes-differ": (
        lambda model, optim, meta: model.update(
            {"emb.shards.1": model["emb.shards.1"][:, :2]}),
        "'emb'.*weight blocks"),
}


class TestHostileFiles:
    @pytest.mark.parametrize("case", list(UNMERGEABLE))
    def test_unmergeable_row_blocks_are_refused(self, tmp_path, case):
        edit, message = UNMERGEABLE[case]
        model_state, optimizer_states, meta = _sharded_parts(0)
        edit(model_state, optimizer_states, meta)
        path = save_training_state(tmp_path / "artifact.npz", model_state,
                                   optimizer_states, meta)
        with pytest.raises(ArtifactError, match=f"artifact.npz.*{message}"):
            load_training_state(path)

    @pytest.mark.parametrize("case", list(HOSTILE))
    def test_one_defined_failure(self, kind, case):
        path, _, load = kind
        HOSTILE[case](path)
        with pytest.raises(ArtifactError, match="artifact.npz"):
            load(path)

    @pytest.mark.parametrize("case", ["byte-flipped-in-array",
                                      "member-removed", "object-dtype-member"])
    def test_error_names_the_member(self, kind, case):
        path, _, load = kind
        member = _first_array_member(path)
        HOSTILE[case](path)
        with pytest.raises(ArtifactError) as excinfo:
            load(path)
        assert member[:-4] in str(excinfo.value)

    @pytest.mark.parametrize("write", [_write_checkpoint,
                                       _write_gnmr_checkpoint])
    def test_truncation_at_every_offset(self, tmp_path, write):
        path = write(tmp_path / "artifact.npz")
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ArtifactError):
                read_artifact(path)
            with pytest.raises(ArtifactError):
                read_meta(path)

    def test_any_flipped_byte_fails_or_changes_nothing(self, tmp_path):
        """zipfile, zlib, numpy and json raise six different exception
        types on a damaged member; the reader folds all of them."""
        arrays = {"a.b": np.arange(21, dtype=np.float32).reshape(7, 3),
                  "c": np.arange(11)}
        meta = {"format": "fuzz", "k": [1, 2]}
        path = write_artifact(tmp_path / "artifact.npz", arrays, meta)
        raw = path.read_bytes()
        outcomes = {"refused": 0, "intact": 0}
        for offset in range(len(raw)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(raw)
                damaged[offset] ^= mask
                path.write_bytes(bytes(damaged))
                try:
                    got, got_meta = read_artifact(path)
                except ArtifactError:
                    outcomes["refused"] += 1
                    continue
                # a flip in a field nothing reads (zip timestamps, mode bits)
                assert got_meta == meta and list(got) == list(arrays)
                for name, value in arrays.items():
                    np.testing.assert_array_equal(got[name], value)
                outcomes["intact"] += 1
        assert outcomes["refused"] > outcomes["intact"] > 0

    @pytest.mark.parametrize("write, build", [(_write_checkpoint, _model),
                                              (_write_gnmr_checkpoint, _gnmr)])
    def test_failed_load_leaves_the_model_untouched(self, tmp_path, write,
                                                    build):
        path = write(tmp_path / "artifact.npz")
        _edit_array_keep_manifest(path)
        model = build(5)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        served = getattr(model, "serving_embeddings", lambda: None)()
        version = getattr(getattr(model, "engine", None), "version", None)
        with pytest.raises(ArtifactError, match="hash mismatch"):
            load_checkpoint(model, path)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
        # nor the propagation it had cached from those parameters
        if served is not None:
            assert model.engine.version == version
            assert model.serving_embeddings() is served
        # the deliberate-patch escape hatch skips the hashes, nothing else
        load_checkpoint(model, path, verify=False)
        _remove_member(path)
        with pytest.raises(ArtifactError, match="listed but missing"):
            load_checkpoint(model, path, verify=False)

    def test_flipped_propagation_member_is_refused_by_name(self, tmp_path):
        path = _write_gnmr_checkpoint(tmp_path / "artifact.npz")
        raw = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            members = [name for name in archive.namelist()
                       if name.startswith("propagation::")]
        assert len(members) == 2
        for member in members:
            path.write_bytes(raw)
            _flip_byte(path, member)
            with pytest.raises(ArtifactError, match=member[:-4]):
                _load_gnmr_checkpoint(path)

    def test_loader_refuses_the_other_kinds(self, tmp_path):
        paths = {name: write(tmp_path / f"{name}.npz")
                 for name, (write, _) in KINDS.items()}
        for name, path in paths.items():
            for other, (_, load) in KINDS.items():
                if read_meta(paths[other])["format"] == read_meta(path)["format"]:
                    continue
                with pytest.raises(ArtifactError, match="format="):
                    load(path)
        with pytest.raises(ArtifactError, match="not a model checkpoint"):
            peek_checkpoint(paths["dataset"])

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_artifact(tmp_path / "absent.npz")


class TestContainer:
    def test_roundtrip_through_the_kind_loader(self, kind):
        path, write, load = kind
        again = write(path.with_name("again.npz"))
        for (name, got), (_, want) in zip(load(path).items(),
                                          load(again).items()):
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_same_inputs_identical_bytes(self, kind):
        path, write, _ = kind
        assert write(path.with_name("again.npz")).read_bytes() == \
            path.read_bytes()

    def test_plain_np_load_reads_every_array(self, kind):
        path, _, _ = kind
        arrays, _ = read_artifact(path)
        with np.load(path) as archive:
            for name, value in arrays.items():
                np.testing.assert_array_equal(archive[name], value)

    def test_meta_first_members_in_caller_order_stored(self, tmp_path):
        arrays = {"z": np.zeros(3), "a.b": np.ones((2, 2)), "m::n": np.arange(4)}
        path = write_artifact(tmp_path / "order", arrays, {"format": "t", "x": 1})
        assert path.name == "order.npz"  # suffix forced, like np.savez
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert [i.filename for i in infos] == ["meta.json", "z.npy", "a.b.npy",
                                               "m::n.npy"]
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
        assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}
        got, meta = read_artifact(tmp_path / "order")  # suffix optional
        assert list(got) == list(arrays) and meta == {"format": "t", "x": 1}

    def test_manifest_is_written_verified_and_not_handed_back(self, kind):
        path, _, _ = kind
        arrays, meta = read_artifact(path)
        assert "array_sha256" not in meta and "array_sha256" not in read_meta(path)
        with zipfile.ZipFile(path) as archive:
            manifest = json.loads(archive.read("meta.json"))["array_sha256"]
        assert manifest == {name: array_sha256(value)
                            for name, value in arrays.items()}

    def test_writer_refuses_what_the_reader_could_not_read_back(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_artifact(tmp_path / "x.npz", {"a": np.zeros(1)}, {})
        with pytest.raises(ValueError, match="reserved"):
            write_artifact(tmp_path / "x.npz", {LEGACY_META: np.zeros(1)},
                           {"format": "t"})
        with pytest.raises(ValueError, match="[Oo]bject"):
            write_artifact(tmp_path / "x.npz",
                           {"a": np.array([{}], dtype=object)}, {"format": "t"})
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    @staticmethod
    def _fail_mid_member(monkeypatch):
        real = np.lib.format.write_array
        calls = []

        def write_then_die(fh, array, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                fh.write(b"half a member")
                raise OSError("disk full")
            real(fh, array, **kwargs)
        monkeypatch.setattr(artifact_module.np.lib.format, "write_array",
                            write_then_die)

    @staticmethod
    def _fail_before_replace(monkeypatch):
        def die(src, dst):
            raise KeyboardInterrupt
        monkeypatch.setattr(artifact_module.os, "replace", die)

    @pytest.mark.parametrize("fail", ["_fail_mid_member",
                                      "_fail_before_replace"])
    def test_failed_write_keeps_the_previous_file(self, kind, fail,
                                                  monkeypatch):
        path, write, load = kind
        before = path.read_bytes()
        getattr(self, fail)(monkeypatch)
        with pytest.raises((OSError, KeyboardInterrupt)):
            write(path, seed=1)  # different content, same destination
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not list(path.parent.glob("*.tmp"))
        load(path)


# ----------------------------------------------------------------------
# Files written before the container existed
# ----------------------------------------------------------------------

def _legacy_npz(path, arrays, meta, hashes):
    """What the checkpoint / training-state writers used to produce."""
    meta = dict(meta)
    if hashes:
        meta["array_sha256"] = {name: array_sha256(value)
                                for name, value in arrays.items()}
    payload = dict(arrays)
    payload[LEGACY_META] = np.frombuffer(json.dumps(meta).encode(),
                                         dtype=np.uint8)
    np.savez_compressed(path, **payload)
    return path


class TestLegacyFiles:
    @pytest.mark.parametrize("hashes", [True, False])
    def test_legacy_checkpoint_loads(self, tmp_path, hashes):
        source = _model(0)
        path = _legacy_npz(tmp_path / "old.npz", source.state_dict(),
                           {"epoch": 7, "num_parameters": 44}, hashes)
        clone = _model(1)
        meta = load_checkpoint(clone, path)
        assert meta == {"epoch": 7, "num_parameters": 44,
                        "format": "checkpoint"}
        assert peek_checkpoint(path) == meta
        for name, value in source.state_dict().items():
            np.testing.assert_array_equal(clone.state_dict()[name], value)

    def test_legacy_checkpoint_hashes_are_verified(self, tmp_path):
        state = _model(0).state_dict()
        path = _legacy_npz(tmp_path / "old.npz", state, {}, hashes=True)
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        name = next(iter(state))
        payload[name] = payload[name] + 1.0
        np.savez_compressed(path, **payload)
        with pytest.raises(ArtifactError, match=f"{name}.npy.*hash mismatch"):
            load_checkpoint(_model(1), path)
        load_checkpoint(_model(1), path, verify=False)

    @pytest.mark.parametrize("count,strategy", [(2, "range"), (3, "hash"),
                                                (1, None)])
    def test_legacy_checkpoint_of_row_blocks_merges(self, tmp_path, count,
                                                    strategy):
        class Tables(Module):
            def __init__(self):
                super().__init__()
                self.emb = Parameter(np.zeros((EMB_ROWS, 3)))
                self.bias = Parameter(np.zeros(EMB_ROWS))

        whole = {"emb": np.random.default_rng(0).standard_normal((EMB_ROWS, 3)),
                 "bias": np.arange(float(EMB_ROWS))}
        blocks, _ = split_state(whole, {}, whole, count, strategy)
        assert len(blocks) == 2 * count
        layout = {"shards": count}
        path = _legacy_npz(tmp_path / "old.npz", blocks, layout, True)
        model = Tables()
        if count > 1:
            # written before the layout was recorded: range and hash blocks
            # have the same sizes, so nothing in the file says which
            with pytest.raises(ArtifactError, match="shard_strategy is None"):
                load_checkpoint(model, path)
            layout["shard_strategy"] = strategy
            path = _legacy_npz(tmp_path / "old.npz", blocks, layout, True)
        assert load_checkpoint(model, path) == {"format": "checkpoint"}
        for name, value in whole.items():
            np.testing.assert_array_equal(model.state_dict()[name], value)

    @pytest.mark.parametrize("count,strategy", [(2, "range"), (3, "hash"),
                                                (7, "hash"), (1, "range")])
    def test_row_blocks_merge_to_the_state_they_were_cut_from(
            self, tmp_path, count, strategy):
        model_state, optimizer_states, meta = _train_state_parts(0)
        path = save_training_state(tmp_path / "blocks.npz",
                                   *_sharded_parts(0, count, strategy))
        state = load_training_state(path)
        assert list(state.model_state) == ["dense.weight", "emb", "bias"]
        for name, value in model_state.items():
            np.testing.assert_array_equal(state.model_state[name], value)
        assert sorted(state.optimizer_states) == sorted(optimizer_states)
        for name, slots in optimizer_states.items():
            assert sorted(state.optimizer_states[name]) == sorted(slots)
            for slot, value in slots.items():
                np.testing.assert_array_equal(
                    state.optimizer_states[name][slot], value)
        assert {key: state.meta[key] for key in meta} == meta
        assert not {"shards", "shard_strategy"} & set(state.meta)

    @staticmethod
    def _v1_train_state(path, with_row_t):
        model_state, optimizer_states, meta = _train_state_parts(0)
        arrays = {f"model::{k}": v for k, v in model_state.items()}
        scalars = {}
        for name, slots in optimizer_states.items():
            arrays.update({f"optim::{name}::{slot}": slots[slot]
                           for slot in ("m", "v", "row_steps")})
            scalars[name] = {"param_t": 9, "saw_dense": False, "hist_base": 0}
            if with_row_t:
                arrays[f"optim::{name}::row_t"] = np.full(EMB_ROWS, 9)
                arrays[f"optim::{name}::lr_hist"] = np.ones((1, 2))
        meta = dict(meta, format="train-state", state_version=1,
                    optim_scalars=scalars)
        return _legacy_npz(path, arrays, meta, hashes=True)

    def test_v1_train_state_without_row_t_loads(self, tmp_path):
        path = self._v1_train_state(tmp_path / "v1.npz", with_row_t=False)
        state = load_training_state(path)
        model_state, optimizer_states, _ = _train_state_parts(0)
        for name, value in model_state.items():
            np.testing.assert_array_equal(state.model_state[name], value)
        for name, slots in optimizer_states.items():
            assert set(state.optimizer_states[name]) == set(slots)
            assert state.optimizer_states[name]["param_t"] == 9

    def test_v1_train_state_with_row_t_is_refused_by_name(self, tmp_path):
        path = self._v1_train_state(tmp_path / "v1.npz", with_row_t=True)
        with pytest.raises(ArtifactError, match=r"row_t.*'emb'"):
            load_training_state(path)

    def test_dataset_v1_without_manifest_loads(self, tmp_path):
        dataset = taobao_like(num_users=12, num_items=20, seed=0)
        meta = {"format": "repro-dataset-npz-v1", "name": dataset.name,
                "behavior_names": list(dataset.behavior_names),
                "target_behavior": dataset.target_behavior,
                "num_users": dataset.num_users, "num_items": dataset.num_items,
                "has_timestamps": True}
        path = tmp_path / "v1.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
            archive.writestr("meta.json",
                             json.dumps(meta, indent=2, sort_keys=True))
            for index, behavior in enumerate(dataset.behavior_names):
                for label, column in zip(("users", "items", "timestamps"),
                                         dataset.arrays(behavior)):
                    archive.writestr(f"b{index}_{label}.npy", _npy(column))
        loaded, got_meta = load_dataset_npz(path)
        assert got_meta == meta
        for behavior in dataset.behavior_names:
            for got, want in zip(loaded.arrays(behavior),
                                 dataset.arrays(behavior)):
                np.testing.assert_array_equal(got, want)
