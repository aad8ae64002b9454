"""The one on-disk container: named arrays plus a JSON header in one file.

Checkpoints, training states and dataset artifacts are all written by
:func:`write_artifact` and read by :func:`read_artifact`; no other module
touches an archive (``docs/operations.md`` § On-disk format has the
layout and the compatibility policy). In short: a zip — a valid
``.npz`` — whose first member is ``meta.json`` (the caller's metadata with
its ``format`` tag, plus the ``array_sha256`` manifest) followed by one
*stored* ``{name}.npy`` per array in caller order, all with a fixed
timestamp, so the same inputs give the same bytes. Stored, not deflated:
embedding tables and Adam moments are high-entropy (deflate saved 7 % of
the bytes for 11× the save time). Older files are the same container with
the header in a ``__checkpoint_meta__`` uint8 member and perhaps no
manifest; that is all the reader knows about them.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.utils.integrity import array_sha256

_META = "meta.json"
_MANIFEST = "array_sha256"
#: header member of older files; only checkpoints wrote it without "format"
_LEGACY_META = "__checkpoint_meta__.npy"
_LEGACY_FORMAT = "checkpoint"
#: fixed zip entry date — wall-clock stamps would break byte determinism
_EPOCH = (1980, 1, 1, 0, 0, 0)
#: everything zipfile, zlib, numpy and json raise on a damaged member — each
#: reached by flipping one byte of a written file (tests/utils/test_artifact)
_MEMBER_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, ValueError,
                  NotImplementedError, RuntimeError, OSError)


class ArtifactError(ValueError):
    """An artifact file is damaged, tampered with, or of the wrong kind."""


def write_artifact(path: str | Path, arrays: dict[str, np.ndarray],
                   meta: dict) -> Path:
    """Atomically write ``arrays`` + ``meta`` (JSON-serializable, with a
    ``format`` tag); returns ``path`` with its suffix forced to ``.npz``.

    The file is built in a temp file beside the destination and moved into
    place with ``os.replace``: a crash — even SIGKILL — mid-save leaves the
    previous file or the complete new one, never a torn one. Arrays are
    streamed member by member, without a whole-array bytes copy.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    if not isinstance(meta.get("format"), str):
        raise ValueError("artifact metadata needs a 'format' tag")
    arrays = {name: np.asarray(value) for name, value in arrays.items()}
    if _LEGACY_META[:-4] in arrays:
        raise ValueError(f"array name {_LEGACY_META[:-4]!r} is reserved")
    header = {**meta, _MANIFEST: {name: array_sha256(array)
                                  for name, array in arrays.items()}}
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh, \
                zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
            archive.writestr(zipfile.ZipInfo(_META, _EPOCH),
                             json.dumps(header, indent=2))
            for name, array in arrays.items():
                with archive.open(zipfile.ZipInfo(name + ".npy", _EPOCH), "w",
                                  force_zip64=True) as member:
                    np.lib.format.write_array(member, array,
                                              allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _open(path: str | Path) -> tuple[Path, zipfile.ZipFile]:
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(".npz")
    try:
        return path, zipfile.ZipFile(path)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, NotImplementedError, OSError) as exc:
        raise ArtifactError(f"{path} is not a readable artifact: {exc} "
                            "(not a zip archive, or truncated)") from None


def _load_npy(fh) -> np.ndarray:
    return np.lib.format.read_array(fh, allow_pickle=False)


def _read_member(path: Path, archive: zipfile.ZipFile, member: str,
                 load=_load_npy):
    try:
        with archive.open(member) as fh:
            value = load(fh)
            if fh.read(1):  # also drives the member's CRC check to EOF
                raise ValueError("bytes after the end of the payload")
        return value
    except _MEMBER_ERRORS as exc:
        raise ArtifactError(f"{path}: member {member!r} is unreadable "
                            f"({exc})") from None


def _read_header(path: Path, archive: zipfile.ZipFile) -> tuple[dict, dict | None]:
    """``(meta, manifest)`` — the manifest split off, ``None`` if absent."""
    names = archive.namelist()
    if _META in names:
        meta = _read_member(path, archive, _META, json.load)
    elif _LEGACY_META in names:
        meta = _read_member(path, archive, _LEGACY_META,
                            lambda fh: json.loads(bytes(_load_npy(fh))))
        if isinstance(meta, dict):
            meta.setdefault("format", _LEGACY_FORMAT)
    else:
        raise ArtifactError(f"{path} is not a repro artifact (no {_META} "
                            "member)")
    if not (isinstance(meta, dict)
            and isinstance(meta.get(_MANIFEST, {}), dict)):
        raise ArtifactError(f"{path}: {_META} (or its {_MANIFEST!r} "
                            "manifest) is not a JSON object")
    return meta, meta.pop(_MANIFEST, None)


def read_meta(path: str | Path) -> dict:
    """Only the metadata of an artifact — no array is read."""
    path, archive = _open(path)
    with archive:
        return _read_header(path, archive)[0]


def read_artifact(path: str | Path,
                  verify: bool = True) -> tuple[dict[str, np.ndarray], dict]:
    """Read an artifact → ``(arrays, meta)``; raises :class:`ArtifactError`.

    The members must be exactly the arrays the manifest lists, and (unless
    ``verify=False``, for deliberately patched files) every array must
    match its fingerprint. The manifest is checked here and not handed
    back; an older file without one has nothing to verify.
    """
    path, archive = _open(path)
    with archive:
        meta, manifest = _read_header(path, archive)
        arrays: dict[str, np.ndarray] = {}
        for member in archive.namelist():
            if member not in (_META, _LEGACY_META):
                arrays[member[:-4]] = _read_member(path, archive, member)
    if manifest is None:
        return arrays, meta
    if set(manifest) != set(arrays):
        raise ArtifactError(
            f"{path}: members and manifest disagree — listed but missing: "
            f"{sorted(set(manifest) - set(arrays))}, present but unlisted: "
            f"{sorted(set(arrays) - set(manifest))}")
    if verify:
        for name, array in arrays.items():
            if array_sha256(array) != manifest[name]:
                raise ArtifactError(
                    f"{path}: member '{name}.npy' failed verification "
                    "(content hash mismatch — the file was corrupted or "
                    "modified after it was written)")
    return arrays, meta
