"""Checkpoint on-disk format: atomic files, SHA-256 manifest, fail-closed
loading.

A checkpoint is a directory::

    <dir>/state.json      # all JSON-serializable platform state
    <dir>/memory.bin      # physical pages + block-device image (binary)
    <dir>/manifest.json   # written LAST: version + per-file SHA-256

Every file is written atomically (temp file + ``os.replace``), and the
manifest lands only after both payload files are durably in place — a
kill at any point leaves either a complete checkpoint or one that fails
manifest verification. Loading verifies every digest before a single
byte of state is applied, so a truncated or bit-flipped checkpoint
raises :class:`~repro.errors.CheckpointError` instead of producing a
wrong-answer resume.
"""

import hashlib
import json
import os
import tempfile

from repro.errors import CheckpointError

#: bump when the serialized state layout changes incompatibly
CHECKPOINT_VERSION = 5

STATE_FILE = "state.json"
MEMORY_FILE = "memory.bin"
MANIFEST_FILE = "manifest.json"


def atomic_write_bytes(path, data):
    """Write *data* to *path* via a temp file + ``os.replace``.

    The rename is atomic on POSIX, so concurrent readers (and any resume
    after a kill) see either the previous complete file or the new
    complete file — never a truncated intermediate.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path, obj):
    atomic_write_bytes(
        path, (json.dumps(obj, sort_keys=True, indent=1) + "\n")
        .encode("utf-8"))


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def write_checkpoint_dir(directory, state_bytes, memory_bytes,
                         golden_snapshot):
    """Materialize a checkpoint directory; the manifest is written last.

    *golden_snapshot* (the registry's golden snapshot at save time) rides in
    the manifest so a restore can prove the re-assembled platform
    reports bit-identical golden statistics before handing it back.
    """
    os.makedirs(directory, exist_ok=True)
    atomic_write_bytes(os.path.join(directory, STATE_FILE), state_bytes)
    atomic_write_bytes(os.path.join(directory, MEMORY_FILE), memory_bytes)
    manifest = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "files": {
            STATE_FILE: sha256_hex(state_bytes),
            MEMORY_FILE: sha256_hex(memory_bytes),
        },
        "golden": golden_snapshot,
    }
    atomic_write_json(os.path.join(directory, MANIFEST_FILE), manifest)
    return manifest


def _read_file(directory, name):
    path = os.path.join(directory, name)
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint file missing or unreadable: {path}: {exc}") \
            from exc


def load_checkpoint_dir(directory):
    """Read and digest-verify a checkpoint directory.

    Returns ``(state_dict, memory_bytes, manifest)``. Raises
    :class:`CheckpointError` on any missing file, digest mismatch,
    malformed JSON, JSON of the wrong shape or unknown version — before
    any state is applied.
    """
    raw_manifest = _read_file(directory, MANIFEST_FILE)
    try:
        manifest = json.loads(raw_manifest)
    except ValueError as exc:
        raise CheckpointError(
            f"corrupt checkpoint manifest in {directory}: {exc}") from exc
    if not isinstance(manifest, dict) \
            or not isinstance(manifest.get("golden"), dict):
        raise CheckpointError(
            f"checkpoint manifest in {directory} is not an object with a "
            f"golden snapshot")
    version = manifest.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} in {directory} "
            f"(this build reads version {CHECKPOINT_VERSION})")
    files = manifest.get("files")
    if not isinstance(files, dict) \
            or set(files) != {STATE_FILE, MEMORY_FILE}:
        raise CheckpointError(
            f"checkpoint manifest in {directory} lists unexpected files: "
            f"{sorted(files) if isinstance(files, dict) else files!r}")
    payloads = {}
    for name, expected in files.items():
        data = _read_file(directory, name)
        actual = sha256_hex(data)
        if actual != expected:
            raise CheckpointError(
                f"checkpoint digest mismatch for {name} in {directory}: "
                f"manifest says {expected}, file hashes to {actual} "
                f"(truncated or corrupted checkpoint)")
        payloads[name] = data
    try:
        state = json.loads(payloads[STATE_FILE])
    except ValueError as exc:
        raise CheckpointError(
            f"corrupt checkpoint state in {directory}: {exc}") from exc
    if not isinstance(state, dict) or not {"config", "platform"} <= set(state):
        raise CheckpointError(
            f"checkpoint state in {directory} is not an object with config "
            f"and platform sections")
    return state, payloads[MEMORY_FILE], manifest
