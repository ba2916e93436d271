"""Checkpoint framing around the component state protocol.

The serializer follows the gem5 checkpoint philosophy: the platform is
**rebuilt from configuration** in the restoring process, then every
component overwrites its own mutable state from the snapshot
(:class:`repro.state.Stateful`; ``MobilePlatform.COMPONENTS`` is the
walk). This module knows no component's fields. It owns the two payload
framings — ``state.json`` (config + platform state + caller ``extra``)
and ``memory.bin`` (physical pages + block-device image) — and the
fail-closed rule: anything a component trips over in a checkpoint that
passed its digests (a missing key, a tenant or core that its own config
does not have, an injector state that does not match its plan) surfaces
as :class:`~repro.errors.CheckpointError`, never as a half-applied
platform handed back to the caller.
"""

import json

from repro.errors import CheckpointError

_U64 = 8


def serialize_config(config):
    return config.to_plain()


def deserialize_config(data):
    from repro.core.platform import PlatformConfig

    try:
        return PlatformConfig.from_plain(data)
    except (KeyError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint config section lacks or mistypes a key — "
            f"corrupt or hand-edited: {exc!r}") from exc


def capture_state(platform, extra=None):
    """Everything JSON-serializable about *platform*, plus *extra*
    (caller-owned resume payload: RNG streams, harness step index, ...).
    Pair with :func:`serialize_memory` for the binary half."""
    return {"config": serialize_config(platform.config),
            "platform": platform.get_state(),
            "extra": extra}


def state_to_bytes(state):
    return (json.dumps(state, sort_keys=True, indent=1) + "\n") \
        .encode("utf-8")


def apply_state(platform, state):
    """Overwrite a freshly constructed *platform* with the saved state.

    The platform must have been built from the checkpoint's own config
    (see :func:`deserialize_config`) and must not have been initialized
    or used. Physical memory must already be restored
    (:func:`apply_memory`) — page tables and descriptor pages live
    there, and the components re-point themselves at them.
    """
    try:
        platform.set_state(state["platform"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint state does not fit the platform its own config "
            f"builds — corrupt or hand-edited: {exc!r}") from exc
    return platform


def serialize_memory(platform):
    """Physical pages + block-device image as one binary blob: the
    :meth:`~repro.mem.physical.PhysicalMemory.dump_pages` blob, then the
    image length (u64 little-endian) and the image bytes."""
    block = platform.block
    image = block.read_image(0, block.capacity_sectors)
    return b"".join([*platform.memory.dump_pages(),
                     len(image).to_bytes(_U64, "little"), image])


def apply_memory(platform, blob):
    try:
        pos = platform.memory.load_pages(blob)
    except ValueError as exc:
        raise CheckpointError(
            f"malformed checkpoint memory payload: {exc}") from exc
    image = blob[pos + _U64:]
    if len(blob) < pos + _U64 \
            or len(image) != int.from_bytes(blob[pos:pos + _U64], "little"):
        raise CheckpointError("truncated block-device payload")
    platform.block.load_image(image)
