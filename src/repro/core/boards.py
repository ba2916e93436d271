"""Board models (the paper's §III: "we model the Arm VERSATILE EXPRESS and
JUNO platforms, each augmented with an Arm Mali-G71 GPU").

A board bundles a platform configuration: memory size, GPU shader-core
count, and which optional devices are present. Both boards run the same
software stack unmodified — the point of the paper's full-system approach.
"""

from dataclasses import dataclass, field

from repro.core.platform import MobilePlatform, PlatformConfig
from repro.gpu.device import GPUConfig


@dataclass(frozen=True)
class BoardDescription:
    """Static description of a supported board."""

    name: str
    memory_size: int
    gpu_cores: int
    cpu_engine: str = "dbt"
    has_block_device: bool = True
    has_network_device: bool = True


VERSATILE_EXPRESS = BoardDescription(
    name="versatile-express",
    memory_size=1 << 31,  # 2 GiB
    gpu_cores=4,  # MP4 configuration
)

JUNO = BoardDescription(
    name="juno",
    memory_size=1 << 32,  # 4 GiB
    gpu_cores=8,  # MP8, the HiKey960-matching configuration
)

BOARDS = {board.name: board for board in (VERSATILE_EXPRESS, JUNO)}


def make_platform(board="juno", **gpu_overrides):
    """Build a :class:`MobilePlatform` for a named board.

    Args:
        board: a :class:`BoardDescription` or a name from :data:`BOARDS`.
        gpu_overrides: extra :class:`GPUConfig` fields (instrument,
            engine, ...).
    """
    if isinstance(board, str):
        try:
            board = BOARDS[board]
        except KeyError:
            raise KeyError(
                f"unknown board {board!r}; available: {sorted(BOARDS)}"
            ) from None
    gpu = GPUConfig(num_shader_cores=board.gpu_cores, **gpu_overrides)
    config = PlatformConfig(
        gpu=gpu, cpu_engine=board.cpu_engine, memory_size=board.memory_size
    )
    platform = MobilePlatform(config)
    platform.board = board
    return platform
