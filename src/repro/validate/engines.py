"""The engine names a differential run takes, apart from the runner:
a farm config load checks a sweep's engines against them without
importing the runner and its tracer."""

from repro.core.platform import ENGINE_MODES, resolve_engine

#: the platform's instrumented tiers plus the independent scalar oracle
ENGINES = (*ENGINE_MODES, "m2s")


def engine_mode(engine):
    """The :data:`ENGINES` member *engine* names: ``m2s``, or the platform
    mode :func:`~repro.core.platform.resolve_engine` gives; ``ValueError``
    for any other name."""
    return engine if engine == "m2s" else resolve_engine(engine)
