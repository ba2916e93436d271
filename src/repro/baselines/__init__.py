"""Baseline executors the paper compares against.

- :mod:`repro.baselines.m2s` — a Multi2Sim-style functional GPU simulator:
  intercepted runtime (no driver/JM/MMU), scalar thread execution, and
  per-clause re-decode on every visit. Used for the Fig. 8/9 comparisons.
- :mod:`repro.baselines.native` — NumPy "native hardware" timing helpers
  (Fig. 7 slowdowns).
- :mod:`repro.baselines.desktopgpu` — an analytical desktop-GPU cost model
  standing in for the NVIDIA K20m of Fig. 15 (the Mali side is
  :class:`repro.instrument.timing.CycleModel`).
"""

from repro.baselines.m2s import M2SSimulator
from repro.baselines.native import native_seconds
from repro.baselines.desktopgpu import DesktopGPUModel

__all__ = ["M2SSimulator", "native_seconds", "DesktopGPUModel"]
