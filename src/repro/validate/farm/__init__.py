"""Config-driven simulation farm (the campaign manager).

``repro.validate.farm`` turns the repo's campaign surfaces — conformance
fuzzing, corpus replay, fault-injection sweeps, lint grids and benchmark
points — into one declaratively-configured, multiprocess, crash- and
hang-tolerant farm with a deterministic aggregate report:

- :mod:`.config` — sweep configs, canonicalization, the config hash;
- :mod:`.providers` — each kind's grid, per-case execution and outcome
  shaping (the one layer over what the swept subsystems export to run
  one thing);
- :mod:`.shard` — the worker-count-independent shard plan and the
  deterministic re-shard used for retries;
- :mod:`.worker` — the per-process execution loop (fresh platform per
  case);
- :mod:`.manager` — ``run_farm``: the pool, timeout kills, bounded
  retries, respawns — or, with ``workers=0``, the calling process as
  the executor; ``resume_farm``: finish a killed campaign from its
  journal;
- :mod:`.journal` — the digest-verified per-case outcome journal that
  makes campaigns crash-resumable;
- :mod:`.report` — the byte-identical aggregate report plus the human
  summary.

Determinism contract: for a fixed config file, ``report.json`` is
byte-identical for any worker count, any scheduling, any number of
worker kills followed by retries, and any interrupt-then-``resume_farm``
split — asserted by ``tests/test_farm.py`` and
``tests/test_checkpoint.py``.
"""

from repro.validate.farm.config import (
    FarmConfig,
    FarmConfigError,
    load_config,
)
from repro.validate.farm.manager import (
    FarmError,
    FarmRun,
    resume_farm,
    run_farm,
)
from repro.validate.farm.providers import PROVIDERS, expand_cases
from repro.validate.farm.report import (
    build_report,
    report_to_bytes,
    summary_lines,
)
from repro.validate.farm.shard import plan_shards, retry_shard

__all__ = [
    "FarmConfig",
    "FarmConfigError",
    "FarmError",
    "FarmRun",
    "PROVIDERS",
    "build_report",
    "expand_cases",
    "load_config",
    "plan_shards",
    "report_to_bytes",
    "resume_farm",
    "retry_shard",
    "run_farm",
    "summary_lines",
]
