"""Declarative sweep configs for the simulation farm.

A farm config is a JSON document (or an equivalent dict) describing a
mixed campaign as a list of *sweeps*, each handled by a registered case
provider (``conformance``, ``corpus``, ``fault``, ``lint``, ``analyze``,
``bench``, ``tenants``, ``checkpoint``, ``selftest``)::

    {
      "name": "smoke",
      "shard_size": 4,
      "timeout_s": 300,
      "max_attempts": 2,
      "sweeps": [
        {"kind": "conformance", "seeds": 2, "budget": 10,
         "engines": ["interp", "fast", "mega"]},
        {"kind": "fault", "workloads": ["divergent"],
         "scenarios": ["mmu-transient", "irq-lost"], "seeds": 2},
        {"kind": "lint", "targets": "builtin"},
        {"kind": "bench", "workloads": [{"name": "nn",
         "params": {"records": 256}}], "engines": ["interpreter", "mega"]}
      ]
    }

Loading **normalizes** the document (defaults filled, shorthand expanded
— e.g. ``"seeds": 2`` becomes ``[0, 1]``, ``"targets": "builtin"``
becomes the resolved target list) into a canonical dict whose SHA-256 is
the **config hash**. Everything downstream is a pure function of that
canonical form: case expansion, per-case seed streams, the shard plan,
and therefore the aggregate report — independent of worker count,
scheduling, retries and wall clock.
"""

import hashlib
import json
from dataclasses import dataclass

from repro.errors import SimError

CONFIG_VERSION = 1

#: run-shape defaults (deliberately part of the canonical form: the
#: timeout participates in hang verdicts, the shard size in the plan)
DEFAULTS = {
    "shard_size": 4,
    "timeout_s": 300,
    "max_attempts": 2,
}


class FarmConfigError(SimError):
    """A malformed or unsatisfiable sweep config."""


@dataclass(frozen=True)
class FarmConfig:
    """A loaded, validated, canonicalized sweep config."""

    name: str
    sweeps: tuple          # normalized sweep dicts, in document order
    shard_size: int
    timeout_s: float
    max_attempts: int
    canonical: dict        # the full canonical document
    config_hash: str       # sha256 hex of the canonical JSON

    def case_seed(self, case_id):
        """The deterministic seed stream root for one case: a pure
        function of (config hash, case id), so a case computes identical
        results whichever worker runs it, at whatever worker count, on
        whichever attempt."""
        digest = hashlib.sha256(
            f"{self.config_hash}:{case_id}".encode()).digest()
        return int.from_bytes(digest[:8], "big")


def canonical_json(document):
    """The canonical byte form a config (or report) hashes/serializes
    to: sorted keys, no whitespace ambiguity."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def load_config(source):
    """Load a farm config from a dict or a JSON file path."""
    if isinstance(source, (str, bytes)):
        try:
            with open(source) as handle:
                document = json.load(handle)
        except OSError as exc:
            raise FarmConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FarmConfigError(f"{source}: invalid JSON: {exc}") from exc
    else:
        document = source
    if not isinstance(document, dict):
        raise FarmConfigError("config must be a JSON object")

    known = {"name", "version", "sweeps"} | set(DEFAULTS)
    unknown = set(document) - known
    if unknown:
        raise FarmConfigError(f"unknown config keys: {sorted(unknown)}")
    version = document.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise FarmConfigError(f"unsupported config version {version!r}")

    name = document.get("name", "farm")
    if not isinstance(name, str) or not name:
        raise FarmConfigError("config 'name' must be a non-empty string")

    shard_size = document.get("shard_size", DEFAULTS["shard_size"])
    if not isinstance(shard_size, int) or shard_size < 1:
        raise FarmConfigError("'shard_size' must be a positive integer")
    timeout_s = document.get("timeout_s", DEFAULTS["timeout_s"])
    if not isinstance(timeout_s, (int, float)) or timeout_s <= 0:
        raise FarmConfigError("'timeout_s' must be a positive number")
    max_attempts = document.get("max_attempts", DEFAULTS["max_attempts"])
    if not isinstance(max_attempts, int) or max_attempts < 1:
        raise FarmConfigError("'max_attempts' must be a positive integer")

    sweeps = document.get("sweeps")
    if not isinstance(sweeps, list) or not sweeps:
        raise FarmConfigError("config needs a non-empty 'sweeps' list")

    from repro.validate.farm.providers import normalize_sweep

    normalized = []
    for index, sweep in enumerate(sweeps):
        if not isinstance(sweep, dict) or "kind" not in sweep:
            raise FarmConfigError(
                f"sweeps[{index}]: every sweep needs a 'kind'")
        try:
            normalized.append(normalize_sweep(sweep))
        except FarmConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FarmConfigError(
                f"sweeps[{index}] ({sweep.get('kind')}): {exc}") from exc

    canonical = {
        "version": CONFIG_VERSION,
        "name": name,
        "shard_size": shard_size,
        "timeout_s": timeout_s,
        "max_attempts": max_attempts,
        "sweeps": normalized,
    }
    config_hash = hashlib.sha256(
        canonical_json(canonical).encode()).hexdigest()
    return FarmConfig(
        name=name, sweeps=tuple(normalized), shard_size=shard_size,
        timeout_s=float(timeout_s), max_attempts=max_attempts,
        canonical=canonical, config_hash=config_hash)
