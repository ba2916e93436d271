"""Replayable conformance corpus (tests/corpus/).

Each corpus entry is one JSON file describing a differential test case in
one of two forms:

- **seed form** — ``{"generator": {"seed": S, "index": I}}``: the case is
  regenerated deterministically as the I-th program of seed S's stream
  (coverage-guided generation only depends on previously *generated*
  programs, never on execution, so replay is exact). Compact; used for the
  committed seed corpus.
- **full form** — the encoded program binary plus every memory region as
  hex: self-contained, used for minimized reproducers written by the
  fuzzer (and for regression pins whose exact bytes matter).
- **stress form** — ``{"stress": {"seed": S, "category": C}}``: a
  cost-analysis stress case regenerated via
  :func:`repro.validate.progen.generate_stress_case` (bounded loops with
  known trip counts, strided/gather access patterns).

``expect`` is ``"match"`` for regression pins that must pass or
``"mismatch"`` for open reproducers of a known bug, which must *still
mismatch* (kept until the bug is fixed and the entry is flipped). A
corpus directory is replayed by the simulation farm's ``corpus`` sweep
(:mod:`repro.validate.farm.providers`) — ``conformance --replay DIR`` is
that sweep run in-process — so it has one meaning everywhere.
"""

import json
import os

import numpy as np

from repro.errors import CorpusError, SimError
from repro.gpu.encoding import decode_program, encode_program
from repro.validate.progen import ProgramGenerator
from repro.validate.runner import DiffCase, generated_case_to_diff

CORPUS_FORMAT = 1


def case_to_dict(case, expect="match", notes=""):
    """Serialize a :class:`DiffCase` to the full corpus form."""
    return {
        "format": CORPUS_FORMAT,
        "name": case.name,
        "expect": expect,
        "notes": notes,
        "global_size": list(case.global_size),
        "local_size": list(case.local_size),
        "args": [int(a) & 0xFFFFFFFF for a in case.args],
        "local_bytes": case.local_bytes,
        "program_hex": encode_program(case.program).hex(),
        "regions": [
            {
                "name": name,
                "va": va,
                "data_hex": np.ascontiguousarray(
                    words, dtype=np.uint32).tobytes().hex(),
            }
            for name, va, words in case.regions
        ],
    }


def seed_entry(seed, index, name="", expect="match", notes=""):
    """A compact seed-form corpus entry."""
    return {
        "format": CORPUS_FORMAT,
        "name": name or f"gen-seed{seed}-i{index}",
        "expect": expect,
        "notes": notes,
        "generator": {"seed": seed, "index": index},
    }


def dict_to_case(entry, path="<corpus entry>"):
    """Materialize a corpus entry (loaded from *path*) back into a
    :class:`DiffCase`; anything wrong with it is a
    :class:`~repro.errors.CorpusError` naming the file."""
    _check_entry(entry, path)
    try:
        return _materialize(entry)
    except (KeyError, IndexError, TypeError, ValueError, SimError) as exc:
        raise CorpusError(f"{path}: malformed corpus entry: "
                          f"{type(exc).__name__}: {exc}") from exc


def _check_entry(entry, path):
    """The envelope every entry form shares: a JSON object of the known
    format, expecting ``match`` or ``mismatch``."""
    if not isinstance(entry, dict):
        raise CorpusError(f"{path}: corpus entry must be a JSON object")
    if entry.get("format") != CORPUS_FORMAT:
        raise CorpusError(f"{path}: unsupported corpus format "
                          f"{entry.get('format')!r}")
    if entry.get("expect", "match") not in ("match", "mismatch"):
        raise CorpusError(f"{path}: 'expect' must be \"match\" or "
                          f"\"mismatch\", not {entry['expect']!r}")


def _materialize(entry):
    generator = entry.get("generator")
    if generator is not None:
        produced = ProgramGenerator(generator["seed"]).generate_nth(
            generator["index"])
        case = generated_case_to_diff(produced)
        return DiffCase(
            program=case.program, global_size=case.global_size,
            local_size=case.local_size, regions=case.regions,
            args=case.args, local_bytes=case.local_bytes,
            name=entry.get("name", case.name))
    stress = entry.get("stress")
    if stress is not None:
        from repro.validate.progen import generate_stress_case

        produced = generate_stress_case(stress["seed"], stress["category"])
        case = generated_case_to_diff(produced)
        return DiffCase(
            program=case.program, global_size=case.global_size,
            local_size=case.local_size, regions=case.regions,
            args=case.args, local_bytes=case.local_bytes,
            name=entry.get("name", case.name))
    program = decode_program(bytes.fromhex(entry["program_hex"]))
    regions = [
        (region["name"], region["va"],
         np.frombuffer(bytes.fromhex(region["data_hex"]),
                       dtype=np.uint32).copy())
        for region in entry["regions"]
    ]
    return DiffCase(
        program=program,
        global_size=tuple(entry["global_size"]),
        local_size=tuple(entry["local_size"]),
        regions=regions,
        args=list(entry["args"]),
        local_bytes=entry.get("local_bytes", 4096),
        name=entry.get("name", "corpus-case"),
    )


def save_entry(path, entry):
    from repro.checkpoint.format import atomic_write_text

    atomic_write_text(path, json.dumps(entry, indent=1) + "\n")


def load_entry(path):
    """Read one entry file and check its envelope."""
    try:
        with open(path) as handle:
            entry = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CorpusError(f"{path}: unreadable corpus entry: {exc}") from exc
    _check_entry(entry, path)
    return entry


def load_entries(directory):
    """Load every ``*.json`` entry in *directory*, sorted by filename.

    Returns a non-empty list of (path, entry dict): a missing or empty
    directory is a :class:`CorpusError`, so a mistyped path cannot drop
    the corpus from a sweep silently.
    """
    entries = []
    if os.path.isdir(directory):
        for filename in sorted(os.listdir(directory)):
            if filename.endswith(".json"):
                path = os.path.join(directory, filename)
                entries.append((path, load_entry(path)))
    if not entries:
        raise CorpusError(f"no corpus entries under {directory!r}")
    return entries
