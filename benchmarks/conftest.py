"""Shared helpers for the figure/table regeneration benchmarks.

Heavy simulation sweeps that several figures share (the Fig. 11/12/13
program-statistics suite) run once per pytest session and are cached.
Each benchmark prints the paper-style rows and also writes them to
``benchmarks/results/``.
"""

import pathlib

import pytest
from bench_hotpath import host_metadata

from repro.analysis import figures

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_CACHE = {}


def get_suite_stats():
    """Session-cached run of the whole workload suite (Figs. 11-13)."""
    if "suite" not in _CACHE:
        _CACHE["suite"] = figures.run_suite_stats()
    return _CACHE["suite"]


def host_line(engine):
    """The engine a result was taken on and the host that took it (the
    ROADMAP's rule for every file under ``benchmarks/results/``)."""
    return ("engine: {}; host: {cores} cores, Python {python}, "
            "NumPy {numpy}, {machine}".format(engine, **host_metadata()))


def emit(name, text):
    """Print a figure's rows and persist them under benchmarks/results/."""
    print()
    print(text)
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def results_dir():
    _RESULTS_DIR.mkdir(exist_ok=True)
    return _RESULTS_DIR
