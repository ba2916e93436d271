"""The repo's system benchmark (see README.md); run with
``python benchmarks/e2e/run.py``. A package so that ``trace.py`` never
shadows the standard library's ``trace`` module."""
