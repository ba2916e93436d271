"""Generated host code (the DBT's regions, the megakernel's clauses).

Both translators write Python source and run it; this is the one place
that turns such source into functions, so that every generated line is
also readable from a traceback.
"""

import linecache


def compile_source(source, filename, namespace):
    """``exec`` *source* in *namespace* under the synthetic *filename*
    (``<...>``) and return *namespace*. The text is registered with
    :mod:`linecache` — no mtime, so ``checkcache`` keeps it — and a
    traceback through the generated code shows the emitted line."""
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def forget_source(filename):
    """Drop the text registered for *filename* (its code was evicted)."""
    linecache.cache.pop(filename, None)
