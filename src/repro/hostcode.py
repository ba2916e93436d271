"""Generated host code (the DBT's regions, the megakernel's clauses).

Both translators write Python source and run it; this is the one place
that turns such source into functions, so that every generated line is
also readable from a traceback — and the one :class:`BoundedTable` that
mega's code, the DBT's region code, the kernel-language build and the
Job Manager's decoded programs keep their results in.
"""

import linecache
import threading

#: Bound of the two build tables: compiled programs by build key, and
#: the builds that passed the binary gate.
PROGRAM_CACHE_SIZE = 256


def compile_source(source, filename, namespace, codes=None):
    """``exec`` *source* in *namespace* under the synthetic *filename*
    (``<...>``) and return *namespace*. The text is registered with
    :mod:`linecache` — no mtime, so ``checkcache`` keeps it — and a
    traceback through the generated code shows the emitted line. With
    *codes*, a :class:`BoundedTable` keyed by source text (which must
    determine *filename*), each text is compiled once per process and its
    code ``exec``'d in every namespace it is given."""
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    if codes is None:
        code = compile(source, filename, "exec")
    else:
        code = codes.lookup(source,
                            lambda: compile(source, filename, "exec"))
    exec(code, namespace)
    return namespace


def forget_source(filename):
    """Drop the text registered for *filename* (its code was evicted)."""
    linecache.cache.pop(filename, None)


class BoundedTable(dict):
    """Content key -> what a process built from it, shared by every unit,
    thread, tenant and platform. The key must determine the entry and an
    entry is never written after insertion, so none can go stale; oldest
    out at *bound* entries (each passed to *evicted*), so run-once
    contents cannot grow it. Host state: never checkpointed."""

    def __init__(self, bound, evicted=lambda entry: None):
        super().__init__()
        self.bound = bound
        self._evicted = evicted
        self._lock = threading.Lock()

    def lookup(self, key, build):
        """The entry of *key*, from ``build()`` the first time. Threads
        may race to build one key: one result is kept, only a finished
        entry is handed out, a build that raises stores nothing."""
        entry = self.get(key)
        if entry is None:
            entry = build()
            with self._lock:
                entry = self.setdefault(key, entry)
                while len(self) > self.bound:
                    self._evicted(self.pop(next(iter(self))))
        return entry
