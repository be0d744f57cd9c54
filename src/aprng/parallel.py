"""Worker threads for the lattice search.

The thread count comes from an explicit argument, else the APRNG_THREADS
environment variable, else 1.  Work is split so that results never depend
on it: ``thread_map`` returns results in input order.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count(explicit: int | None) -> int:
    if explicit is not None:
        return max(1, explicit)
    env = os.environ.get("APRNG_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def thread_map(fn, items: list, threads: int | None) -> list:
    """[fn(x) for x in items], spread over thread_count(threads) workers."""
    nthreads = thread_count(threads)
    if nthreads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
