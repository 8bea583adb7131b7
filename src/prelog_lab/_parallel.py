"""Serial stand-ins kept only because the perfbench harness imports them.

The library runs serially.  perfbench reads thread_count() and traces
cli.run_bound's one parallel_map call; ROADMAP item 1's benchmark change
deletes this module.
"""


def thread_count():
    return 1


def parallel_map(fn, items):
    return [fn(item) for item in items]
