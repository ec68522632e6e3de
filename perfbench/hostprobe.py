"""Fixed pieces of Python that show how fast the host runs at the moment.

A shared host slows a process when other tenants contend for its cores and
caches, by different amounts for different code. ``probe()`` times two
kernels: an arithmetic loop, and building, joining and intersecting two
sets of small hashable objects, as the library does with flip locations.
The benchmark's workloads fall between the two, so ``probe_ns`` combines
them by their geometric mean. The module imports nothing, so a fresh
interpreter can load it before it times ``import hammerprint``.
"""

LOOP = 1000
CELLS = 100
NOMINAL_NS = 140_000  # the probe time of the nominal host results are scaled to


class _Cell:
    """A small hashable object, like the library's flip locations."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def __hash__(self):
        return hash((self.a, self.b))

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b


def probe(clock) -> tuple[int, int]:
    """Time both kernels once with ``clock`` (``time.perf_counter_ns``):
    ``(loop ns, sets ns)``."""
    t0 = clock()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    t1 = clock()
    a = frozenset(_Cell(i, i * 7 % 61) for i in range(CELLS))
    b = frozenset(_Cell(i, i * 7 % 61) for i in range(CELLS // 2, CELLS * 3 // 2))
    len(a | b) + len(a & b)
    return t1 - t0, clock() - t1


def probe_ns(samples: list[tuple[int, int]]) -> float:
    """Geometric mean of the two kernels' trimmed mean times; the trimmed
    twentieths hold probes that a page fault or an interrupt landed in."""
    return (trimmed_mean([s[0] for s in samples]) * trimmed_mean([s[1] for s in samples])) ** 0.5


def trimmed_mean(xs: list[float]) -> float:
    """Mean without the highest and lowest twentieth."""
    xs = sorted(xs)
    cut = len(xs) // 20
    kept = xs[cut:len(xs) - cut]
    return sum(kept) / len(kept)
