"""Rowhammer bit-flip device fingerprinting against a simulated DRAM backend.

Modules:

* ``geometry``: DRAM geometry, linear address mapping, and bank-function
  recovery from row-buffer-conflict timing.
* ``gf2``: bitmask linear algebra over GF(2): rref, rank, null space.
* ``challenge``: hammering patterns, data patterns, the reference
  challenge, and challenge hashing.
* ``simdevice``: seeded virtual DRAM device producing timings and flips.
* ``fingerprint``: flip-location sets, similarity metrics, encoding.
* ``registry``: the fingerprint dataset, identification, persistence.
* ``evalharness``: reliability, uniqueness, identification, multi-host,
  and measurement-tradeoff experiments.
* ``codec``: the ``key=value`` line codec shared by the profile texts.
* ``cli``: the ``hammerprint`` command.

Each name is imported from its module, as in
``from hammerprint.registry import identify``; the package itself
re-exports none. ``import hammerprint`` still loads the library modules
above except ``evalharness`` and ``cli``, so ``hammerprint.registry`` is
bound after it.
"""

from . import challenge, codec, fingerprint, geometry, gf2, registry, simdevice

__version__ = "0.1.0"
