"""Rowhammer bit-flip device fingerprinting against a simulated DRAM backend.

Modules:

* ``geometry``: DRAM geometry, linear address mapping, and bank-function
  recovery from row-buffer-conflict timing.
* ``challenge``: hammering patterns, data patterns, the reference
  challenge, and challenge hashing.
* ``simdevice``: seeded virtual DRAM device producing timings and flips.
* ``fingerprint``: flip-location sets, similarity metrics, encoding.
* ``registry``: the fingerprint dataset, identification, persistence.
* ``evalharness``: reliability, uniqueness, identification, multi-host,
  and measurement-tradeoff experiments.
* ``codec``: the ``key=value`` line codec shared by the profile texts.
* ``cli``: the ``hammerprint`` command.
"""

from .challenge import (
    DataPattern,
    DramChallenge,
    HammerPattern,
    PatternKind,
    build_pattern,
    challenge_hash,
    default_challenge,
    victim_rows,
)
from .fingerprint import (
    ChallengeMismatchError,
    Fingerprint,
    FlipLocation,
    decode_fingerprint,
    encode_fingerprint,
    from_measurements,
    jaccard,
    jaccard_prime,
    union_of,
)
from .geometry import (
    AddressMapping,
    DramAddress,
    DramGeometry,
    ProbeConfig,
    canonical_mapping,
    phys_to_dram,
    recover_bank_functions,
    timing_threshold,
)
from .registry import (
    DeviceRecord,
    FingerprintDataset,
    IdentifyResult,
    enroll,
    fingerprint_match,
    generate_new_id,
    get_similarity,
    identify,
    load_dataset,
    save_dataset,
)
from .simdevice import (
    NoiseConfig,
    SimDevice,
    TrrConfig,
    access_time,
    default_geometry,
    hammer,
    new_sim_device,
    run_query,
)

__version__ = "0.1.0"
