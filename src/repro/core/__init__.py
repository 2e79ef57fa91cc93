"""Phase classification core: the paper's primary contribution.

This package implements the dynamic phase classification architecture of
Sherwood et al. (ISCA 2003) plus the four improvements of Lau et al.
(HPCA 2005):

- :mod:`repro.core.accumulator` — the N-counter accumulator table fed by
  (branch PC, instruction count) records.
- :mod:`repro.core.bitselect` — static and dynamic selection of which
  counter bits form the compressed signature (§4.2).
- :mod:`repro.core.signature` — compressed signature values.
- :mod:`repro.core.distance` — Manhattan distance and the relative
  similarity measure thresholds are stated in.
- :mod:`repro.core.signature_table` — the finite LRU past-signature
  table with per-entry min counters and similarity thresholds.
- :mod:`repro.core.classifier` — the full online classifier: transition
  phase (§4.4), most-similar matching (§4.1), and adaptive per-phase
  threshold tightening driven by CPI feedback (§4.6).
- :mod:`repro.core.events` — per-interval results and whole-run records.
- :mod:`repro.core.online` — the streaming branch-by-branch
  :class:`~repro.core.online.PhaseTracker` for deployable systems.
- :mod:`repro.core.pool` — the structure-of-arrays
  :class:`~repro.core.pool.TrackerPool` batching thousands of logical
  trackers into single numpy passes, with the scalar tracker as its
  behavioural oracle.
"""

from repro._lazy import lazy_exports
from repro.core.accumulator import AccumulatorTable
from repro.core.bitselect import (
    BitSelector,
    DynamicBitSelector,
    StaticBitSelector,
)
from repro.core.classifier import PhaseClassifier
from repro.core.config import ClassifierConfig, TRANSITION_PHASE_ID
from repro.core.online import PhaseTracker, TrackerReport
from repro.core.distance import manhattan_distance, relative_distance
from repro.core.events import ClassificationResult, ClassificationRun
from repro.core.signature import Signature
from repro.core.signature_table import SignatureTable, TableEntry

# The batch pool is a library API that no serving process uses
# (DESIGN §14).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.core.pool": ("ClassifierPool", "PooledTracker", "TrackerPool"),
})

__all__ = [
    "AccumulatorTable",
    "BitSelector",
    "ClassificationResult",
    "ClassificationRun",
    "ClassifierConfig",
    "ClassifierPool",
    "DynamicBitSelector",
    "PhaseClassifier",
    "PhaseTracker",
    "PooledTracker",
    "Signature",
    "SignatureTable",
    "StaticBitSelector",
    "TRANSITION_PHASE_ID",
    "TableEntry",
    "TrackerPool",
    "TrackerReport",
    "manhattan_distance",
    "relative_distance",
]
