"""Hybrid (tournament) branch predictor: gshare + bimodal + chooser.

The Table 1 machine uses "hybrid - 8-bit gshare w/ 2k 2-bit predictors +
a 8k bimodal predictor". A per-PC meta table of 2-bit counters selects
which component's prediction to use; the chooser is trained toward
whichever component was correct when they disagree (McFarling's
combining scheme, as implemented by SimpleScalar's ``bpred_comb``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.simulator.branch.bimodal import BimodalPredictor
from repro.simulator.branch.gshare import GSharePredictor

_META_MAX = 3
_USE_GSHARE_THRESHOLD = 2


class HybridPredictor:
    """Tournament predictor combining gshare and bimodal components.

    The meta (chooser) table holds 2-bit counters: values >= 2 select the
    gshare component. The chooser is only trained when the two components
    disagree.
    """

    def __init__(
        self,
        gshare: "GSharePredictor | None" = None,
        bimodal: "BimodalPredictor | None" = None,
        meta_entries: int = 2048,
    ) -> None:
        if meta_entries <= 0 or meta_entries & (meta_entries - 1):
            raise ConfigurationError(
                f"meta_entries must be a power of two, got {meta_entries}"
            )
        self.gshare = gshare or GSharePredictor()
        self.bimodal = bimodal or BimodalPredictor()
        self.meta_entries = meta_entries
        self._meta = np.full(meta_entries, _USE_GSHARE_THRESHOLD, dtype=np.int8)
        self.predictions = 0
        self.mispredictions = 0

    def _meta_index(self, pc: int) -> int:
        return (pc >> 2) & (self.meta_entries - 1)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict ``pc``, train all components, and return correctness."""
        gshare_pred = self.gshare.predict(pc)
        bimodal_pred = self.bimodal.predict(pc)
        meta_index = self._meta_index(pc)
        use_gshare = self._meta[meta_index] >= _USE_GSHARE_THRESHOLD
        prediction = gshare_pred if use_gshare else bimodal_pred

        correct = prediction == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1

        # Train the chooser only on disagreement.
        if gshare_pred != bimodal_pred:
            meta = int(self._meta[meta_index])
            if gshare_pred == taken:
                meta = min(meta + 1, _META_MAX)
            else:
                meta = max(meta - 1, 0)
            self._meta[meta_index] = meta

        # Both components always train on the actual outcome.
        self.gshare.update(pc, taken)
        self.bimodal.update(pc, taken)
        return correct

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

    def reset_stats(self) -> None:
        self.predictions = 0
        self.mispredictions = 0
        self.gshare.reset_stats()
        self.bimodal.reset_stats()
