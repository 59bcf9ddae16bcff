"""PPM-like tag-based direction predictor (Michaud, JILP 2005).

Table 1 of the paper specifies a "24 Kbyte 3-table PPM direction
predictor".  The predictor here follows the PPM structure: a tagless
bimodal base table plus two partially-tagged tables indexed by
progressively longer global-history hashes.  Prediction comes from the
longest-history table whose tag matches; update follows the standard
PPM/TAGE policy (update the provider, allocate a longer-history entry on
a misprediction).
"""

from __future__ import annotations

_HISTORY_MASK = (1 << 64) - 1


def _fold(value: int, bits: int) -> int:
    """Fold an arbitrarily long integer into ``bits`` bits by XOR."""
    mask = (1 << bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


class PPMPredictor:
    """Three-table PPM direction predictor with global history.

    The default geometry spends roughly 24 KB: a 16K-entry 2-bit bimodal
    base (4 KB) plus two 4K-entry tagged tables with 8-bit tags and
    2-bit counters (~10 KB together); the remainder of the paper's
    budget covers the structures we do not model bit-exactly.

    Tagged-table state is stored as parallel flat lists per level
    (``tag`` / ``counter`` / ``useful`` / ``valid``): one core is built
    per campaign cell, so table construction must be list-multiply
    cheap, not thousands of per-entry objects.
    """

    def __init__(self, base_entries: int = 16384, tagged_entries: int = 4096,
                 tag_bits: int = 8, history_lengths: tuple[int, int] = (8, 32)) -> None:
        if base_entries & (base_entries - 1) or tagged_entries & (tagged_entries - 1):
            raise ValueError("table sizes must be powers of two")
        self.base = [0] * base_entries  # 2-bit: 0..3, taken when >= 2
        self.base_mask = base_entries - 1
        levels = len(history_lengths)
        self.tag_table = [[0] * tagged_entries for _ in range(levels)]
        #: 2-bit signed counter: -2..1, taken when >= 0.
        self.counter_table = [[0] * tagged_entries for _ in range(levels)]
        self.useful_table = [[0] * tagged_entries for _ in range(levels)]
        self.valid_table = [[False] * tagged_entries for _ in range(levels)]
        self.tagged_mask = tagged_entries - 1
        self.tag_bits = tag_bits
        self.history_lengths = history_lengths
        self.history = 0
        #: Index/tag computation is a pure function of (pc, the longest
        #: history window); loops re-predict the same few branches under
        #: recurring history patterns, so memoize it (bounded), keyed by
        #: the one int ``(pc << longest) | window``.
        self._longest = max(history_lengths)
        self._longest_mask = (1 << self._longest) - 1
        self._index_memo: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def _indices(self, pc: int):
        """(base_index, ((level, index, tag), ...)) for ``pc``, the tagged
        levels longest history first (the order lookups probe them)."""
        key = (pc << self._longest) | (self.history & self._longest_mask)
        memo = self._index_memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        base_index = (pc >> 2) & self.base_mask
        tagged = []
        index_bits = self.tagged_mask.bit_length()
        for level, hist_len in enumerate(self.history_lengths):
            hist = self.history & ((1 << hist_len) - 1)
            index = ((pc >> 2) ^ _fold(hist, index_bits)) & self.tagged_mask
            tag = ((pc >> 9) ^ _fold(hist, self.tag_bits)) & ((1 << self.tag_bits) - 1)
            tagged.append((level, index, tag))
        if len(memo) >= (1 << 16):
            memo.clear()
        result = memo[key] = (base_index, tuple(reversed(tagged)))
        return result

    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc``."""
        base_index, tagged = self._indices(pc)
        for level, index, tag in tagged:
            if self.valid_table[level][index] and self.tag_table[level][index] == tag:
                return self.counter_table[level][index] >= 0
        return self.base[base_index] >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome and advance global history.

        Counters saturate: tagged ones at -2..1, base ones at 0..3,
        usefulness at 3.
        """
        base_index, tagged = self._indices(pc)
        provider_level = None
        for level, index, tag in tagged:
            if self.valid_table[level][index] and self.tag_table[level][index] == tag:
                provider_level = level
                counters = self.counter_table[level]
                count = counters[index]
                predicted = count >= 0
                if taken:
                    if count < 1:
                        counters[index] = count + 1
                elif count > -2:
                    counters[index] = count - 1
                if predicted == taken:
                    useful = self.useful_table[level]
                    if useful[index] < 3:
                        useful[index] += 1
                break
        else:
            base = self.base
            count = base[base_index]
            predicted = count >= 2
            if taken:
                if count < 3:
                    base[base_index] = count + 1
            elif count > 0:
                base[base_index] = count - 1

        if predicted != taken:
            self._allocate(tagged, provider_level, taken)
        self.history = ((self.history << 1) | (1 if taken else 0)) & _HISTORY_MASK

    def _allocate(self, tagged, provider_level, taken: bool) -> None:
        """On a mispredict, claim an entry in a longer-history table,
        trying the shortest such history first."""
        longer = (len(tagged) if provider_level is None
                  else len(tagged) - 1 - provider_level)
        for level, index, tag in reversed(tagged[:longer]):
            useful = self.useful_table[level]
            if not self.valid_table[level][index] or useful[index] == 0:
                self.tag_table[level][index] = tag
                self.counter_table[level][index] = 0 if taken else -1
                useful[index] = 0
                self.valid_table[level][index] = True
                return
            useful[index] -= 1
