"""Production attestation gate for element minting.

Multiple sources report measured output per element and epoch. Finalizing
an epoch takes the median, drops sources outside a relative deviation band
around it, and re-medians the survivors. Element supply can only grow up to
the cumulative accepted output, so no sequence of operations can mint more
than was verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlreadyFinalized,
    DuplicateAttestation,
    EpochFinalized,
    ExceedsVerifiedOutput,
    NoAttestations,
)
from .ledger import BPS, Registry, check_amount


@dataclass(frozen=True)
class Attestation:
    source: str
    element: str
    epoch: int
    measured: int

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")
        check_amount(self.measured)


@dataclass(frozen=True)
class OraclePolicy:
    min_sources: int = 1
    max_deviation_bps: int = 500
    twa_window: int = 1

    def __post_init__(self):
        if self.min_sources < 1 or self.max_deviation_bps < 1 or self.twa_window < 1:
            raise ValueError("policy fields must be positive")


@dataclass
class EpochResult:
    element: str
    epoch: int
    accepted: int
    rejected_sources: list[str]
    failed: bool


@dataclass
class ProductionLedger:
    cumulative_accepted: int = 0
    cumulative_minted: int = 0


def median_int(values: list[int]) -> int:
    """Integer median; even count takes the floor of the mean of the middle pair."""
    vs = sorted(values)
    n = len(vs)
    mid = n // 2
    if n % 2 == 1:
        return vs[mid]
    return (vs[mid - 1] + vs[mid]) // 2


class OracleHub:
    """Holds pending attestations and per-element production ledgers."""

    AUTHORITY = "oracle-hub"

    def __init__(self, registry: Registry):
        self.registry = registry
        # (element, epoch) -> {source: measured}
        self._pending: dict[tuple[str, int], dict[str, int]] = {}
        self._finalized: dict[str, dict[int, EpochResult]] = {}
        self.production: dict[str, ProductionLedger] = {}

    def _ledger(self, element: str) -> ProductionLedger:
        return self.production.setdefault(element, ProductionLedger())

    def submit_attestation(self, att: Attestation):
        if att.epoch in self._finalized.get(att.element, {}):
            raise EpochFinalized(f"{att.element} epoch {att.epoch}")
        bucket = self._pending.setdefault((att.element, att.epoch), {})
        if att.source in bucket:
            raise DuplicateAttestation(f"{att.source} already attested "
                                       f"{att.element} epoch {att.epoch}")
        bucket[att.source] = att.measured

    def finalize_epoch(self, element: str, epoch: int, policy: OraclePolicy) -> EpochResult:
        if epoch in self._finalized.get(element, {}):
            raise AlreadyFinalized(f"{element} epoch {epoch}")
        bucket = self._pending.pop((element, epoch), None)
        if not bucket:
            raise NoAttestations(f"{element} epoch {epoch}")

        values = list(bucket.values())
        m = median_int(values)
        # |v - m| > m * max_deviation_bps / 10000, kept in integer arithmetic
        outliers = {src for src, v in bucket.items()
                    if abs(v - m) * BPS > m * policy.max_deviation_bps}
        rejected = sorted(outliers)
        survivors = [v for src, v in bucket.items() if src not in outliers]

        if len(survivors) < policy.min_sources:
            result = EpochResult(element, epoch, accepted=0,
                                 rejected_sources=rejected, failed=True)
        else:
            result = EpochResult(element, epoch, accepted=median_int(survivors),
                                 rejected_sources=rejected, failed=False)

        ledger = self._ledger(element)
        ledger.cumulative_accepted += result.accepted
        self._finalized.setdefault(element, {})[epoch] = result
        return result

    def mintable_capacity(self, element: str) -> int:
        ledger = self._ledger(element)
        return ledger.cumulative_accepted - ledger.cumulative_minted

    def mint_verified(self, element: str, to: str, qty: int):
        check_amount(qty)
        capacity = self.mintable_capacity(element)
        if qty > capacity:
            raise ExceedsVerifiedOutput(
                f"mint {qty} of {element} exceeds verified capacity {capacity}")
        self.registry.mint(element, to, qty, self.AUTHORITY)
        self._ledger(element).cumulative_minted += qty

    def twa_output(self, element: str, epoch: int, policy: OraclePolicy) -> int:
        """Mean accepted output over the trailing window ending at `epoch`.

        Only finalized epochs contribute; failed epochs count as 0. Returns 0
        when nothing in the window is finalized.
        """
        finalized = self._finalized.get(element, {})
        window = [e for e in range(epoch - policy.twa_window + 1, epoch + 1)
                  if e in finalized]
        if not window:
            return 0
        total = sum(finalized[e].accepted for e in window)
        return total // policy.twa_window

    def record_verified_output(self, element: str, amount: int):
        """Bootstrap helper: credit pre-verified production without attestations.

        Used by scenario setup to model output verified before the simulated
        window starts. Keeps the minted <= accepted invariant intact.
        """
        check_amount(amount)
        ledger = self._ledger(element)
        ledger.cumulative_accepted += amount
