"""Production attestation gate for element minting.

Multiple sources report measured output per element and epoch. Finalizing
an epoch takes the median, drops sources outside a relative deviation band
around it, and re-medians the survivors. Element supply can only grow up to
the cumulative accepted output, so no sequence of operations can mint more
than was verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AlreadyFinalized,
    DuplicateAttestation,
    EpochFinalized,
    ExceedsVerifiedOutput,
    NoAttestations,
    UnknownElement,
)
from .ledger import BPS, Registry, TokenKind, check_amount


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
    """One element's record: verified and minted totals, each pending epoch's
    {source: measured} and each finalized epoch's accepted output (0 if failed)."""
    cumulative_accepted: int = 0
    cumulative_minted: int = 0
    pending: dict[int, dict[str, int]] = field(default_factory=dict, repr=False)
    accepted: dict[int, int] = field(default_factory=dict, repr=False)


def median_int(values: list[int]) -> int:
    """Integer median; even count takes the floor of the mean of the middle pair."""
    vs = sorted(values)
    n = len(vs)
    mid = n // 2
    if n % 2 == 1:
        return vs[mid]
    return (vs[mid - 1] + vs[mid]) // 2


class OracleHub:
    """Holds one production record per element token, created on its first use.

    Every entry point raises UnknownElement for an id that is not a registered
    ELEMENT token, before it reads or creates a record.
    """

    AUTHORITY = "oracle-hub"

    def __init__(self, registry: Registry):
        self.registry = registry
        self.production: dict[str, ProductionLedger] = {}

    def _record(self, element: str) -> ProductionLedger:
        prod = self.production.get(element)
        if prod is None:
            meta = self.registry.tokens.get(element)
            if meta is None or meta.kind is not TokenKind.ELEMENT:
                raise UnknownElement(f"{element} is not an element token")
            prod = self.production[element] = ProductionLedger()
        return prod

    def submit_attestation(self, att: Attestation):
        prod = self._record(att.element)
        if att.epoch in prod.accepted:
            raise EpochFinalized(f"{att.element} epoch {att.epoch}")
        bucket = prod.pending.setdefault(att.epoch, {})
        if att.source in bucket:
            raise DuplicateAttestation(f"{att.source} already attested "
                                       f"{att.element} epoch {att.epoch}")
        bucket[att.source] = att.measured

    def finalize_epoch(self, element: str, epoch: int, policy: OraclePolicy) -> EpochResult:
        prod = self._record(element)
        if epoch in prod.accepted:
            raise AlreadyFinalized(f"{element} epoch {epoch}")
        bucket = prod.pending.pop(epoch, None)
        if not bucket:
            raise NoAttestations(f"{element} epoch {epoch}")

        values = list(bucket.values())
        m = median_int(values)
        # |v - m| > m * max_deviation_bps / 10000, kept in integer arithmetic
        outliers = {src for src, v in bucket.items()
                    if abs(v - m) * BPS > m * policy.max_deviation_bps}
        rejected = sorted(outliers)
        survivors = [v for src, v in bucket.items() if src not in outliers]

        failed = len(survivors) < policy.min_sources
        result = EpochResult(element, epoch, accepted=0 if failed else median_int(survivors),
                             rejected_sources=rejected, failed=failed)

        prod.cumulative_accepted += result.accepted
        prod.accepted[epoch] = result.accepted
        return result

    def mintable_capacity(self, element: str) -> int:
        prod = self._record(element)
        return prod.cumulative_accepted - prod.cumulative_minted

    def mint_verified(self, element: str, to: str, qty: int):
        check_amount(qty)
        capacity = self.mintable_capacity(element)
        if qty > capacity:
            raise ExceedsVerifiedOutput(
                f"mint {qty} of {element} exceeds verified capacity {capacity}")
        self.registry.mint(element, to, qty, self.AUTHORITY)
        self.production[element].cumulative_minted += qty

    def twa_output(self, element: str, epoch: int, policy: OraclePolicy) -> int:
        """Mean accepted output over the trailing window ending at `epoch`.

        Only finalized epochs contribute; failed epochs count as 0. Returns 0
        when nothing in the window is finalized.
        """
        accepted = self._record(element).accepted
        window = range(epoch - policy.twa_window + 1, epoch + 1)
        return sum(accepted.get(e, 0) for e in window) // policy.twa_window

    def record_verified_output(self, element: str, amount: int):
        """Bootstrap helper: credit pre-verified production without attestations.

        Used by scenario setup to model output verified before the simulated
        window starts. Keeps the minted <= accepted invariant intact.
        """
        check_amount(amount)
        self._record(element).cumulative_accepted += amount
