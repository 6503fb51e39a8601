"""Production attestation gate for element minting.

Multiple sources report measured output per element and epoch. Finalizing
an epoch takes the median, drops sources outside a relative deviation band
around it, and re-medians the survivors. Element supply can only grow up to
the cumulative accepted output, so no sequence of operations can mint more
than was verified.
"""

from __future__ import annotations

from collections.abc import Mapping
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
    twa_window: int = 1  # range-checked; no run reads it

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
    {source: measured} and the epochs already finalized, failed ones included."""
    cumulative_accepted: int = 0
    cumulative_minted: int = 0
    pending: dict[int, dict[str, int]] = field(default_factory=dict, repr=False)
    finalized: set[int] = field(default_factory=set, repr=False)


def median_int(values: list[int]) -> int:
    """Integer median; even count takes the floor of the mean of the middle pair."""
    return _median_sorted(sorted(values))


def _median_sorted(vs: list[int]) -> int:
    """`median_int` of values already in ascending order."""
    mid = len(vs) // 2
    return vs[mid] if len(vs) % 2 else (vs[mid - 1] + vs[mid]) // 2


class OracleHub:
    """Holds one production record per element token, created on its first use.

    Every entry point raises UnknownElement for an id that is not a registered
    ELEMENT token, before it reads or creates a record. Genesis credits of
    one element are one `Registry.settle` (`credit_genesis`).
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
        self.submit_readings(att.element, att.epoch, {att.source: att.measured})

    def submit_readings(self, element: str, epoch: int, readings: Mapping[str, int]):
        """File each source's measured output of `element` at `epoch`, all or none.

        The checks of one `Attestation` per reading, in this order: the epoch,
        every amount, the element, an epoch already finalized, a source that
        already attested it. Nothing is filed unless every reading passes, and
        an empty round files nothing.
        """
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        readings = {source: measured if type(measured) is int and measured >= 0
                    else check_amount(measured) for source, measured in readings.items()}
        prod = self._record(element)
        if epoch in prod.finalized:
            raise EpochFinalized(f"{element} epoch {epoch}")
        bucket = prod.pending.get(epoch)
        if bucket is None:
            if readings:
                prod.pending[epoch] = readings
            return
        for source in readings:
            if source in bucket:
                raise DuplicateAttestation(f"{source} already attested {element} epoch {epoch}")
        bucket.update(readings)

    def finalize_epoch(self, element: str, epoch: int, policy: OraclePolicy) -> EpochResult:
        prod = self._record(element)
        if epoch in prod.finalized:
            raise AlreadyFinalized(f"{element} epoch {epoch}")
        bucket = prod.pending.pop(epoch, None)
        if not bucket:
            raise NoAttestations(f"{element} epoch {epoch}")

        values = sorted(bucket.values())
        m = _median_sorted(values)
        # |v - m| > m * max_deviation_bps / 10000, kept in integer arithmetic
        band = m * policy.max_deviation_bps
        if (m - values[0]) * BPS > band or (values[-1] - m) * BPS > band:
            rejected = sorted(src for src, v in bucket.items() if abs(v - m) * BPS > band)
            survivors = [v for v in values if abs(v - m) * BPS <= band]  # still in order
        else:  # no value lies further from m than the lowest or the highest
            rejected, survivors = [], values

        failed = len(survivors) < policy.min_sources
        result = EpochResult(element, epoch,
                             accepted=0 if failed else _median_sorted(survivors),
                             rejected_sources=rejected, failed=failed)

        prod.cumulative_accepted += result.accepted
        prod.finalized.add(epoch)
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

    def record_verified_output(self, element: str, amount: int):
        """Bootstrap helper: credit pre-verified production without attestations.

        It models output verified before the simulated window starts, and keeps
        the minted <= accepted invariant intact; scenario set-up credits and
        mints each element's genesis rows at once, through `credit_genesis`.
        """
        check_amount(amount)
        self._record(element).cumulative_accepted += amount

    def credit_genesis(self, element: str, rows: list[tuple[str, int]]):
        """Bootstrap: mint each (account, amount) of `rows` as production verified
        before the simulated window, in order, all or none.

        The log is that of `record_verified_output` then `mint_verified` per row:
        one mint event per row, written in one `Registry.settle`. Every amount is
        checked first; a failing leg raises its own ledger error and nothing is
        written. The totals grow only once the settle succeeded, so minted never
        exceeds accepted.
        """
        legs = [(element, None, account,
                 amount if type(amount) is int and amount >= 0 else check_amount(amount))
                for account, amount in rows]
        prod = self._record(element)
        self.registry.settle(legs, self.AUTHORITY)
        total = sum(leg[3] for leg in legs)
        prod.cumulative_accepted += total
        prod.cumulative_minted += total
