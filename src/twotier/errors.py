"""Error hierarchy shared across the engine.

Every operational failure raises a subclass of EngineError so that callers
(and the CLI) can distinguish user/config errors (exit 1) from internal
invariant violations (exit 2, raised as InvariantViolation).
"""


class EngineError(Exception):
    pass


# --- ledger ---

class LedgerError(EngineError):
    pass


class DuplicateToken(LedgerError):
    pass


class UnknownToken(LedgerError):
    pass


class UnknownAccount(LedgerError):
    pass


class DuplicateAccount(LedgerError):
    pass


class Unauthorized(LedgerError):
    pass


class TokenPaused(LedgerError):
    pass


class NotAllowlisted(LedgerError):
    pass


class InsufficientBalance(LedgerError):
    def __init__(self, msg="", token=None, shortfall=0):
        super().__init__(msg)
        self.token = token
        self.shortfall = shortfall


class Overflow(LedgerError):
    pass


# --- composite ---

class CompositeError(EngineError):
    pass


class UnknownElement(CompositeError):
    pass


class CompositeAlreadyBound(CompositeError):
    pass


class EmptyComposition(CompositeError):
    pass


class UnknownAsset(CompositeError):
    pass


class ZeroQuantity(CompositeError):
    pass


# --- oracle ---

class OracleError(EngineError):
    pass


class DuplicateAttestation(OracleError):
    pass


class EpochFinalized(OracleError):
    pass


class NoAttestations(OracleError):
    pass


class AlreadyFinalized(OracleError):
    pass


class ExceedsVerifiedOutput(OracleError):
    pass


# --- amm ---

class AmmError(EngineError):
    pass


class ZeroInput(AmmError):
    pass


class DrainedPool(AmmError):
    pass


class DuplicatePool(AmmError):
    pass


class UnknownPool(AmmError):
    pass


# --- pricing / routing ---

class MissingPrice(EngineError):
    pass


class NoExecutablePath(EngineError):
    pass


class StalePlan(EngineError):
    pass


# --- yield ---

class YieldError(EngineError):
    pass


class ZeroSupply(YieldError):
    pass


# --- config / sim ---

class ConfigError(EngineError):
    def __init__(self, msg="", path=()):
        super().__init__(msg)
        self.path = path  # keys of the rejected field, outermost first


class ParseError(ConfigError):
    pass


class UnknownReference(ConfigError):
    pass


class InvariantViolation(EngineError):
    """An internal consistency check failed; names the violated invariant."""
