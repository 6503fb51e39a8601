"""Post-run audit of a finished simulation and digests of its outputs.

The checks recompute each invariant from public ledger reads
(`holders`, `balance_of`, `total_supply`) instead of trusting the engine's
own per-mutation checks, so a corrupted balance that the engine would not
notice still fails the audit. Nothing here runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import json

from twotier.ledger import TokenKind, replay_events
from twotier.yields import INDEX_SCALE


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check(result, events_path: str | None = None) -> list[str]:
    """Every invariant the run must end with; returns the ones that fail.

    With `events_path`, the exported event log is also replayed and its
    state hash compared with the live ledger's.
    """
    market = result.market
    reg = market.registry
    problems = []

    for token in reg.tokens:
        held = sum(reg.balance_of(token, acct) for acct in reg.holders(token))
        if held != reg.total_supply(token):
            problems.append(f"conservation {token}: holders hold {held}, "
                            f"supply {reg.total_supply(token)}")
        negative = [acct for acct in reg.accounts if reg.balance_of(token, acct) < 0]
        if negative:
            problems.append(f"conservation {token}: negative balance at {negative[0]}")

    for cid, asset in market.composites.assets.items():
        supply = reg.total_supply(cid)
        for element, per_unit in asset.composition:
            owed = -(-per_unit * supply // asset.unit)
            escrowed = reg.balance_of(element, asset.escrow)
            if escrowed != owed:
                problems.append(f"backing {cid}/{element}: escrow {escrowed}, owed {owed}")

    for token, meta in reg.tokens.items():
        if meta.kind != TokenKind.ELEMENT:
            continue
        prod = market.oracle.production.get(token)
        accepted = prod.cumulative_accepted if prod else 0
        minted = prod.cumulative_minted if prod else 0
        if max(minted, reg.total_supply(token)) > accepted:
            problems.append(f"oracle {token}: minted {minted}, supply "
                            f"{reg.total_supply(token)}, accepted {accepted}")

    for cid, pool in market.yields.pools.items():
        held = reg.balance_of(market.numeraire, pool.account)
        if held != pool.total_deposited - pool.total_paid:
            problems.append(f"vault {cid}: holds {held}, deposited "
                            f"{pool.total_deposited} paid {pool.total_paid}")
        undistributed = market.yields.undistributed_scaled(cid)
        if undistributed != held * INDEX_SCALE:
            problems.append(f"vault {cid}: undistributed_scaled {undistributed} "
                            f"!= held * 10**18")

    if events_path is not None:
        with open(events_path) as fh:
            events = [json.loads(line) for line in fh]
        if replay_events(events).state_hash() != reg.state_hash():
            problems.append("replayed events.jsonl does not reproduce the live state hash")
    return problems
