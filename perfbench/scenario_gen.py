"""Seeded synthetic scenario documents for the benchmark workloads.

`generate(shape, seed)` returns a plain scenario document that
`twotier validate` accepts; `dump` renders it, and the same shape and seed
always give byte-identical JSON. All randomness is one `random.Random(seed)`
stream consumed in a fixed order, so the document depends on nothing else.

The market is one composite `W` backed by `elements` element tokens, every
token pooled against the numeraire `NUM` at its basket value, so the
composite starts at NAV and only agent flow moves it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

BPS = 10_000
COMPOSITE = "W"
ISSUER = "issuer"
ELEMENT_POOL_DEPTH = 10 ** 7      # element units seeded into each element pool
COMPOSITE_POOL_DEPTH = 100_000    # composite units seeded into the composite pool


@dataclass(frozen=True)
class Shape:
    """What a synthetic scenario contains; every field scales one cost."""

    epochs: int = 100
    elements: int = 3
    funded_accounts: int = 0          # hold numeraire, never trade
    noise_traders: int = 0
    noise_pools: tuple[str, ...] = ("element", "composite")
    liquidity_providers: int = 0      # join an element pool, exit it later
    genesis_holders: int = 0          # hold composite from genesis
    auto_claim: int = 0               # first N genesis holders claim every epoch
    yield_every: int = 0              # epochs between yield deposits; 0 = none
    arbitrage: bool = True


def _fee(amount: int, fee_bps: int) -> int:
    return -(-amount * fee_bps // BPS)


def generate(shape: Shape, seed: int) -> dict:
    rng = random.Random(seed)
    elements = [f"el{i}" for i in range(shape.elements)]
    per_unit = {e: rng.randint(1, 20) * 10 for e in elements}
    price = {e: rng.randint(1, 5) for e in elements}
    nav = sum(per_unit[e] * price[e] for e in elements)
    mint_fee, redeem_fee = rng.randint(5, 30), rng.randint(5, 30)
    yield_amount = rng.randint(5, 20) * 10 ** 6

    holders = [(f"holder{i:05d}", rng.randint(10, 1000))
               for i in range(shape.genesis_holders)]
    funded = [(f"acct{i:05d}", rng.randint(1, 10 ** 6))
              for i in range(shape.funded_accounts)]

    pool_bases = []
    if "element" in shape.noise_pools:
        pool_bases += elements
    if "composite" in shape.noise_pools:
        pool_bases.append(COMPOSITE)
    traders = []
    for i in range(shape.noise_traders):
        base = pool_bases[i % len(pool_bases)]
        depth = (COMPOSITE_POOL_DEPTH * nav if base == COMPOSITE
                 else ELEMENT_POOL_DEPTH * price[base])
        traders.append({
            "kind": "noise_trader", "id": f"nt{i:04d}", "pool": base,
            "intensity": round(rng.uniform(0.3, 0.9), 3),
            "mu": round(math.log(depth / 1000) * rng.uniform(0.9, 1.1), 3),
            "sigma": round(rng.uniform(0.5, 1.2), 3),
            "budget": str(depth // 10),
        })

    for i in range(shape.liquidity_providers):
        base = elements[i % len(elements)]
        amount = ELEMENT_POOL_DEPTH // 100
        join = rng.randrange(shape.epochs // 2)
        traders.append({
            "kind": "liquidity_provider", "id": f"lp{i:04d}", "pool": base,
            "base": str(amount), "numeraire": str(amount * price[base]),
            "join_epoch": join,
            "exit_epoch": join + 1 + rng.randrange(max(1, shape.epochs // 2 - 1)),
            "budget": str(4 * amount * price[base]),
        })

    # The issuer seeds every pool and mints the composite pool's side; its
    # element credit covers that plus one spare pool depth.
    issuer_q = COMPOSITE_POOL_DEPTH
    oracle_elements = {}
    for e in elements:
        need = per_unit[e] * issuer_q
        genesis = [{"account": ISSUER,
                    "amount": str(2 * ELEMENT_POOL_DEPTH + need + _fee(need, mint_fee))}]
        for acct, q in holders:
            need = per_unit[e] * q
            genesis.append({"account": acct, "amount": str(need + _fee(need, mint_fee))})
        oracle_elements[e] = {
            "sources": [f"{e}_src{j}" for j in range(3)],
            "per_epoch": str(rng.randint(1, 10) * 1000),
            "mint_to": ISSUER,
            "genesis": genesis,
        }

    yield_epochs = (range(0, shape.epochs, shape.yield_every)
                    if shape.yield_every else range(0))
    issuer_numeraire = (2 * sum(ELEMENT_POOL_DEPTH * price[e] for e in elements)
                        + 2 * COMPOSITE_POOL_DEPTH * nav
                        + yield_amount * len(yield_epochs))

    return {
        "seed": rng.randrange(2 ** 32),
        "epochs": shape.epochs,
        "numeraire": {"id": "NUM", "decimals": 0},
        "tokens": [{"id": e, "kind": "element", "unit_label": "unit", "decimals": 0}
                   for e in elements],
        "assets": [{
            "composite": COMPOSITE,
            "unit_label": "share",
            "decimals": 0,
            "composition": {e: str(per_unit[e]) for e in elements},
            "mint_fee_bps": mint_fee,
            "redeem_fee_bps": redeem_fee,
            "genesis_mint": ([{"account": ISSUER, "q": str(issuer_q)}]
                             + [{"account": a, "q": str(q)} for a, q in holders]),
        }],
        "oracle": {
            "policy": {"min_sources": 2, "max_deviation_bps": 500, "twa_window": 3},
            "elements": oracle_elements,
        },
        "accounts": ([{"id": ISSUER, "numeraire": str(issuer_numeraire)}]
                     + [{"id": a, "numeraire": str(n)} for a, n in funded]
                     + [{"id": a, "numeraire": "0"} for a, _ in holders]),
        "pools": ([{"base": e, "fee_bps": 30, "seed_base": str(ELEMENT_POOL_DEPTH),
                    "seed_numeraire": str(ELEMENT_POOL_DEPTH * price[e]),
                    "provider": ISSUER} for e in elements]
                  + [{"base": COMPOSITE, "fee_bps": 30,
                      "seed_base": str(COMPOSITE_POOL_DEPTH),
                      "seed_numeraire": str(COMPOSITE_POOL_DEPTH * nav),
                      "provider": ISSUER}]),
        "agents": traders + [{
            "kind": "arbitrageur", "id": "arb", "asset": COMPOSITE,
            "min_profit": "1", "max_size": str(COMPOSITE_POOL_DEPTH // 10),
            "enabled": shape.arbitrage,
        }],
        "shocks": [],
        "yield_schedule": [{"asset": COMPOSITE, "epoch": ep, "amount": str(yield_amount),
                            "payer": ISSUER} for ep in yield_epochs],
        "auto_claim": [a for a, _ in holders[:shape.auto_claim]],
    }


def dump(doc: dict) -> str:
    """Canonical JSON text of a document."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
