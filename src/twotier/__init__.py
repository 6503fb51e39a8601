"""Two-tier tokenization engine: element tokens, composite baskets, and the
market machinery (AMM pools, NAV arbitrage, yield distribution) that keeps
composite prices anchored to basket value."""

from .amm import AmmVenues, SwapDirection
from .arbitrage import (
    ExecutionPlan,
    RouteKind,
    Side,
    best_route,
    detect_arbitrage,
    execute_plan,
)
from .composite import AssetDefinition, CompositeEngine
from .ledger import AccountRole, Registry, TokenKind, TokenMeta, replay_events
from .market import Market
from .oracle import Attestation, OracleHub, OraclePolicy
from .pricing import NavReport, nav_report, premium_bps
from .sim import ScenarioConfig, build_market, load_config, parse_config, run
from .yields import YieldVault

__all__ = [
    "AccountRole", "AmmVenues", "AssetDefinition", "Attestation",
    "CompositeEngine", "ExecutionPlan", "Market", "NavReport", "OracleHub",
    "OraclePolicy", "Registry", "RouteKind", "ScenarioConfig", "Side",
    "SwapDirection", "TokenKind", "TokenMeta", "YieldVault", "best_route",
    "build_market", "detect_arbitrage", "execute_plan", "load_config", "nav_report",
    "parse_config", "premium_bps", "replay_events", "run",
]
